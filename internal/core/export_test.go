package core

import (
	"repro/internal/rdbms"
	"repro/internal/reformulate"
)

// ReferenceCatalog exposes the decoded reference rebuild of the extracted
// table to the external tests that drive sharded systems.
func ReferenceCatalog(db *rdbms.DB) (reformulate.Catalog, error) {
	return referenceCatalog(db, TableName)
}

// CatalogGeneration reports whether the catalog cache is valid, the
// reformulator it maintains and the published serving snapshot. A fold
// updates both in place; an invalidation drops them, and the rebuild
// after it makes new ones.
func CatalogGeneration(s *System) (valid bool, reform *reformulate.Reformulator, published any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.valid, s.cat.reform, s.catPtr.Load()
}
