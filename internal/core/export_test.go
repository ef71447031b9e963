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
