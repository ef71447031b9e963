package core

import (
	"sort"

	"repro/internal/rdbms"
	"repro/internal/reformulate"
)

// catalogCache incrementally maintains the reformulation catalog — the
// distinct entities, attributes, and per-attribute qualifier vocabulary of
// the extracted table — so the keyword→structured hot path (AskGuided)
// runs zero table scans. All fields are guarded by System.mu.
//
// Lifecycle contract:
//   - Every ingest (UQL STORE, ExtractPending, RefreshChanged's
//     re-insert, BulkLoadRows) folds its rows into the cache in place,
//     after they commit, under System.mu: one routine, ingested.
//     CorrectValue leaves the cache alone: it rewrites a row's value,
//     never its (entity, attribute, qualifier).
//   - Only writes that remove or rewrite rows invalidate the cache
//     (System.SQL DML, RefreshChanged's DELETE): addRow cannot un-see a
//     row. The next catalog read rebuilds it with one full scan and
//     reinstalls it.
//   - Rebuilds hold System.mu across the scan + install, so a concurrent
//     incremental update can neither be lost nor observed half-applied.
//     (Lock order is always System.mu → rdbms locks, never the reverse:
//     core write paths touch the cache only after Commit released their
//     rdbms locks.)
type catalogCache struct {
	valid     bool
	entities  map[string]bool
	attrs     map[string]bool
	qualSeen  map[string]map[string]bool
	qualOrder map[string][]string // first-seen qualifier order per attribute

	// epoch is the invalidation epoch: it advances on every content
	// change and every invalidation, versioning whatever is built over the
	// catalog (System.CatalogEpoch).
	epoch int64

	// built memoizes the assembled (sorted) catalog between writes; it is
	// cleared whenever the cache content changes. reform is the
	// reformulator derived from the catalog: instead of being rebuilt per
	// change (its construction tokenizes every entity name), it is
	// maintained incrementally — addRow feeds it just the delta — and is
	// dropped only on full invalidation.
	built  *reformulate.Catalog
	reform *reformulate.Reformulator
}

// markDirty discards the memoized catalog after a content change and
// advances the invalidation epoch; the entity/attribute/qualifier sets
// and the incrementally maintained reformulator stay valid.
func (c *catalogCache) markDirty() {
	c.built = nil
	c.epoch++
}

// invalidate discards the cache; the next snapshot triggers a full rescan.
func (c *catalogCache) invalidate() {
	c.valid = false
	c.entities = nil
	c.attrs = nil
	c.qualSeen = nil
	c.qualOrder = nil
	c.reform = nil
	c.markDirty()
}

// reset prepares empty-but-valid state for a rebuild.
func (c *catalogCache) reset() {
	c.valid = true
	c.entities = map[string]bool{}
	c.attrs = map[string]bool{}
	c.qualSeen = map[string]map[string]bool{}
	c.qualOrder = map[string][]string{}
	c.reform = nil
	c.markDirty()
}

// addRow folds one extracted row's (entity, attribute, qualifier) into the
// cache — and, when a reformulator is live, into its token index (the
// per-delta maintenance that replaces whole-index rebuilds). Idempotent,
// so replaying a row already seen by a rebuild is safe. No-op while the
// cache is invalid (a later rebuild will pick the row up).
func (c *catalogCache) addRow(entity, attribute, qualifier string) {
	if !c.valid {
		return
	}
	if !c.entities[entity] {
		c.entities[entity] = true
		if c.reform != nil {
			c.reform.AddEntity(entity)
		}
		c.markDirty()
	}
	if !c.attrs[attribute] {
		c.attrs[attribute] = true
		if c.reform != nil {
			c.reform.AddAttribute(attribute)
		}
		c.markDirty()
	}
	if qualifier != "" {
		if c.qualSeen[attribute] == nil {
			c.qualSeen[attribute] = map[string]bool{}
		}
		if !c.qualSeen[attribute][qualifier] {
			c.qualSeen[attribute][qualifier] = true
			c.qualOrder[attribute] = append(c.qualOrder[attribute], qualifier)
			if c.reform != nil {
				c.reform.AddQualifier(attribute, qualifier)
			}
			c.markDirty()
		}
	}
}

// addRecord is addRow over a record's column bytes: a row whose values
// the cache already holds costs three map lookups and allocates nothing.
func (c *catalogCache) addRecord(entity, attribute, qualifier []byte) {
	if c.entities[string(entity)] && c.attrs[string(attribute)] &&
		(len(qualifier) == 0 || c.qualSeen[string(attribute)][string(qualifier)]) {
		return
	}
	c.addRow(string(entity), string(attribute), string(qualifier))
}

// snapshot assembles the reformulate.Catalog from the cache. The result
// shares slices with the memoized copy; callers must treat it as
// read-only (reformulate does).
func (c *catalogCache) snapshot(table string) reformulate.Catalog {
	if c.built != nil {
		return *c.built
	}
	cat := reformulate.Catalog{Table: table, Qualifiers: map[string][]string{}}
	cat.Entities = make([]string, 0, len(c.entities))
	for e := range c.entities {
		cat.Entities = append(cat.Entities, e)
	}
	sort.Strings(cat.Entities)
	cat.Attributes = make([]string, 0, len(c.attrs))
	for a := range c.attrs {
		cat.Attributes = append(cat.Attributes, a)
	}
	sort.Strings(cat.Attributes)
	// Qualifier vocabulary keeps first-seen (document) order, which for
	// month-qualified attributes is calendar order.
	for a, quals := range c.qualOrder {
		cat.Qualifiers[a] = quals
	}
	c.built = &cat
	return cat
}

// reformulator returns the memoized reformulator over the cached catalog,
// building it on first use after a change. Reformulators are read-only
// after construction, so sharing one across queries is safe.
func (c *catalogCache) reformulator(table string) *reformulate.Reformulator {
	if c.reform == nil {
		c.reform = reformulate.New(c.snapshot(table))
	}
	return c.reform
}

// rebuildFrom repopulates the cache with one full scan of the extracted
// table. The scan runs through an MVCC snapshot: it sees exactly the
// committed state at one LSN, takes zero lock-manager acquisitions, and
// cannot deadlock against concurrent writers — important because the
// caller holds System.mu for the duration. It reads encoded records and
// interns columns 0–2 from their bytes, as View.Browse does: no row is
// decoded, and a non-string entity, attribute or qualifier reads as "",
// as a decoded row's t[i].S would. Caller holds System.mu.
func (c *catalogCache) rebuildFrom(db *rdbms.DB, table string) error {
	c.reset()
	sn := db.BeginSnapshot()
	defer sn.Close()
	var recErr error
	err := sn.ScanRecords(table, func(_ rdbms.RID, rec []byte) bool {
		var scratch [8]rdbms.Field
		fields, err := rdbms.SplitRecord(rec, scratch[:0])
		if err != nil {
			recErr = err
			return false
		}
		var str [3][]byte
		for i := 0; i < len(str) && i < len(fields); i++ {
			str[i] = fields[i].Str()
		}
		c.addRecord(str[0], str[1], str[2])
		return true
	})
	if err == nil {
		err = recErr
	}
	if err != nil {
		c.invalidate()
		return err
	}
	return nil
}
