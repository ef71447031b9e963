package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/uql"
)

const warmGenProgram = `
	EXTRACT temperature FROM docs USING city KIND city INTO temps;
	STORE temps INTO TABLE extracted;
`

// assertCatalogFresh checks that the cached Catalog() equals a fresh
// full-scan rebuild (CatalogScan), the cache-correctness invariant.
func assertCatalogFresh(t *testing.T, s *System, when string) {
	t.Helper()
	cached, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatalf("%s: Catalog: %v", when, err)
	}
	fresh, err := s.RefreshCatalog(context.Background())
	if err != nil {
		t.Fatalf("%s: CatalogScan: %v", when, err)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Fatalf("%s: cached catalog diverged from full scan\ncached: %+v\nfresh:  %+v", when, cached, fresh)
	}
}

func TestCatalogCacheMatchesFullScan(t *testing.T) {
	s, _ := newSystem(t, 10, 4, 0)
	assertCatalogFresh(t, s, "empty table")

	// After Generate (UQL STORE ingests through the sink and folds its
	// rows into the cache).
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after Generate")

	// After incremental extraction (materialize maintains the cache in
	// place — no invalidation, so this exercises addRow).
	if err := s.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after ExtractPending")

	// After a human correction (in-place value rewrite).
	cat, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Entities) == 0 {
		t.Fatal("no entities extracted")
	}
	ent := cat.Entities[0]
	var qual string
	if quals := cat.Qualifiers["temperature"]; len(quals) > 0 {
		qual = quals[0]
	}
	if err := s.CorrectValue(context.Background(), "alice", ent, "temperature", qual, "12.5"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after CorrectValue")

	// After direct SQL writes through the System facade.
	if _, err := s.SQL(context.Background(), "INSERT INTO extracted (entity, attribute, qualifier, value, num, conf) VALUES ('Metropolis', 'mayor', '', 'Jane Doe', NULL, 0.9)"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after SQL INSERT")
	cached, _ := s.Catalog(context.Background())
	found := false
	for _, e := range cached.Entities {
		if e == "Metropolis" {
			found = true
		}
	}
	if !found {
		t.Fatal("SQL INSERT did not surface in the catalog")
	}

	if _, err := s.SQL(context.Background(), "DELETE FROM extracted WHERE entity = 'Metropolis'"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after SQL DELETE")
	cached, _ = s.Catalog(context.Background())
	for _, e := range cached.Entities {
		if e == "Metropolis" {
			t.Fatal("deleted entity still in catalog")
		}
	}
}

func TestCatalogCacheReusesMemoizedSnapshot(t *testing.T) {
	s, _ := newSystem(t, 6, 2, 0)
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Read-only streak: the memoized snapshot (and its slices) is reused.
	if len(a.Entities) > 0 && &a.Entities[0] != &b.Entities[0] {
		t.Fatal("catalog snapshot rebuilt despite no writes")
	}
}

// TestCatalogCacheSurvivesRefreshChanged: RefreshChanged deletes an
// entity's rows before re-extracting; the warm cache cannot un-see rows,
// so the refresh must invalidate it (regression for a review finding).
func TestCatalogCacheSurvivesRefreshChanged(t *testing.T) {
	s, _ := newSystem(t, 8, 0, 0)
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "warm before refresh") // warms the cache
	// Day-2 crawl: Madison's article becomes unextractable prose, so the
	// refresh deletes its rows and materializes nothing for it.
	s.CommitSnapshot(map[string]string{"Madison, Wisconsin": "Nothing structured remains here."})
	changed, err := s.RefreshChanged("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed: %v", changed)
	}
	assertCatalogFresh(t, s, "after RefreshChanged")
	cat, _ := s.Catalog(context.Background())
	for _, e := range cat.Entities {
		if e == "Madison, Wisconsin" {
			t.Fatal("deleted entity still served from warm catalog cache")
		}
	}
}

// TestCatalogCacheRefreshChangedReachesAsk: the entity RefreshChanged
// deleted must also leave the catalog asks are served from. An ask reads
// the published snapshot without a lock, so invalidating the cache
// without unpublishing its snapshot kept serving the deleted entity until
// some other catalog read rebuilt it.
func TestCatalogCacheRefreshChangedReachesAsk(t *testing.T) {
	s, _ := newSystem(t, 8, 0, 0)
	ctx := context.Background()
	if _, err := s.Generate(ctx, warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	const q = "average temperature Madison Wisconsin"
	ans, err := s.AskGuided(ctx, q, 3) // publishes the catalog snapshot
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) == 0 || ans.Candidates[0].Entity != "Madison, Wisconsin" {
		t.Fatalf("before the refresh: %+v", ans.Candidates)
	}
	s.CommitSnapshot(map[string]string{"Madison, Wisconsin": "Nothing structured remains here."})
	if _, err := s.RefreshChanged("city"); err != nil {
		t.Fatal(err)
	}
	if ans, err = s.AskGuided(ctx, q, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range ans.Candidates {
		if c.Entity == "Madison, Wisconsin" {
			t.Fatalf("ask still resolves the deleted entity: %+v", c)
		}
	}
	assertCatalogFresh(t, s, "after RefreshChanged")
}

// TestCatalogCacheInvalidatedOnGenerateError: UQL ops run sequentially
// and each STORE commits its own transaction, so a program that stores
// then errors must still leave the committed rows in the cached catalog
// (each STORE folds its own rows; regression for a review finding).
func TestCatalogCacheInvalidatedOnGenerateError(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	assertCatalogFresh(t, s, "warm on empty table") // warms the cache
	_, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
		STORE no_such_relation INTO TABLE extracted;
	`, uql.Options{})
	if err == nil {
		t.Fatal("expected error from STORE of unknown relation")
	}
	// The first STORE committed rows; the cached catalog must see them.
	assertCatalogFresh(t, s, "after failed Generate")
	cat, _ := s.Catalog(context.Background())
	if len(cat.Entities) == 0 {
		t.Fatal("committed STORE rows invisible to catalog after failed Generate")
	}
}

// TestCatalogCacheConcurrentQueryAndExtract races AskGuided against
// ExtractPending and CorrectValue; run with -race. The invariant at the
// end: cache still matches a full scan.
func TestCatalogCacheConcurrentQueryAndExtract(t *testing.T) {
	s, _ := newSystem(t, 10, 4, 0)
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 8); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := s.ExtractPending(context.Background(), "city", 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3); err != nil {
					errs <- fmt.Errorf("AskGuided: %w", err)
					return
				}
				s.Demand(context.Background(), "population", 0.5)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after concurrent query+extract")
}

// TestCatalogSnapshotImmuneToLaterDeltas: a Catalog() snapshot handed to
// a caller is read-only; later incremental writes (which now feed the
// memoized reformulator deltas in place) must not add keys to the
// snapshot's Qualifiers map (regression for a review finding).
func TestCatalogSnapshotImmuneToLaterDeltas(t *testing.T) {
	s, _ := newSystem(t, 8, 2, 0)
	if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	// Warm the memoized reformulator so later addRow calls mutate it in
	// place, then hold a snapshot.
	if _, err := s.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3); err != nil {
		t.Fatal(err)
	}
	held, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	heldAttrs := len(held.Qualifiers)

	// A new attribute with a qualifier lands through the cache-maintained
	// path (ingest, NOT System.SQL — that would invalidate the cache and
	// sidestep the in-place delta this test guards).
	s.Env.Relations["inject"] = []uql.Row{{
		Entity: "Gotham", Attribute: "rainfall", Qualifier: "March",
		Value: "12", Conf: 0.9,
	}}
	if _, err := s.Generate(context.Background(), `STORE inject INTO TABLE extracted;`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if len(held.Qualifiers) != heldAttrs {
		t.Fatalf("held snapshot's Qualifiers map grew from %d to %d attributes", heldAttrs, len(held.Qualifiers))
	}
	// The live catalog, in contrast, must see the delta.
	cur, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Qualifiers["rainfall"]; !ok {
		t.Fatal("live catalog missed the rainfall qualifier delta")
	}
	assertCatalogFresh(t, s, "after deltas behind a held snapshot")
}

// referenceCatalog is the catalog rebuild the record scan replaced:
// decode every row through a snapshot Scan and fold its t[0..2].S with
// addRow. TestCatalogRebuildMatchesReference holds rebuildFrom to it.
func referenceCatalog(db *rdbms.DB, table string) (reformulate.Catalog, error) {
	var c catalogCache
	c.reset()
	sn := db.BeginSnapshot()
	defer sn.Close()
	if err := sn.Scan(table, func(_ rdbms.RID, t rdbms.Tuple) bool {
		c.addRow(t[0].S, t[1].S, t[2].S)
		return true
	}); err != nil {
		return reformulate.Catalog{}, err
	}
	return c.snapshot(table), nil
}

// rebuiltCatalog runs rebuildFrom into a fresh cache.
func rebuiltCatalog(db *rdbms.DB, table string) (reformulate.Catalog, error) {
	var c catalogCache
	if err := c.rebuildFrom(db, table); err != nil {
		return reformulate.Catalog{}, err
	}
	return c.snapshot(table), nil
}

// TestCatalogRebuildMatchesReference: the record-scan rebuild yields
// exactly the decoded rebuild's catalog — same entities, attributes and
// qualifier vocabularies in the same first-seen order — on random tables
// whose first three columns hold strings, ints and NULLs (both read a
// non-string as ""), with uncommitted writers in flight, and beside a
// concurrent same-length corrector. The sharded case is
// TestShardedCatalogRebuildMatchesReference.
func TestCatalogRebuildMatchesReference(t *testing.T) {
	t.Run("random-tables", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db, err := rdbms.Open(rdbms.NewMemPager(), rdbms.NewMemWAL(), rdbms.Options{BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			schema := rdbms.TableSchema{Name: "rnd"}
			for i, name := range []string{"entity", "attribute", "qualifier", "value", "num", "conf"} {
				typ := rdbms.TString
				if i < 3 && rng.Intn(4) == 0 || i >= 4 {
					typ = rdbms.TInt
				}
				schema.Columns = append(schema.Columns, rdbms.ColumnDef{Name: name, Type: typ})
			}
			if err := db.CreateTable(schema); err != nil {
				t.Fatal(err)
			}
			value := func(i int) rdbms.Value {
				switch {
				case rng.Intn(8) == 0:
					return rdbms.Value{}
				case schema.Columns[i].Type == rdbms.TInt:
					return rdbms.NewInt(int64(rng.Intn(5)))
				case i == 2 && rng.Intn(3) == 0:
					return rdbms.NewString("")
				default:
					// Long values make some rows span most of a page.
					return rdbms.NewString(fmt.Sprintf("%c%d", 'a'+i, rng.Intn(12)) + strings.Repeat("x", rng.Intn(3)*400))
				}
			}
			row := func() rdbms.Tuple {
				tup := make(rdbms.Tuple, len(schema.Columns))
				for i := range tup {
					tup[i] = value(i)
				}
				return tup
			}
			var rids []rdbms.RID
			for b := 0; b < 4; b++ {
				tx := db.Begin()
				for i := 0; i < 40; i++ {
					rid, err := tx.Insert("rnd", row())
					if err != nil {
						t.Fatal(err)
					}
					rids = append(rids, rid)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// An uncommitted writer rewrites and deletes rows while both
			// rebuilds scan: both must read the committed versions.
			w := db.Begin()
			for _, rid := range rids[:20] {
				if rng.Intn(2) == 0 {
					err = w.Delete("rnd", rid)
				} else {
					_, err = w.Update("rnd", rid, row())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want, err := referenceCatalog(db, "rnd")
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebuiltCatalog(db, "rnd")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: record rebuild differs from the decoded rebuild\ngot  %+v\nwant %+v", seed, got, want)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("concurrent-corrector", func(t *testing.T) {
		s, _ := newSystem(t, 10, 2, 0)
		if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
			t.Fatal(err)
		}
		want, err := referenceCatalog(s.DB, TableName)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.SQL(context.Background(), "SELECT entity, attribute, qualifier, value FROM extracted")
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		errs := make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := rs.Rows[i%len(rs.Rows)]
				// Same length, so the row is rewritten in place.
				v := []byte(r[3].S)
				v[len(v)-1] = '0' + byte(i%10)
				if err := s.CorrectValue(context.Background(), "fixer", r[0].S, r[1].S, r[2].S, string(v)); err != nil {
					errs <- err
					return
				}
			}
		}()
		for i := 0; i < 30; i++ {
			got, err := s.RefreshCatalog(context.Background())
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("rebuild %d beside the corrector differs\ngot  %+v\nwant %+v", i, got, want)
			}
			if err == nil {
				var ref reformulate.Catalog
				if ref, err = referenceCatalog(s.DB, TableName); err == nil && !reflect.DeepEqual(ref, want) {
					err = fmt.Errorf("reference rebuild %d beside the corrector differs", i)
				}
			}
			if err != nil {
				close(stop)
				wg.Wait()
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}
