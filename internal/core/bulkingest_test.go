package core

import (
	"context"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/rdbms"
	"repro/internal/synth"
)

func newBulkIngestSystem(t *testing.T, workers int) *System {
	t.Helper()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: 60, People: 20, Filler: 40, MentionsPerPerson: 2,
	})
	sys, err := New(Config{Corpus: corpus, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBulkIngestEndToEnd drives the whole PR8 pipeline: cluster-fanned
// extraction shuffled by entity, COPY-style batch load with deferred
// index build on the fresh extracted table, catalog invalidation, and a
// second (incremental) ingest on the now-populated table.
func TestBulkIngestEndToEnd(t *testing.T) {
	sys := newBulkIngestSystem(t, 4)
	ctx := context.Background()

	if _, err := sys.BulkIngest(ctx, "nope", 0); err == nil || !strings.Contains(err.Error(), "unknown extractor") {
		t.Fatalf("unknown extractor: err=%v", err)
	}

	rep, err := sys.BulkIngest(ctx, "city", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 || rep.Docs == 0 {
		t.Fatalf("empty ingest: %+v", rep)
	}
	if !rep.Deferred {
		t.Fatalf("fresh table should take the deferred index build: %+v", rep)
	}
	if rep.Batches == 0 {
		t.Fatalf("no batch records logged: %+v", rep)
	}
	n, err := sys.ExtractedRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != rep.Rows {
		t.Fatalf("table holds %d rows, report says %d", n, rep.Rows)
	}

	// The catalog cache was invalidated, not fed per-row: guided queries
	// must rebuild it from the table and find the ingested structure.
	ans, err := sys.AskGuided(ctx, "temperature Madison", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) == 0 {
		t.Fatal("catalog rebuild after bulk ingest found no structure")
	}

	// Second ingest hits non-empty indexes: the incremental per-chunk
	// insert path, appending a duplicate generation of rows.
	rep2, err := sys.BulkIngest(ctx, "city", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Deferred {
		t.Fatal("populated indexes must use the incremental path")
	}
	if rep2.Rows != rep.Rows {
		t.Fatalf("second ingest loaded %d rows, first %d", rep2.Rows, rep.Rows)
	}
	n2, err := sys.ExtractedRows()
	if err != nil {
		t.Fatal(err)
	}
	if n2 != rep.Rows+rep2.Rows {
		t.Fatalf("table holds %d rows after two ingests of %d", n2, rep.Rows)
	}
}

// TestBulkIngestEquivalenceOracle checks the ingested table against two
// independent derivations: the sequential ExtractAll reference (row
// count and the multiset digest over the identity columns must match
// exactly), and a second system ingesting the same corpus with a
// different worker and partition count (the digest over whole rows —
// order independent by construction — must be identical, so the shuffle
// plan cannot change what was loaded).
func TestBulkIngestEquivalenceOracle(t *testing.T) {
	ctx := context.Background()
	sysA := newBulkIngestSystem(t, 4)
	repA, err := sysA.BulkIngest(ctx, "city", 8)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same pipeline run sequentially, digested by hand
	// over the entity/attribute/qualifier columns.
	fields := extract.DefaultCityPipeline().ExtractAll(sysA.Corpus.Docs())
	if len(fields) != repA.Rows {
		t.Fatalf("bulk ingest loaded %d rows, sequential extraction yields %d", repA.Rows, len(fields))
	}
	var want uint64
	for _, f := range fields {
		want += identityDigest(f.Entity, f.Attribute, f.Qualifier)
	}
	if got, _ := tableDigests(t, sysA.DB); got != want {
		t.Fatalf("identity digest %x after bulk ingest, sequential reference %x", got, want)
	}

	// Different parallelism, same corpus: identical table content.
	sysB := newBulkIngestSystem(t, 1)
	repB, err := sysB.BulkIngest(ctx, "city", 1)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Rows != repA.Rows {
		t.Fatalf("1-way ingest loaded %d rows, 8-way loaded %d", repB.Rows, repA.Rows)
	}
	_, rowsA := tableDigests(t, sysA.DB)
	if _, rowsB := tableDigests(t, sysB.DB); rowsB != rowsA {
		t.Fatalf("row digest differs across partition plans: %x vs %x", rowsB, rowsA)
	}

	// And the query surface agrees byte for byte on an ordered stream
	// (population is unique per entity, so the order has no ties for the
	// stable sort to resolve by load order).
	const q = "SELECT entity, value FROM extracted WHERE attribute = 'population' ORDER BY entity LIMIT 50"
	rsA, err := sysA.SQL(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rsB, err := sysB.SQL(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rsA.String() != rsB.String() {
		t.Fatalf("ordered streams differ:\n%s\nvs\n%s", rsA.String(), rsB.String())
	}
}

// identityDigest is one row's contribution to the identity digest: the
// FNV-1a hash of its entity, attribute and qualifier.
func identityDigest(entity, attribute, qualifier string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(entity + "\x00" + attribute + "\x00" + qualifier))
	return h.Sum64()
}

// tableDigests reads the extracted table through one snapshot scan and
// returns two order-independent multiset digests (per-row hashes summed
// with wrapping addition): over the identity columns, and over whole
// encoded rows.
func tableDigests(t *testing.T, db *rdbms.DB) (identity, rows uint64) {
	t.Helper()
	sn := db.BeginSnapshot()
	defer sn.Close()
	if err := sn.Scan(TableName, func(_ rdbms.RID, tup rdbms.Tuple) bool {
		identity += identityDigest(tup[0].S, tup[1].S, tup[2].S)
		h := fnv.New64a()
		h.Write(rdbms.EncodeTuple(tup))
		rows += h.Sum64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return identity, rows
}
