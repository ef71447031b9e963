package rdbms

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The bulk-load suite: functional coverage of the COPY-style batch path
// (deferred and incremental index maintenance, snapshot atomicity), the
// bulk-vs-incremental equivalence oracle (identical row multisets and
// byte-identical ORDER BY streams across all three sort paths), and the
// batch crash suite (a kill at every mutating I/O of a bulk-load
// workload must recover to a whole-chunk prefix — all-or-nothing batch
// visibility).

func bulkRows(n int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = bulkRow(i)
	}
	return rows
}

// bulkRow is row i of every bulk-load workload.
func bulkRow(i int) Tuple {
	return Tuple{
		NewInt(int64(i)),
		NewString(fmt.Sprintf("grp-%d", i%7)),
		NewString(strings.Repeat("v", 40+i%60) + fmt.Sprintf("-%d", i)),
	}
}

// snapDigest is an order-independent multiset digest of a table's rows,
// read through one snapshot scan: each row contributes the FNV-1a hash of
// its encoding, summed with wrapping addition, so insertion order and
// placement are irrelevant but multiplicity counts.
func snapDigest(t testing.TB, db *DB, table string) uint64 {
	t.Helper()
	sn := db.BeginSnapshot()
	defer sn.Close()
	var sum uint64
	if err := sn.ScanRecords(table, func(_ RID, rec []byte) bool {
		sum += rowDigest(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return sum
}

// rowDigest is one encoded row's contribution to snapDigest.
func rowDigest(rec []byte) uint64 {
	h := fnv.New64a()
	h.Write(rec)
	return h.Sum64()
}

func mustCreateBulk(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTable(TableSchema{Name: "bulk", Columns: []ColumnDef{
		{Name: "id", Type: TInt},
		{Name: "grp", Type: TString},
		{Name: "val", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadBatchBasic(t *testing.T) {
	db := newTestDB(t)
	mustCreateBulk(t, db)
	if err := db.CreateIndex("bulk", "id"); err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(1000)
	stats, err := db.BulkLoad(context.Background(), "bulk", bulkRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 1000 {
		t.Fatalf("stats.Rows = %d, want 1000", stats.Rows)
	}
	if stats.Batches < 2 {
		t.Fatalf("expected multiple batches for 1000 rows, got %d", stats.Batches)
	}
	if !stats.Deferred {
		t.Fatalf("empty index should defer the index build")
	}

	// Every row present exactly once, readable through a transaction.
	tx := db.Begin()
	seen := map[int64]bool{}
	if err := tx.Scan("bulk", func(_ RID, tup Tuple) bool {
		if seen[tup[0].I] {
			t.Fatalf("duplicate id %d", tup[0].I)
		}
		seen[tup[0].I] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if len(seen) != 1000 {
		t.Fatalf("scanned %d rows, want 1000", len(seen))
	}

	// The deferred-built index agrees with the heap.
	idx := db.Table("bulk").Indexes["id"]
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1000 {
		t.Fatalf("index has %d entries, want 1000", idx.Len())
	}
	rs := mustExec(t, db, "SELECT val FROM bulk WHERE id = 417")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != rows[417][2].S {
		t.Fatalf("index lookup after bulk load: %v", rs.Rows)
	}

	// The fence checkpointed: the load's WAL growth is truncated and the
	// version store drained.
	if n := db.vs.Chains(); n != 0 {
		t.Fatalf("%d version chains left after fenced bulk load", n)
	}
}

// TestBulkLoadBatchIncrementalIndexes loads into a table that already
// has rows (non-empty index), exercising the per-chunk incremental
// maintenance mode.
func TestBulkLoadBatchIncrementalIndexes(t *testing.T) {
	db := newTestDB(t)
	mustCreateBulk(t, db)
	if err := db.CreateIndex("bulk", "id"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Insert("bulk", Tuple{NewInt(-1), NewString("pre"), NewString("existing")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stats, err := db.BulkLoad(context.Background(), "bulk", bulkRows(300))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deferred {
		t.Fatalf("non-empty index must force incremental maintenance")
	}
	idx := db.Table("bulk").Indexes["id"]
	if idx.Len() != 301 {
		t.Fatalf("index has %d entries, want 301", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := mustExec(t, db, "SELECT val FROM bulk WHERE id = -1"); len(got.Rows) != 1 || got.Rows[0][0].S != "existing" {
		t.Fatalf("pre-existing row lost: %v", got.Rows)
	}
}

// TestBulkLoadBatchSnapshotAtomicity pins MVCC batch publication: a
// snapshot opened before a chunk commits never sees any of its rows, a
// snapshot opened after sees all of them, and mid-load snapshots observe
// only whole-chunk prefixes.
func TestBulkLoadBatchSnapshotAtomicity(t *testing.T) {
	db := newTestDB(t)
	mustCreateBulk(t, db)

	before := db.BeginSnapshot()
	defer before.Close()

	bl, err := db.BeginBulkLoad("bulk")
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(2500)
	var boundaries []int
	for off := 0; off < len(rows); {
		n, err := bl.loadChunk(rows[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		boundaries = append(boundaries, off)

		// A snapshot opened now must see exactly the whole chunks
		// committed so far — never part of one.
		sn := db.BeginSnapshot()
		count := 0
		if err := sn.Scan("bulk", func(_ RID, _ Tuple) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		sn.Close()
		if count != off {
			t.Fatalf("mid-load snapshot sees %d rows, want whole-chunk prefix %d", count, off)
		}
	}
	if len(boundaries) < 3 {
		t.Fatalf("want >=3 chunks to make the atomicity check meaningful, got %d", len(boundaries))
	}
	if _, err := bl.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The pre-load snapshot still sees an empty table.
	count := 0
	if err := before.Scan("bulk", func(_ RID, _ Tuple) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("pre-load snapshot sees %d bulk rows", count)
	}
}

// TestBulkLoadBatchEquivalenceOracle is the bulk-vs-incremental
// equivalence property: the same logical content loaded through the
// batch path and through row-at-a-time transactions must produce equal
// row multisets (snapDigest) and byte-identical ORDER BY result streams across all
// three sort paths (full stable sort, bounded top-k, index-order scan).
func TestBulkLoadBatchEquivalenceOracle(t *testing.T) {
	build := func(bulk bool) *DB {
		db := newTestDB(t)
		mustCreateBulk(t, db)
		if err := db.CreateIndex("bulk", "id"); err != nil {
			t.Fatal(err)
		}
		rows := bulkRows(600)
		// Duplicate ids so the index-order path has tie groups, and
		// shuffle deterministically so the loads see unsorted input.
		for i := range rows {
			rows[i][0] = NewInt(int64(i % 53))
		}
		rand.New(rand.NewSource(42)).Shuffle(len(rows), func(i, j int) {
			rows[i], rows[j] = rows[j], rows[i]
		})
		if bulk {
			if _, err := db.BulkLoad(context.Background(), "bulk", rows); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, row := range rows {
				tx := db.Begin()
				if _, err := tx.Insert("bulk", row); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}
	bulkDB, rowDB := build(true), build(false)

	if bh, rh := snapDigest(t, bulkDB, "bulk"), snapDigest(t, rowDB, "bulk"); bh != rh {
		t.Fatalf("row multisets diverge: bulk digest %x vs row digest %x", bh, rh)
	}

	queries := []struct {
		sql      string
		wantPlan string // sort path the query must take
	}{
		{"SELECT id, grp, val FROM bulk ORDER BY val, id", "seq scan"},                // full stable sort
		{"SELECT id, grp, val FROM bulk ORDER BY val, id LIMIT 37 OFFSET 5", "top-k"}, // bounded heap
		{"SELECT id, grp, val FROM bulk ORDER BY id LIMIT 80", "index"},               // index-order scan
	}
	for _, q := range queries {
		brs := mustExec(t, bulkDB, q.sql)
		rrs := mustExec(t, rowDB, q.sql)
		if !strings.Contains(brs.Plan, q.wantPlan) {
			t.Fatalf("%q took plan %q, want a %q path", q.sql, brs.Plan, q.wantPlan)
		}
		if brs.Plan != rrs.Plan {
			t.Fatalf("%q: plan diverges bulk=%q row=%q", q.sql, brs.Plan, rrs.Plan)
		}
		if b, r := brs.String(), rrs.String(); b != r {
			t.Fatalf("%q: result streams diverge\nbulk:\n%s\nrow:\n%s", q.sql, b, r)
		}
	}
}

// TestBulkLoadMarkerPinStateIsPerPage pins the batch-marker contract: a
// loaded-but-unfenced table holds O(pages) version-store state, not
// O(rows); the empty-index snapshot compensation resolves loaded rows
// through the markers; and a post-load writer materializes a real chain
// from its marker so older snapshots keep the pre-update image.
func TestBulkLoadMarkerPinStateIsPerPage(t *testing.T) {
	db := newTestDB(t)
	mustCreateBulk(t, db)
	if err := db.CreateIndex("bulk", "id"); err != nil {
		t.Fatal(err)
	}

	pre := db.BeginSnapshot() // pins below every batch LSN
	defer pre.Close()

	bl, err := db.BeginBulkLoad("bulk")
	if err != nil {
		t.Fatal(err)
	}
	const nrows = 2000
	rows := bulkRows(nrows)
	work := rows
	for len(work) > 0 {
		n, err := bl.loadChunk(work)
		if err != nil {
			t.Fatal(err)
		}
		work = work[n:]
	}

	// Mid-load: no per-row chains, and the resident marker state is
	// bounded by the page count (dozens), not the row count (thousands).
	if n := db.vs.Chains(); n != 0 {
		t.Fatalf("mid-load: %d per-row chains, want 0 (markers replace them)", n)
	}
	pages := db.vs.BatchPages()
	if pages == 0 || pages >= nrows/10 {
		t.Fatalf("mid-load: %d marker pages for %d rows, want O(pages)", pages, nrows)
	}
	if v := db.vs.VersionCount(); v > 2*pages {
		t.Fatalf("mid-load: version population %d exceeds marker pages %d", v, pages)
	}

	// The deferred (still empty) index compensates through the markers:
	// a snapshot point lookup must find a loaded row.
	sn := db.BeginSnapshot()
	hits, err := sn.IndexLookup("bulk", "id", NewInt(417))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, rid := range hits {
		if tup, ok := sn.visibleTup(db.Table("bulk"), "bulk", rid); ok && tup[0].I == 417 {
			found++
		}
	}
	sn.Close()
	if found != 1 {
		t.Fatalf("empty-index compensation found id=417 %d times, want 1", found)
	}

	if _, err := bl.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The pre-load snapshot still pins the markers (it must keep reading
	// the rows as absent), so they survive the fence.
	if db.vs.BatchPages() == 0 {
		t.Fatalf("markers collected while a pre-load snapshot is open")
	}
	if n := 0; true {
		if err := pre.Scan("bulk", func(RID, Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("pre-load snapshot sees %d loaded rows through markers", n)
		}
	}

	// A writer updating a marker-covered row materializes its history
	// into a real chain; a snapshot from before the update keeps the
	// loaded image.
	mid := db.BeginSnapshot()
	defer mid.Close()
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE bulk SET val = 'rewritten' WHERE id = 417"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := mid.Scan("bulk", func(_ RID, tup Tuple) bool {
		if tup[0].I == 417 {
			got = tup[2].S
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := rows[417][2].S; got != want {
		t.Fatalf("pre-update snapshot reads %q, want loaded image %q", got, want)
	}

	// Closing the pinning snapshots lets the sweep drain everything.
	pre.Close()
	mid.Close()
	db.vs.Sweep()
	if n := db.vs.BatchPages(); n != 0 {
		t.Fatalf("%d marker pages left after pins closed", n)
	}
}

// TestBulkLoadConcurrentTables runs two bulk-load sessions into two
// different tables from two goroutines. The sessions hold per-table
// exclusive locks, so they must proceed concurrently and independently;
// a reader polling both tables must only ever observe whole-chunk
// prefixes growing monotonically.
func TestBulkLoadConcurrentTables(t *testing.T) {
	db := newTestDB(t)
	for _, name := range []string{"alpha", "beta"} {
		if err := db.CreateTable(TableSchema{Name: name, Columns: []ColumnDef{
			{Name: "id", Type: TInt},
			{Name: "grp", Type: TString},
			{Name: "val", Type: TString},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(name, "id"); err != nil {
			t.Fatal(err)
		}
	}

	const nrows = 1200
	load := func(table string) error {
		_, err := db.BulkLoad(context.Background(), table, bulkRows(nrows))
		return err
	}
	errs := make(chan error, 2)
	done := make(chan struct{})
	go func() { errs <- load("alpha") }()
	go func() { errs <- load("beta") }()

	// Concurrent reader: per-table counts only grow and never pass nrows.
	go func() {
		defer close(done)
		last := map[string]int{}
		for i := 0; i < 200; i++ {
			sn := db.BeginSnapshot()
			for _, name := range []string{"alpha", "beta"} {
				n := 0
				if err := sn.Scan(name, func(RID, Tuple) bool { n++; return true }); err != nil {
					t.Error(err)
				}
				if n < last[name] || n > nrows {
					t.Errorf("reader saw %s shrink or overflow: %d after %d", name, n, last[name])
				}
				last[name] = n
			}
			sn.Close()
		}
	}()

	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-done

	for _, name := range []string{"alpha", "beta"} {
		rs := mustExec(t, db, "SELECT COUNT(*) FROM "+name)
		if len(rs.Rows) != 1 || rs.Rows[0][0].I != nrows {
			t.Fatalf("%s has %v rows, want %d", name, rs.Rows, nrows)
		}
		idx := db.Table(name).Indexes["id"]
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if idx.Len() != nrows {
			t.Fatalf("%s index has %d entries, want %d", name, idx.Len(), nrows)
		}
	}
	db.vs.Sweep()
	if n, b := db.vs.Chains(), db.vs.BatchPages(); n != 0 || b != 0 {
		t.Fatalf("version store not drained after both loads: %d chains, %d marker pages", n, b)
	}
}

// --- Batch crash suite -------------------------------------------------

// bulkFaultRun records one bulk-load workload execution under fault
// injection: which whole-chunk row counts were durably acknowledged, and
// where a crash landed.
type bulkFaultRun struct {
	crashed    bool
	crashOp    int64
	stopErr    error
	closed     bool
	acked      int   // rows in durably acknowledged chunks
	boundaries []int // cumulative row count after each chunk commit
}

// runBulkFaultWorkload creates the table and index, then
// drives the bulk load chunk by chunk (so the oracle learns the durable
// whole-chunk boundaries) and fences with Commit. A scheduled crash is
// recovered and recorded.
func runBulkFaultWorkload(pageDev Device, walDev WALStore, inj *FaultInjector, rows []Tuple) (res bulkFaultRun) {
	defer func() {
		if r := recover(); r != nil {
			cs, ok := r.(CrashSignal)
			if !ok {
				panic(r)
			}
			res.crashed = true
			res.crashOp = cs.Op
		}
	}()
	pager, err := NewFaultPager(pageDev, inj)
	if err != nil {
		res.stopErr = err
		return
	}
	wal, err := NewFaultWAL(walDev, inj)
	if err != nil {
		res.stopErr = err
		return
	}
	db, err := Open(pager, wal, Options{BufferPages: 16})
	if err != nil {
		res.stopErr = err
		return
	}
	if err := db.CreateTable(TableSchema{Name: "bulk", Columns: []ColumnDef{
		{Name: "id", Type: TInt},
		{Name: "grp", Type: TString},
		{Name: "val", Type: TString},
	}}); err != nil {
		res.stopErr = err
		return
	}
	if err := db.CreateIndex("bulk", "id"); err != nil {
		res.stopErr = err
		return
	}
	bl, err := db.BeginBulkLoad("bulk")
	if err != nil {
		res.stopErr = err
		return
	}
	work := append([]Tuple(nil), rows...)
	for len(work) > 0 {
		n, err := bl.loadChunk(work)
		if err != nil {
			res.stopErr = err
			return
		}
		res.acked += n
		res.boundaries = append(res.boundaries, res.acked)
		work = work[n:]
	}
	if _, err := bl.Commit(context.Background()); err != nil {
		res.stopErr = err
		return
	}
	if err := db.Close(); err != nil {
		res.stopErr = err
		return
	}
	res.closed = true
	return
}

// verifyBulkFaultRun reopens cleanly and asserts all-or-nothing batch
// visibility: the recovered rows must be exactly the ids 0..n-1 for an n
// that is a whole-chunk boundary, covering at least every acknowledged
// chunk, each row exactly as loaded; the index must agree with the heap.
func verifyBulkFaultRun(t *testing.T, res bulkFaultRun, wantBoundaries []int, pageDev Device, walDev WALStore) {
	t.Helper()
	db, pager := reopenClean(t, pageDev, walDev)
	defer db.Close()
	if err := pager.VerifyChecksums(); err != nil {
		t.Fatalf("page checksums after recovery: %v", err)
	}
	tbl := db.Table("bulk")
	if tbl == nil {
		if res.acked != 0 {
			t.Fatalf("table lost but %d rows were acknowledged", res.acked)
		}
		return
	}
	seen := map[int64]bool{}
	tx := db.Begin()
	if err := tx.Scan("bulk", func(_ RID, tup Tuple) bool {
		if seen[tup[0].I] {
			t.Fatalf("duplicate id %d after recovery", tup[0].I)
		}
		seen[tup[0].I] = true
		if want := bulkRow(int(tup[0].I)); !tupleEqual(tup, want) {
			t.Fatalf("row id %d after recovery is %v, loaded as %v", tup[0].I, tup, want)
		}
		return true
	}); err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
	tx.Commit()
	n := len(seen)
	for i := 0; i < n; i++ {
		if !seen[int64(i)] {
			t.Fatalf("recovered %d rows but id %d missing: not a load-order prefix", n, i)
		}
	}
	if n < res.acked {
		t.Fatalf("recovered %d rows < %d acknowledged (durability lost)", n, res.acked)
	}
	whole := n == 0
	for _, b := range wantBoundaries {
		if n == b {
			whole = true
			break
		}
	}
	if !whole {
		t.Fatalf("recovered %d rows, not a whole-chunk boundary %v: batch visibility was not all-or-nothing", n, wantBoundaries)
	}

	// Derived state: the index (if its creation was durable) agrees with
	// the heap.
	if idx := tbl.Indexes["id"]; idx != nil {
		if err := idx.CheckInvariants(); err != nil {
			t.Fatalf("index invariants after recovery: %v", err)
		}
		if idx.Len() != n {
			t.Fatalf("index has %d entries for %d heap rows", idx.Len(), n)
		}
		if err := tbl.Heap.Scan(func(rid RID, tup Tuple) bool {
			got := idx.Lookup(tup[0])
			found := false
			for _, r := range got {
				if r == rid {
					found = true
				}
			}
			if !found {
				t.Fatalf("heap row id=%d at %v missing from index", tup[0].I, rid)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkLoadBatchCrashSuite kills the bulk-load workload at every
// mutating I/O — which lands kills inside the batch WAL record flush,
// inside the durable index build the fence writes, and before/inside the
// checkpoint fence — and asserts whole-chunk (all-or-nothing) visibility
// on every reopen.
func TestBulkLoadBatchCrashSuite(t *testing.T) {
	rows := bulkRows(400)

	// Fault-free dry run: learn the op count and chunk boundaries.
	dryInj := NewFaultInjector()
	dryPage, dryWAL := NewMemDevice(), NewMemWALStore()
	dry := runBulkFaultWorkload(dryPage, dryWAL, dryInj, rows)
	if dry.crashed || dry.stopErr != nil || !dry.closed {
		t.Fatalf("dry run did not complete: crashed=%v err=%v", dry.crashed, dry.stopErr)
	}
	if len(dry.boundaries) < 3 {
		t.Fatalf("want >=3 chunks, got boundaries %v", dry.boundaries)
	}
	verifyBulkFaultRun(t, dry, dry.boundaries, dryPage, dryWAL)
	total := dryInj.Ops()
	if total < 20 {
		t.Fatalf("suspiciously few injection points: %d", total)
	}

	step := int64(1)
	if testing.Short() {
		step = 5
	}
	kindRNG := rand.New(rand.NewSource(7919))
	for op := int64(0); op < total; op += step {
		kind := FaultCrash
		if kindRNG.Intn(3) == 0 {
			kind = FaultTornWrite
		}
		op := op
		t.Run(fmt.Sprintf("op=%d", op), func(t *testing.T) {
			inj := NewFaultInjector()
			inj.Schedule(op, kind)
			pageDev, walDev := NewMemDevice(), NewMemWALStore()
			res := runBulkFaultWorkload(pageDev, walDev, inj, rows)
			if res.stopErr != nil {
				t.Fatalf("op %d: unexpected workload error: %v", op, res.stopErr)
			}
			crashRNG := rand.New(rand.NewSource(op<<20 ^ 0x5bd1))
			pageDev.Crash(crashRNG)
			walDev.Crash(crashRNG)
			verifyBulkFaultRun(t, res, dry.boundaries, pageDev, walDev)
		})
	}
}

// BenchmarkBulkLoad prices the COPY-style batch load against durable
// row-at-a-time commits, each on a fresh on-disk table shaped like core's
// extracted table (both indexes). Compare
// the rows/s metric of the two sub-benchmarks; the batch side loads 1M
// rows per iteration in 50k-row slices.
func BenchmarkBulkLoad(b *testing.B) {
	b.Run("Batch1M", func(b *testing.B) {
		const rows, slice = 1_000_000, 50_000
		ctx := context.Background()
		buf := make([]Tuple, 0, slice)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			db := openExtractedDB(b, dir)
			b.StartTimer()
			bl, err := db.BeginBulkLoad("extracted")
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				buf = append(buf, extractedRow(r))
				if len(buf) == slice {
					if err := bl.Append(ctx, buf); err != nil {
						b.Fatal(err)
					}
					buf = buf[:0]
				}
			}
			if _, err := bl.Commit(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			os.RemoveAll(dir) // a 1M-row database per iteration adds up
			b.StartTimer()
		}
		b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("RowAtATime", func(b *testing.B) {
		db := openExtractedDB(b, b.TempDir())
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			if _, err := tx.Insert("extracted", extractedRow(i)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// openExtractedDB opens an on-disk database holding an empty table with
// core's extracted-table columns and indexes.
func openExtractedDB(b *testing.B, dir string) *DB {
	b.Helper()
	db, err := OpenDir(dir, Options{BufferPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "extracted", Columns: []ColumnDef{
		{Name: "entity", Type: TString}, {Name: "attribute", Type: TString},
		{Name: "qualifier", Type: TString}, {Name: "value", Type: TString},
		{Name: "num", Type: TFloat}, {Name: "conf", Type: TFloat},
	}}); err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"entity", "attribute"} {
		if err := db.CreateIndex("extracted", col); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// extractedRow is row i of the load: entity-contiguous runs of eight
// attributes, the order core's entity-keyed shuffle hands the loader.
func extractedRow(i int) Tuple {
	v := i % 997
	return Tuple{
		NewString(fmt.Sprintf("entity-%07d", i/8)), NewString(fmt.Sprintf("attr-%d", i%8)),
		NewString("bench"), NewString(strconv.Itoa(v)), NewFloat(float64(v)), NewFloat(0.9),
	}
}
