package rdbms

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Fuzzy (non-quiescing) checkpoint tests: checkpoints run while
// transactions commit, bracket themselves with begin/end WAL records
// carrying the dirty-page table, and truncate the log at the
// min(recLSN, active-transaction firstLSN) horizon instead of resetting
// it.

// slowWriteDevice delays every WriteAt, stretching a checkpoint's page
// flush long enough that concurrent commits provably overlap it.
type slowWriteDevice struct {
	Device
	delay time.Duration
}

func (d *slowWriteDevice) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(d.delay)
	return d.Device.WriteAt(p, off)
}

// TestCommitProceedsDuringCheckpoint is the non-quiesce proof at test
// granularity (the DiskCommitDuringCheckpoint bench is the measured
// version): with page writes slowed to make the checkpoint take hundreds
// of milliseconds, a burst of commits must complete while the checkpoint
// is still in flight. Under the old quiesced protocol this test cannot
// pass — Checkpoint refused to run with active transactions at all, and
// its flush held the pool lock across the entire pass.
func TestCommitProceedsDuringCheckpoint(t *testing.T) {
	pageDev := &slowWriteDevice{Device: NewMemDevice(), delay: 2 * time.Millisecond}
	pager, err := NewDevicePager(pageDev)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(NewMemWALStore())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	// Dirty a few hundred pages so the checkpoint's flush takes ~2ms each.
	tx := db.Begin()
	for i := 0; i < 2000; i++ {
		if _, err := tx.Insert("kv", Tuple{NewInt(int64(i)), NewString(pad(400))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ckptDone := make(chan error, 1)
	go func() { ckptDone <- db.Checkpoint() }()

	// Commit while the checkpoint runs. Each commit needs only a WAL
	// append + sync (and occasionally a page pin), none of which the
	// fuzzy checkpoint blocks.
	const commits = 25
	start := time.Now()
	for i := 0; i < commits; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("kv", Tuple{NewInt(int64(100000 + i)), NewString("during")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d during checkpoint: %v", i, err)
		}
	}
	commitTime := time.Since(start)

	select {
	case err := <-ckptDone:
		// The checkpoint finished before all 25 commits did — with ~2000
		// dirty pages at 2ms per write that would mean the commits were
		// serialized behind it, which is exactly the stall this test
		// forbids.
		t.Fatalf("checkpoint finished before the commit burst (commits took %v, checkpoint err=%v): commits were stalled behind it", commitTime, err)
	default:
	}
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// All rows durable and consistent afterwards.
	tx2 := db.Begin()
	n := 0
	tx2.Scan("kv", func(RID, Tuple) bool { n++; return true })
	tx2.Commit()
	if n != 2000+commits {
		t.Fatalf("rows after concurrent checkpoint: %d, want %d", n, 2000+commits)
	}
}

// TestCheckpointRecordPairCarriesDPT: a checkpoint taken with an active
// transaction leaves its begin/end record pair in the log (the horizon
// cannot pass the active txn's BEGIN), the begin record's payload decodes
// to the dirty-page table and the active-transaction list, and the pair
// is properly bracketed.
func TestCheckpointRecordPairCarriesDPT(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	held := db.Begin()
	if _, err := held.Insert("cities", Tuple{NewString("x"), NewString("YY"), NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err := db.wal.Records(db.wal.Base())
	if err != nil {
		t.Fatal(err)
	}
	// Earlier checkpoints (the DDL fences) also left record pairs in the
	// log — segment-granular truncation keeps them until a whole prefix
	// segment seals — so only the LAST pair is the one taken with the held
	// transaction active.
	beginIdx, endIdx := -1, -1
	for i, r := range recs {
		switch r.Kind {
		case LogCheckpointBegin:
			beginIdx = i
		case LogCheckpointEnd:
			endIdx = i
		}
	}
	if beginIdx < 0 || endIdx < 0 || endIdx < beginIdx {
		t.Fatalf("checkpoint records not bracketed: begin=%d end=%d", beginIdx, endIdx)
	}
	dpt, active, err := decodeCheckpointInfo(recs[beginIdx].Data)
	if err != nil {
		t.Fatalf("begin-checkpoint payload: %v", err)
	}
	if _, ok := active[held.ID()]; !ok {
		t.Fatalf("active txn %d missing from checkpoint record (got %v)", held.ID(), active)
	}
	if len(dpt) == 0 {
		t.Fatal("expected a non-empty dirty-page table (held txn dirtied a page)")
	}
	if err := held.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHorizonBoundedByActiveTxn: the WAL keeps every record an
// active transaction might need for rollback; once the transaction
// resolves, the next checkpoint reclaims every sealed prefix segment.
func TestCheckpointHorizonBoundedByActiveTxn(t *testing.T) {
	walDev := NewMemWALStore()
	wal, err := NewWALOn(walDev)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments so the workload seals many and truncation has
	// segment boundaries to work with.
	wal.SetSegmentTarget(256)
	db, err := Open(NewMemPager(), wal, Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	held := db.Begin()
	if _, err := held.Insert("t", Tuple{NewInt(-1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("t", Tuple{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if base := db.wal.Base(); base > held.firstLSN {
		t.Fatalf("horizon %d passed active txn firstLSN %d", base, held.firstLSN)
	}
	// The held txn's records must still be readable for rollback.
	recs, err := db.wal.Records(held.firstLSN)
	if err != nil {
		t.Fatal(err)
	}
	foundBegin := false
	for _, r := range recs {
		if r.Kind == LogBegin && r.Txn == held.ID() {
			foundBegin = true
		}
	}
	if !foundBegin {
		t.Fatal("active txn's BEGIN record truncated away")
	}
	if err := held.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := wal.SegmentCount(); n != 1 {
		t.Fatalf("idle checkpoint left %d segments, want 1 (every sealed prefix segment reclaimed)", n)
	}
	// LSNs stay monotonic across the truncation: the next record's LSN
	// continues past everything ever logged.
	before := db.wal.FlushedLSN()
	tx := db.Begin()
	if tx.firstLSN < before {
		t.Fatalf("LSN rewound after truncation: %d < %d", tx.firstLSN, before)
	}
	tx.Commit()
}

// buildSegmentedWAL appends n records with a flush (and therefore a
// possible rotation) after each, so the log spans many small segments.
func buildSegmentedWAL(t *testing.T, target int64, n int) (*MemWALStore, *WAL, []LSN) {
	t.Helper()
	store := NewMemWALStore()
	w, err := NewWALOn(store)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSegmentTarget(target)
	var lsns []LSN
	for i := 0; i < n; i++ {
		lsns = append(lsns, w.Append(&LogRecord{Kind: LogInsert, Txn: TxnID(i), Table: "t",
			Row: RID{Page: 1, Slot: uint16(i)}, After: Tuple{NewInt(int64(i))}}))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return store, w, lsns
}

// TestWALSegmentTruncationCrashSafety exercises TruncateTo's
// manifest-swap protocol directly at every interruption point: schedule
// a crash at each I/O of a truncation over a many-segment log, then
// crash-rewind the store adversarially (every unsynced directory op
// lost) and assert the surviving records are intact with their original
// LSNs — whether the reopen finds the old manifest over intact files,
// the new manifest over not-yet-removed orphans, or the finished log.
func TestWALSegmentTruncationCrashSafety(t *testing.T) {
	const records = 40
	const keepFrom = 30
	// Count the truncation's I/O ops with a fault-free injector pass.
	store, _, lsns := buildSegmentedWAL(t, 128, records)
	horizon := lsns[keepFrom]
	inj := NewFaultInjector()
	fw, err := NewWALOn(NewFaultWALStore(store, inj))
	if err != nil {
		t.Fatal(err)
	}
	opsBefore := inj.Ops()
	if err := fw.TruncateTo(horizon); err != nil {
		t.Fatal(err)
	}
	total := inj.Ops() - opsBefore
	if total < 4 {
		t.Fatalf("truncation used only %d ops; protocol missing steps?", total)
	}
	verify := func(store *MemWALStore, lsns []LSN, horizon LSN, tag string) {
		w, err := NewWALOn(store)
		if err != nil {
			t.Fatalf("%s: reopen: %v", tag, err)
		}
		recs, err := w.Records(horizon)
		if err != nil {
			t.Fatalf("%s: records: %v", tag, err)
		}
		if len(recs) != records-keepFrom {
			t.Fatalf("%s: %d surviving records, want %d", tag, len(recs), records-keepFrom)
		}
		for i, r := range recs {
			if r.LSN != lsns[keepFrom+i] || r.Txn != TxnID(keepFrom+i) {
				t.Fatalf("%s: record %d has LSN %d txn %d, want LSN %d txn %d",
					tag, i, r.LSN, r.Txn, lsns[keepFrom+i], keepFrom+i)
			}
		}
		// The log must keep working: append + flush + read back.
		newLSN := w.Append(&LogRecord{Kind: LogCommit, Txn: 999})
		if newLSN < lsns[records-1] {
			t.Fatalf("%s: post-truncation LSN %d rewound below %d", tag, newLSN, lsns[records-1])
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: flush after reopen: %v", tag, err)
		}
	}
	for op := int64(0); op < total; op++ {
		store, w, lsns := buildSegmentedWAL(t, 128, records)
		_ = w
		inj := NewFaultInjector()
		fw, err := NewWALOn(NewFaultWALStore(store, inj))
		if err != nil {
			t.Fatal(err)
		}
		skip := inj.Ops() // open may have consumed ops (none expected, but robust)
		inj.Schedule(skip+op, FaultCrash)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			fw.TruncateTo(lsns[keepFrom])
		}()
		store.Crash(nil) // drop every unsynced dir op and byte: the adversarial case
		verify(store, lsns, lsns[keepFrom], fmt.Sprintf("crash@%d", op))
	}
}

// TestWALSegmentGranularTruncation: deletion is whole-segment only. A
// horizon inside the only segment reclaims nothing (and must be a clean
// no-op); once the log spans segments, truncation advances the base to
// the greatest segment boundary at or below the horizon — never past it.
func TestWALSegmentGranularTruncation(t *testing.T) {
	store := NewMemWALStore()
	w, err := NewWALOn(store)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	for i := 0; i < 8; i++ {
		lsns = append(lsns, w.Append(&LogRecord{Kind: LogInsert, Txn: TxnID(i), Table: "t",
			Row: RID{Page: 1, Slot: uint16(i)}, After: Tuple{NewInt(int64(i))}}))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := store.DiskBytes()
	// Mid-segment horizon with one segment: nothing to delete.
	if err := w.TruncateTo(lsns[4]); err != nil {
		t.Fatal(err)
	}
	if base := w.Base(); base != 0 {
		t.Fatalf("mid-segment truncation moved the base to %d; must be a no-op", base)
	}
	if size := store.DiskBytes(); size != sizeBefore {
		t.Fatalf("mid-segment truncation touched the store (%d -> %d bytes)", sizeBefore, size)
	}
	recs, err := w.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("%d records after no-op truncation, want 8", len(recs))
	}
	// Rotate into many small segments; now truncation has boundaries.
	w.SetSegmentTarget(128)
	for i := 8; i < 30; i++ {
		lsns = append(lsns, w.Append(&LogRecord{Kind: LogCommit, Txn: TxnID(i)}))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 3 {
		t.Fatalf("rotation did not happen: %d segments", w.SegmentCount())
	}
	if err := w.TruncateTo(lsns[28]); err != nil {
		t.Fatal(err)
	}
	base := w.Base()
	if base == 0 || base > lsns[28] {
		t.Fatalf("truncation base %d not in (0, horizon %d]", base, lsns[28])
	}
	recs, err = w.Records(lsns[28])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records at or past the horizon, want 2", len(recs))
	}
	if recs[0].LSN != lsns[28] || recs[1].LSN != lsns[29] {
		t.Fatalf("surviving records carry LSNs %d,%d; want %d,%d", recs[0].LSN, recs[1].LSN, lsns[28], lsns[29])
	}
}

// TestWALTruncationErrorIsRecoverable: unlike the retired copy-down
// protocol (where a mid-protocol error left the base/physical mapping
// unreliable and poisoned the WAL), a clean error during the manifest
// swap leaves both the old and new manifest describing a consistent log
// — the WAL keeps serving, and a later truncation succeeds.
func TestWALTruncationErrorIsRecoverable(t *testing.T) {
	store, _, lsns := buildSegmentedWAL(t, 128, 40)
	inj := NewFaultInjector()
	w, err := NewWALOn(NewFaultWALStore(store, inj))
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first truncation I/O (the manifest swap) cleanly.
	inj.Schedule(inj.Ops(), FaultError)
	if err := w.TruncateTo(lsns[30]); err == nil {
		t.Fatal("truncation with injected error must fail")
	}
	if base := w.Base(); base != 0 {
		t.Fatalf("failed truncation advanced the base to %d", base)
	}
	// Not poisoned: appends, flushes, and reads keep working.
	w.Append(&LogRecord{Kind: LogCommit, Txn: 999})
	if err := w.Flush(); err != nil {
		t.Fatalf("WAL unusable after clean truncation error: %v", err)
	}
	recs, err := w.Records(lsns[30])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("%d records past the horizon after failed truncation, want 11", len(recs))
	}
	// The retry (no fault armed) reclaims the prefix.
	if err := w.TruncateTo(lsns[30]); err != nil {
		t.Fatal(err)
	}
	if base := w.Base(); base == 0 || base > lsns[30] {
		t.Fatalf("retried truncation base %d not in (0, horizon %d]", base, lsns[30])
	}
}

// TestDroppedTableRecordsDoNotReplayIntoNewIncarnation: with fuzzy
// checkpoints a long-running transaction holds the WAL-truncation
// horizon back across a DROP TABLE + CREATE TABLE of the same name, so
// the old incarnation's records survive in the log. Recovery must fence
// them out via the table's birth LSN — replaying them would write ghost
// rows into (and adopt the dropped incarnation's pages into) the new
// table.
func TestDroppedTableRecordsDoNotReplayIntoNewIncarnation(t *testing.T) {
	pageDev, walDev := NewMemDevice(), NewMemWALStore()
	pager, err := NewDevicePager(pageDev)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(walDev)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pin", "kv"} {
		if err := db.CreateTable(TableSchema{Name: name, Columns: []ColumnDef{
			{Name: "k", Type: TInt}, {Name: "v", Type: TString},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// The horizon holder: begins first, stays open across the DDL.
	holder := db.Begin()
	if _, err := holder.Insert("pin", Tuple{NewInt(0), NewString("pin")}); err != nil {
		t.Fatal(err)
	}
	// Old incarnation content, committed and durable.
	tx := db.Begin()
	for i := 0; i < 20; i++ {
		if _, err := tx.Insert("kv", Tuple{NewInt(int64(i)), NewString("old-incarnation")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	// The DDL checkpoints could not truncate past the holder's BEGIN, so
	// the old incarnation's records are still in the log.
	if base := db.wal.Base(); base > holder.firstLSN {
		t.Fatalf("precondition: horizon %d passed holder firstLSN %d", base, holder.firstLSN)
	}
	tx2 := db.Begin()
	if _, err := tx2.Insert("kv", Tuple{NewInt(100), NewString("new-incarnation")}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash with the holder unresolved; only synced bytes survive.
	pageDev.Crash(nil)
	walDev.Crash(nil)
	re, pager2 := reopenClean(t, pageDev, walDev)
	if err := pager2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	got := scanKV(t, re)
	if len(got) != 1 || got[100] != "new-incarnation" {
		t.Fatalf("recreated table holds %v after recovery; old incarnation's records leaked past its birth LSN", got)
	}
	re.Close()
}

// TestCheckpointConcurrentWithCommitters hammers Checkpoint from one
// goroutine while committers run in others (race detector coverage for
// every fuzzy-checkpoint path), then verifies full consistency.
func TestCheckpointConcurrentWithCommitters(t *testing.T) {
	pager, err := NewDevicePager(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(NewMemWALStore())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("kv", "k"); err != nil {
		t.Fatal(err)
	}
	const (
		workers       = 4
		txnsPerWorker = 30
	)
	stop := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	var ckptRuns int
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
			ckptRuns++
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPerWorker; i++ {
				k := int64(g*txnsPerWorker + i)
				tx := db.Begin()
				if _, err := tx.Insert("kv", Tuple{NewInt(k), NewString(fmt.Sprintf("w%d-%d", g, i))}); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if i%5 == 4 {
					tx.Abort() // aborts interleaved with checkpoints too
					continue
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	ckptWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ckptRuns == 0 {
		t.Fatal("checkpointer never ran")
	}
	want := map[int64]string{}
	for g := 0; g < workers; g++ {
		for i := 0; i < txnsPerWorker; i++ {
			if i%5 != 4 {
				want[int64(g*txnsPerWorker+i)] = fmt.Sprintf("w%d-%d", g, i)
			}
		}
	}
	if got := scanKV(t, db); !kvEqual(got, want) {
		t.Fatalf("rows after concurrent checkpoints: %d rows, want exactly the %d committed ones\n got: %v", len(got), len(want), got)
	}
	verifyDerivedState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d checkpoints interleaved with %d txns", ckptRuns, workers*txnsPerWorker)
}
