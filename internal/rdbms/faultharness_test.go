package rdbms

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The crash-recovery property suite. A seeded workload of interleaved
// transactions runs against simulated crash-prone disks (MemDevice under
// a FaultDevice for both the pager and the WAL); a dry run enumerates
// every mutating I/O, and the suite then re-runs the workload once per
// injection point, killing the process at exactly that I/O (sometimes
// tearing the in-flight WAL write), discarding a random subset of
// unsynced writes, reopening, and checking the recovered database
// against an in-memory oracle:
//
//   - every acknowledged commit is visible, byte for byte;
//   - no aborted or in-flight transaction's data survives;
//   - a transaction whose commit was in flight at the crash is either
//     fully present or fully absent (atomicity of the in-doubt case);
//   - every page checksum verifies;
//   - a second close → reopen round-trip preserves the state.

// faultRun is the oracle's record of one workload execution.
type faultRun struct {
	crashed bool
	crashOp int64
	stopErr error // first error observed; the workload stops issuing work
	closed  bool  // reached a clean db.Close

	committed map[int64]string   // acknowledged committed state by key
	maybe     map[int64]*string  // in-doubt txn's writes (commit in flight; nil = delete)
	history   map[int64][]string // every value any txn ever wrote per key
}

// runFaultWorkload executes the seeded workload against the given devices
// through the injector. It returns rather than panics on a scheduled
// crash, recording where the kill landed.
func runFaultWorkload(seed int64, pageDev Device, walDev WALStore, inj *FaultInjector) (res faultRun) {
	res.committed = map[int64]string{}
	res.history = map[int64][]string{}
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
	db, err := Open(pager, wal, Options{BufferPages: 4 + int(seed%11)})
	if err != nil {
		res.stopErr = err
		return
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		res.stopErr = err
		return
	}
	if err := db.CreateIndex("kv", "k"); err != nil {
		res.stopErr = err
		return
	}
	// Index checkpoints make the periodic Checkpoint/Close calls below write
	// chain pages, so the injector's op space now includes kill points
	// inside index-checkpoint writes too.

	rng := rand.New(rand.NewSource(seed))
	rids := map[int64]RID{} // committed-state RIDs only
	nTxns := 8 + rng.Intn(10)
	for i := 0; i < nTxns; i++ {
		tx := db.Begin()
		local := map[int64]*string{}
		txnRIDs := map[int64]RID{}
		rid := func(k int64) (RID, bool) {
			if r, ok := txnRIDs[k]; ok {
				return r, true
			}
			r, ok := rids[k]
			return r, ok
		}
		live := func(k int64) bool {
			if v, ok := local[k]; ok {
				return v != nil
			}
			_, ok := res.committed[k]
			return ok
		}
		ops := 1 + rng.Intn(9)
		for j := 0; j < ops; j++ {
			// Steal pressure: the tiny pool must write back dirty pages
			// carrying this transaction's uncommitted data, both through
			// eviction (values up to ~700 bytes over 28 keys overflow a
			// 4-14 frame pool) and through simulated background
			// writeback mid-transaction.
			if rng.Intn(8) == 0 {
				if err := db.bp.Flush(); err != nil {
					res.stopErr = err
					tx.Abort()
					return
				}
			}
			k := int64(rng.Intn(28))
			switch rng.Intn(3) {
			case 0: // insert or update
				v := fmt.Sprintf("s%d-t%d-o%d-%s", seed, i, j, pad(rng.Intn(700)))
				res.history[k] = append(res.history[k], v)
				if r, ok := rid(k); ok && live(k) {
					newRID, err := tx.Update("kv", r, Tuple{NewInt(k), NewString(v)})
					if err != nil {
						res.stopErr = err
						tx.Abort() // best effort; the txn is a loser either way
						return
					}
					txnRIDs[k] = newRID
				} else {
					r, err := tx.Insert("kv", Tuple{NewInt(k), NewString(v)})
					if err != nil {
						res.stopErr = err
						tx.Abort()
						return
					}
					txnRIDs[k] = r
				}
				vv := v
				local[k] = &vv
			case 1: // delete if live
				if r, ok := rid(k); ok && live(k) {
					if err := tx.Delete("kv", r); err != nil {
						res.stopErr = err
						tx.Abort()
						return
					}
					local[k] = nil
				}
			case 2: // read (exercises locks and page pins)
				if r, ok := rid(k); ok {
					if _, _, err := tx.Get("kv", r); err != nil {
						res.stopErr = err
						tx.Abort()
						return
					}
				}
			}
		}
		if rng.Intn(4) == 0 {
			if err := tx.Abort(); err != nil {
				res.stopErr = err
				return
			}
		} else {
			// The commit is in doubt from the moment we ask for it until
			// it is acknowledged.
			res.maybe = local
			if err := tx.Commit(); err != nil {
				res.stopErr = err
				return
			}
			res.maybe = nil
			for k, v := range local {
				if v == nil {
					delete(res.committed, k)
					delete(rids, k)
				} else {
					res.committed[k] = *v
					rids[k] = txnRIDs[k]
				}
			}
		}
		// Occasionally checkpoint (quiesced here by construction) or
		// flush dirty pages without checkpointing (background steal).
		if rng.Intn(6) == 0 {
			if err := db.Checkpoint(); err != nil {
				res.stopErr = err
				return
			}
		}
		if rng.Intn(3) == 0 {
			if err := db.bp.Flush(); err != nil {
				res.stopErr = err
				return
			}
		}
	}
	if err := db.Close(); err != nil {
		res.stopErr = err
		return
	}
	res.closed = true
	return
}

// reopenClean opens the database over the (post-crash) devices with no
// faults scheduled, as the next process start would.
func reopenClean(t *testing.T, pageDev Device, walDev WALStore) (*DB, *DevicePager) {
	t.Helper()
	pager, err := NewDevicePager(pageDev)
	if err != nil {
		t.Fatalf("reopening pager: %v", err)
	}
	wal, err := NewWALOn(walDev)
	if err != nil {
		t.Fatalf("reopening wal: %v", err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 64})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return db, pager
}

func scanKV(t *testing.T, db *DB) map[int64]string {
	t.Helper()
	got := map[int64]string{}
	tx := db.Begin()
	err := tx.Scan("kv", func(_ RID, tup Tuple) bool {
		if _, dup := got[tup[0].I]; dup {
			t.Fatalf("duplicate key %d after recovery", tup[0].I)
		}
		got[tup[0].I] = tup[1].S
		return true
	})
	if err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
	tx.Commit()
	return got
}

func applyLocal(base map[int64]string, local map[int64]*string) map[int64]string {
	out := make(map[int64]string, len(base))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range local {
		if v == nil {
			delete(out, k)
		} else {
			out[k] = *v
		}
	}
	return out
}

func kvEqual(a, b map[int64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// verifyFaultRun reopens cleanly and checks the oracle properties.
func verifyFaultRun(t *testing.T, res faultRun, pageDev Device, walDev WALStore) {
	t.Helper()
	db, pager := reopenClean(t, pageDev, walDev)
	if err := pager.VerifyChecksums(); err != nil {
		t.Fatalf("page checksums after recovery: %v", err)
	}
	if db.Table("kv") == nil {
		// The crash predated the table's durable creation; nothing can
		// have committed.
		if len(res.committed) != 0 {
			t.Fatalf("table lost but %d committed rows expected", len(res.committed))
		}
		return
	}
	got := scanKV(t, db)
	switch {
	case kvEqual(got, res.committed):
		// Exactly the acknowledged state.
	case res.maybe != nil && kvEqual(got, applyLocal(res.committed, res.maybe)):
		// The in-doubt commit survived whole — also correct.
	default:
		t.Fatalf("recovered state diverges from oracle\n got: %v\nwant: %v\nmaybe: %v",
			got, res.committed, res.maybe)
	}
	verifyDerivedState(t, db)
	// Close → reopen must round-trip the recovered state.
	if err := db.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	db2, pager2 := reopenClean(t, pageDev, walDev)
	if err := pager2.VerifyChecksums(); err != nil {
		t.Fatalf("page checksums after second reopen: %v", err)
	}
	if got2 := scanKV(t, db2); !kvEqual(got2, got) {
		t.Fatalf("state changed across clean close/reopen\nfirst:  %v\nsecond: %v", got, got2)
	}
	verifyDerivedState(t, db2)
	if err := db2.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// verifyDerivedState checks the structures recovery derives beyond the
// heap itself: the k index (whether bulk-loaded from a checkpoint chain,
// delta-adjusted from the WAL tail, or rebuilt after a stale/torn chain
// was rejected) must agree with the heap row for row. A stale or torn
// index checkpoint that slipped through validation would surface here as
// a lookup divergence.
func verifyDerivedState(t *testing.T, db *DB) {
	t.Helper()
	tbl := db.Table("kv")
	idx := tbl.Indexes["k"]
	if idx == nil {
		// The crash predated the index's durable creation: nothing
		// derived to check.
		return
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatalf("index invariants after recovery: %v", err)
	}
	heapRIDs := map[int64]map[RID]bool{}
	rows := 0
	err := tbl.Heap.Scan(func(rid RID, tup Tuple) bool {
		k := tup[0].I
		if heapRIDs[k] == nil {
			heapRIDs[k] = map[RID]bool{}
		}
		heapRIDs[k][rid] = true
		rows++
		return true
	})
	if err != nil {
		t.Fatalf("heap scan: %v", err)
	}
	if idx.Len() != rows {
		t.Fatalf("index has %d entries for %d heap rows", idx.Len(), rows)
	}
	for k, want := range heapRIDs {
		rids := idx.Lookup(NewInt(k))
		if len(rids) != len(want) {
			t.Fatalf("key %d: index posting size %d, heap rows %d", k, len(rids), len(want))
		}
		for _, r := range rids {
			if !want[r] {
				t.Fatalf("key %d: index points at %v which the heap does not hold", k, r)
			}
		}
	}
}

// dryRunOps executes the workload fault-free and returns the injection
// point count (plus the run for sanity checks).
func dryRunOps(t *testing.T, seed int64) int64 {
	t.Helper()
	inj := NewFaultInjector()
	pageDev, walDev := NewMemDevice(), NewMemWALStore()
	res := runFaultWorkload(seed, pageDev, walDev, inj)
	if res.crashed || res.stopErr != nil || !res.closed {
		t.Fatalf("dry run seed %d did not complete: crashed=%v err=%v", seed, res.crashed, res.stopErr)
	}
	verifyFaultRun(t, res, pageDev, walDev)
	return inj.Ops()
}

// TestCrashRecoveryPropertySuite kills the workload at every mutating
// I/O of every seed and verifies recovery each time. Across the seeds
// this is well over 200 distinct fault-injection runs (the count is
// asserted), each with its own randomized unsynced-write survival.
func TestCrashRecoveryPropertySuite(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	runs := 0
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			total := dryRunOps(t, seed)
			kindRNG := rand.New(rand.NewSource(seed * 7919))
			for op := int64(0); op < total; op++ {
				kind := FaultCrash
				if kindRNG.Intn(3) == 0 {
					kind = FaultTornWrite
				}
				inj := NewFaultInjector()
				inj.Schedule(op, kind)
				pageDev, walDev := NewMemDevice(), NewMemWALStore()
				res := runFaultWorkload(seed, pageDev, walDev, inj)
				if res.stopErr != nil {
					t.Fatalf("op %d: unexpected workload error: %v", op, res.stopErr)
				}
				crashRNG := rand.New(rand.NewSource(seed<<24 ^ op))
				pageDev.Crash(crashRNG)
				walDev.Crash(crashRNG)

				// Every few points, crash a second time during recovery
				// itself before the clean verify: recovery must be
				// idempotent under its own crashes.
				if res.crashed && op%4 == 0 {
					crashDuringRecovery(t, pageDev, walDev, int64(kindRNG.Intn(8)))
					pageDev.Crash(crashRNG)
					walDev.Crash(crashRNG)
				}
				verifyFaultRun(t, res, pageDev, walDev)
				runs++
			}
			t.Logf("seed %d: %d injection points", seed, total)
		})
	}
	// The floor guards against coverage silently collapsing. It was 700
	// under the copy-down truncation protocol; the segmented WAL's O(1)
	// truncation does far less I/O per checkpoint (and none at all until a
	// prefix segment seals), so the same workloads now expose ~530 kill
	// points.
	if !testing.Short() && runs < 450 {
		t.Fatalf("property suite executed %d fault-injection runs, want >= 450", runs)
	}
	t.Logf("crash-recovery property suite: %d fault-injection runs", runs)
}

// crashDuringRecovery attempts a faulted reopen that dies at recovery's
// op-th I/O. Reaching the scheduled crash is not guaranteed (recovery
// may need fewer ops); either way the devices are left for the caller to
// crash and verify.
func crashDuringRecovery(t *testing.T, pageDev Device, walDev WALStore, op int64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashSignal); !ok {
				panic(r)
			}
		}
	}()
	inj := NewFaultInjector()
	inj.Schedule(op, FaultCrash)
	pager, err := NewFaultPager(pageDev, inj)
	if err != nil {
		t.Fatalf("faulted reopen pager: %v", err)
	}
	wal, err := NewFaultWAL(walDev, inj)
	if err != nil {
		t.Fatalf("faulted reopen wal: %v", err)
	}
	if db, err := Open(pager, wal, Options{BufferPages: 64}); err == nil {
		// Recovery finished before the crash point: close out so the
		// caller's verify sees a consistent checkpointed state.
		db.Close()
	}
}

// TestFaultInjectedErrorsDoNotCorrupt fails a single I/O with an error
// (no crash) at a sample of injection points. The workload stops at the
// first error, the harness then crashes and reopens: an I/O error must
// never launder uncommitted data into the durable state.
func TestFaultInjectedErrorsDoNotCorrupt(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		total := dryRunOps(t, seed)
		for op := int64(0); op < total; op += 2 {
			seed, op := seed, op
			t.Run(fmt.Sprintf("seed=%d/op=%d", seed, op), func(t *testing.T) {
				inj := NewFaultInjector()
				inj.Schedule(op, FaultError)
				pageDev, walDev := NewMemDevice(), NewMemWALStore()
				res := runFaultWorkload(seed, pageDev, walDev, inj)
				if res.stopErr != nil && !errors.Is(res.stopErr, ErrInjected) {
					t.Fatalf("non-injected error: %v", res.stopErr)
				}
				crashRNG := rand.New(rand.NewSource(seed<<24 ^ op))
				pageDev.Crash(crashRNG)
				walDev.Crash(crashRNG)
				verifyFaultRun(t, res, pageDev, walDev)
			})
		}
	}
}

// TestFaultDroppedSync models a disk cache that acknowledges fsync
// without persisting, followed by a crash. Durability of commits that
// depended on the lie is impossible for any engine; what must still
// hold: recovery succeeds, checksums verify, and the surviving rows are
// values some transaction actually wrote (no invented or torn data).
func TestFaultDroppedSync(t *testing.T) {
	seeds := []int64{1, 2}
	for _, seed := range seeds {
		total := dryRunOps(t, seed)
		rng := rand.New(rand.NewSource(seed * 104729))
		for trial := 0; trial < 20; trial++ {
			dropAt := int64(rng.Intn(int(total)))
			crashAt := dropAt + 1 + int64(rng.Intn(int(total)))
			inj := NewFaultInjector()
			inj.Schedule(dropAt, FaultDropSync)
			inj.Schedule(crashAt, FaultCrash)
			pageDev, walDev := NewMemDevice(), NewMemWALStore()
			res := runFaultWorkload(seed, pageDev, walDev, inj)
			// A dropped sync scheduled on a write degrades to an error;
			// the workload stops, which is fine for this test.
			if res.stopErr != nil && !errors.Is(res.stopErr, ErrInjected) {
				t.Fatalf("seed %d trial %d: %v", seed, trial, res.stopErr)
			}
			crashRNG := rand.New(rand.NewSource(seed<<32 ^ dropAt<<16 ^ crashAt))
			pageDev.Crash(crashRNG)
			walDev.Crash(crashRNG)

			db, pager := reopenClean(t, pageDev, walDev)
			if err := pager.VerifyChecksums(); err != nil {
				t.Fatalf("checksums after lying-sync crash: %v", err)
			}
			if db.Table("kv") == nil {
				continue
			}
			got := scanKV(t, db)
			for k, v := range got {
				found := false
				for _, h := range res.history[k] {
					if h == v {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("seed %d trial %d: key %d holds %q, never written", seed, trial, k, v)
				}
			}
			db.Close()
		}
	}
}
