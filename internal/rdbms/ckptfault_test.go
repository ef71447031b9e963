package rdbms

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The concurrency-aware fault suite: committers AND a background fuzzy
// checkpointer run together against fault-injected devices, and the
// process is killed at every mutating I/O index in turn — so kill points
// land inside every window of the fuzzy checkpoint (page flushes, chain
// writes, the catalog write, each step of the WAL prefix truncation)
// while commits are genuinely in flight. After the kill, every other
// goroutine's next I/O also crashes (the injector models the whole
// process dying), the devices drop a random subset of unsynced writes,
// and a clean reopen is checked against a per-transaction oracle:
//
//   - acknowledged commits are fully visible, byte for byte;
//   - unacknowledged transactions are all-or-nothing (keys are unique
//     per transaction, so atomicity is directly observable);
//   - rows a transaction deleted before committing never resurface;
//   - no row the workload never wrote exists;
//   - the index agrees with the heap (the index-vs-heap oracle), page
//     checksums verify, and a second close/reopen round-trips the state.
//
// The CI crash-recovery job runs this file with -race -count=2.

// ckptFaultOutcome is the oracle's record of one transaction.
type ckptFaultOutcome struct {
	rows  map[int64]string // final state if the txn wins
	dead  []int64          // keys the txn inserted then deleted: never visible
	acked bool             // Commit returned nil before the kill
}

// ckptFaultTxn derives transaction t of worker g deterministically from
// the seed: two fresh keys, optionally an in-txn update of the first and
// an in-txn delete of the second.
func ckptFaultTxn(seed int64, g, t int) (keys [2]int64, vals [2]string, update, del bool) {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(g)<<10 ^ int64(t)))
	base := int64(g*1000+t) * 2
	keys = [2]int64{base, base + 1}
	vals = [2]string{
		fmt.Sprintf("s%d-w%d-t%d-a-%s", seed, g, t, pad(rng.Intn(220))),
		fmt.Sprintf("s%d-w%d-t%d-b-%s", seed, g, t, pad(rng.Intn(220))),
	}
	update = rng.Intn(3) == 0
	del = !update && rng.Intn(3) == 0
	return
}

// runCkptFaultWorkload executes the concurrent workload against the
// injected devices, returning the recorded outcomes. Scheduled crashes
// panic in whichever goroutine draws the fated I/O; each recovers its
// own CrashSignal and stops, modelling the process dying mid-flight.
func runCkptFaultWorkload(t *testing.T, seed int64, pageDev Device, walDev WALStore, inj *FaultInjector) []*ckptFaultOutcome {
	t.Helper()
	const (
		workers       = 3
		txnsPerWorker = 9
	)
	var mu sync.Mutex
	var outcomes []*ckptFaultOutcome

	db := func() (db *DB) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(CrashSignal); !ok {
					panic(r)
				}
				db = nil
			}
		}()
		pager, err := NewFaultPager(pageDev, inj)
		if err != nil {
			return nil
		}
		wal, err := NewFaultWAL(walDev, inj)
		if err != nil {
			return nil
		}
		d, err := Open(pager, wal, Options{BufferPages: 16})
		if err != nil {
			return nil // the kill (or its aftermath) landed in Open
		}
		if err := d.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
			{Name: "k", Type: TInt}, {Name: "v", Type: TString},
		}}); err != nil {
			return nil
		}
		if err := d.CreateIndex("kv", "k"); err != nil {
			return nil
		}
		return d
	}()
	if db == nil {
		return nil // crash predated the schema; nothing can have committed
	}

	stopCkpt := make(chan struct{})
	var wg, ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() { // the background fuzzy checkpointer
		defer ckptWG.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(CrashSignal); !ok {
					panic(r)
				}
			}
		}()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				if _, dead := inj.Crashed(); !dead && !errors.Is(err, ErrInjected) && !errors.Is(err, ErrWALPoisoned) {
					t.Errorf("seed %d: checkpoint failed without a crash: %v", seed, err)
				}
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			for i := 0; i < txnsPerWorker; i++ {
				keys, vals, update, del := ckptFaultTxn(seed, g, i)
				o := &ckptFaultOutcome{rows: map[int64]string{}}
				tx := db.Begin()
				rids := [2]RID{}
				ok := true
				for j := 0; j < 2; j++ {
					rid, err := tx.Insert("kv", Tuple{NewInt(keys[j]), NewString(vals[j])})
					if err != nil {
						tx.Abort()
						ok = false
						break
					}
					rids[j] = rid
					o.rows[keys[j]] = vals[j]
				}
				if ok && update {
					v2 := vals[0] + "-v2"
					if _, err := tx.Update("kv", rids[0], Tuple{NewInt(keys[0]), NewString(v2)}); err != nil {
						tx.Abort()
						ok = false
					} else {
						o.rows[keys[0]] = v2
					}
				}
				if ok && del {
					if err := tx.Delete("kv", rids[1]); err != nil {
						tx.Abort()
						ok = false
					} else {
						delete(o.rows, keys[1])
						o.dead = append(o.dead, keys[1])
					}
				}
				if !ok {
					continue // error-aborted: not acked, all-or-nothing still holds
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
				if err := tx.Commit(); err != nil {
					return // in doubt (poisoned WAL / injected aftermath)
				}
				mu.Lock()
				o.acked = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopCkpt)
	ckptWG.Wait()
	return outcomes
}

// verifyCkptFaultRun reopens cleanly and checks the oracle.
func verifyCkptFaultRun(t *testing.T, tag string, outcomes []*ckptFaultOutcome, pageDev Device, walDev WALStore) {
	t.Helper()
	db, pager := reopenClean(t, pageDev, walDev)
	if err := pager.VerifyChecksums(); err != nil {
		t.Fatalf("%s: checksums after recovery: %v", tag, err)
	}
	if db.Table("kv") == nil {
		for _, o := range outcomes {
			if o.acked {
				t.Fatalf("%s: table lost but txn %v was acknowledged", tag, o.rows)
			}
		}
		return
	}
	got := scanKV(t, db)
	known := map[int64]bool{}
	for _, o := range outcomes {
		present, total := 0, len(o.rows)
		for k, v := range o.rows {
			known[k] = true
			if gv, ok := got[k]; ok {
				if gv != v {
					t.Fatalf("%s: key %d recovered %q, want %q", tag, k, gv, v)
				}
				present++
			}
		}
		for _, k := range o.dead {
			known[k] = true
			if _, ok := got[k]; ok {
				t.Fatalf("%s: deleted key %d resurfaced after recovery", tag, k)
			}
		}
		if present != 0 && present != total {
			t.Fatalf("%s: transaction torn after recovery: %d of %d rows present (%v)", tag, present, total, o.rows)
		}
		if o.acked && present != total {
			t.Fatalf("%s: acknowledged transaction lost: %d of %d rows (%v)", tag, present, total, o.rows)
		}
	}
	for k := range got {
		if !known[k] {
			t.Fatalf("%s: key %d exists but no transaction wrote it", tag, k)
		}
	}
	verifyDerivedState(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", tag, err)
	}
	db2, pager2 := reopenClean(t, pageDev, walDev)
	if err := pager2.VerifyChecksums(); err != nil {
		t.Fatalf("%s: checksums after second reopen: %v", tag, err)
	}
	if got2 := scanKV(t, db2); !kvEqual(got2, got) {
		t.Fatalf("%s: state changed across clean close/reopen", tag)
	}
	verifyDerivedState(t, db2)
	db2.Close()
}

// TestFuzzyCheckpointCrashSuite kills the concurrent workload at every
// mutating I/O index (the count is taken from a fault-free dry run of
// the same seed) and verifies the oracle each time. Concurrency makes
// the op ordering nondeterministic run to run — which is the point: each
// kill index is a randomized-but-reproducible-in-spirit cut through the
// interleaving of commits and checkpoint I/O, and indexes drawn during a
// checkpoint's page flush, chain write, catalog write, or WAL truncation
// kill the process exactly there. Runs where the schedule ends before
// the fated index simply verify the completed-workload state.
func TestFuzzyCheckpointCrashSuite(t *testing.T) {
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	runs := 0
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dryInj := NewFaultInjector()
			dryPage, dryWAL := NewMemDevice(), NewMemWALStore()
			outcomes := runCkptFaultWorkload(t, seed, dryPage, dryWAL, dryInj)
			if _, dead := dryInj.Crashed(); dead {
				t.Fatal("dry run crashed with no fault scheduled")
			}
			verifyCkptFaultRun(t, "dry", outcomes, dryPage, dryWAL)
			total := dryInj.Ops()
			if total < 40 {
				t.Fatalf("dry run produced only %d injection points", total)
			}
			kindRNG := rand.New(rand.NewSource(seed * 6151))
			for op := int64(0); op < total; op++ {
				kind := FaultCrash
				if kindRNG.Intn(3) == 0 {
					kind = FaultTornWrite
				}
				inj := NewFaultInjector()
				inj.Schedule(op, kind)
				pageDev, walDev := NewMemDevice(), NewMemWALStore()
				outcomes := runCkptFaultWorkload(t, seed, pageDev, walDev, inj)
				crashRNG := rand.New(rand.NewSource(seed<<22 ^ op))
				pageDev.Crash(crashRNG)
				walDev.Crash(crashRNG)
				verifyCkptFaultRun(t, fmt.Sprintf("seed=%d op=%d", seed, op), outcomes, pageDev, walDev)
				runs++
			}
			t.Logf("seed %d: %d concurrent-checkpoint kill points", seed, total)
		})
	}
	if !testing.Short() && runs < 150 {
		t.Fatalf("concurrent checkpoint fault suite executed %d runs, want >= 150", runs)
	}
	t.Logf("fuzzy-checkpoint crash suite: %d injection runs with live committers", runs)
}
