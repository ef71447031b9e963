package rdbms

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Group-commit tests: concurrent committers must amortize WAL fsyncs
// without weakening any durability guarantee. The crash tests kill the
// process inside group-commit batches — while a leader's batch write or
// sync is in flight with followers queued behind it — and verify
// per-transaction atomicity and acknowledged-commit durability after
// recovery, under -race (the CI crash-recovery job runs this file with
// -race -count=2).

// slowSyncDevice delays Sync so concurrent committers pile up behind the
// in-flight leader, making batching deterministic enough to assert on.
type slowSyncDevice struct {
	Device
	delay time.Duration
}

func (d *slowSyncDevice) Sync() error {
	time.Sleep(d.delay)
	return d.Device.Sync()
}

// slowSyncWALStore slows every segment device's Sync — the contended-disk
// model group commit amortizes against.
type slowSyncWALStore struct {
	WALStore
	delay time.Duration
}

func (s *slowSyncWALStore) OpenSegment(seq uint64) (Device, error) {
	dev, err := s.WALStore.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	return &slowSyncDevice{Device: dev, delay: s.delay}, nil
}

func openGroupCommitDB(t *testing.T, walDev WALStore) *DB {
	t.Helper()
	pager, err := NewDevicePager(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(walDev)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestGroupCommitSingletonOneSync: a lone committer still pays exactly
// one fsync per commit — group commit must not add latency (extra syncs)
// to the uncontended path.
func TestGroupCommitSingletonOneSync(t *testing.T) {
	walDev := NewMemWALStore()
	db := openGroupCommitDB(t, walDev)
	before := db.wal.Syncs()
	const commits = 20
	for i := 0; i < commits; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("kv", Tuple{NewInt(int64(i)), NewString("v")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.wal.Syncs() - before; got != commits {
		t.Fatalf("sequential commits used %d syncs, want exactly %d", got, commits)
	}
}

// TestGroupCommitAmortizesSyncs: N concurrent committers on a slow disk
// must share flush batches — total fsyncs well under total commits — and
// every acknowledged commit must be durable and visible after a crash
// that discards all unsynced state.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	walMem := NewMemWALStore()
	walDev := &slowSyncWALStore{WALStore: walMem, delay: 500 * time.Microsecond}
	db := openGroupCommitDB(t, walDev)
	before := db.wal.Syncs()

	const (
		workers          = 8
		commitsPerWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commitsPerWorker; i++ {
				k := int64(g*commitsPerWorker + i)
				tx := db.Begin()
				if _, err := tx.Insert("kv", Tuple{NewInt(k), NewString(fmt.Sprintf("w%d-%d", g, i))}); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(workers * commitsPerWorker)
	syncs := db.wal.Syncs() - before
	if syncs >= total/2 {
		t.Fatalf("group commit did not batch: %d syncs for %d concurrent commits", syncs, total)
	}
	t.Logf("%d commits amortized into %d WAL syncs (%.1f commits/sync)",
		total, syncs, float64(total)/float64(syncs))

	// Every commit was acknowledged, so every row must survive a crash
	// that keeps only synced bytes.
	walMem.Crash(nil)
	db2, _ := reopenClean(t, db.pager.(*DevicePager).dev, walMem)
	got := scanKV(t, db2)
	if len(got) != int(total) {
		t.Fatalf("recovered %d rows, want %d", len(got), total)
	}
}

// TestCommitReadYourWritesBehindPendingCommit: group commit can make a
// commit durable and published while an earlier-appended commit of the
// same flush batch is still pending, and a snapshot pins below every
// pending LSN. Commit must not acknowledge until that earlier commit
// resolves, or a snapshot begun right after the acknowledgement misses
// the acknowledged write.
func TestCommitReadYourWritesBehindPendingCommit(t *testing.T) {
	db := openGroupCommitDB(t, NewMemWALStore())
	defer db.Close()
	// The state an earlier committer is in while its flush is in flight:
	// commit record appended, LSN registered pending, nothing published.
	early := db.Begin()
	pending := db.vs.withPending(func() LSN {
		return db.wal.AppendEnd(&LogRecord{Kind: LogCommit, Txn: early.id})
	})

	type seen struct {
		rows int
		err  error
	}
	done := make(chan seen, 1)
	go func() {
		tx := db.Begin()
		if _, err := tx.Insert("kv", Tuple{NewInt(1), NewString("acked")}); err != nil {
			tx.Abort()
			done <- seen{err: err}
			return
		}
		if err := tx.Commit(); err != nil {
			done <- seen{err: err}
			return
		}
		sn := db.BeginSnapshot()
		defer sn.Close()
		n := 0
		err := sn.Scan("kv", func(RID, Tuple) bool { n++; return true })
		done <- seen{rows: n, err: err}
	}()

	// Release the earlier commit only once the later one is blocked behind
	// it — or has already returned, which is the bug.
	var got seen
	returned := false
	waitLocked(t, &db.vs.mu, func() bool {
		select {
		case got = <-done:
			returned = true
			return true
		default:
			return db.vs.awaiting > 0
		}
	})
	db.vs.cancelPending(pending)
	if !returned {
		got = <-done
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.rows != 1 {
		t.Fatalf("snapshot begun after Commit returned sees %d rows, want the acknowledged 1 (returned while an earlier commit was pending: %v)", got.rows, returned)
	}
	if err := early.Abort(); err != nil {
		t.Fatal(err)
	}
}

// gcOutcome records one transaction's fate in the concurrent crash test.
type gcOutcome struct {
	keys [2]int64
	vals [2]string
	// acked is set only after Commit returned nil — the durability
	// promise the oracle holds the engine to.
	acked bool
}

// TestGroupCommitCrashAtEveryWALIO runs concurrent committers against a
// fault-injected WAL device and kills the process at every WAL I/O index
// in turn — landing inside group-commit batches in every position: before
// the batch write, tearing it, during the sync. After the crash the
// devices are reopened cleanly and the oracle checks, per transaction,
// all-or-nothing visibility of its two rows, and for transactions whose
// Commit was acknowledged before the kill, full durable visibility.
func TestGroupCommitCrashAtEveryWALIO(t *testing.T) {
	const (
		workers        = 4
		txnsPerWorker  = 5
		maxKillPoints  = 60
		minAssertedRun = 20
	)
	runs := 0
	for op := int64(0); op < maxKillPoints; op++ {
		op := op
		kind := FaultCrash
		if op%3 == 1 {
			kind = FaultTornWrite
		}
		inj := NewFaultInjector()
		inj.Schedule(op, kind)
		pageDev := NewMemDevice()
		walDev := NewMemWALStore()
		// Setup may itself draw the fated I/O (the CreateTable checkpoint
		// flushes the WAL): a crash there is a valid — if boring — kill
		// point, verified like any other.
		db := func() (db *DB) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(CrashSignal); !ok {
						panic(r)
					}
					db = nil
				}
			}()
			pager, err := NewDevicePager(pageDev) // page side unfaulted: kills land in WAL I/O only
			if err != nil {
				t.Fatal(err)
			}
			wal, err := NewFaultWAL(walDev, inj)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Open(pager, wal, Options{BufferPages: 512})
			if err != nil {
				t.Fatalf("op %d: open: %v", op, err)
			}
			if err := d.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
				{Name: "k", Type: TInt}, {Name: "v", Type: TString},
			}}); err != nil {
				return nil // injected failure during DDL: nothing can commit
			}
			return d
		}()

		var mu sync.Mutex
		outcomes := make([]*gcOutcome, 0, workers*txnsPerWorker)
		if db != nil {
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A scheduled crash panics in whichever goroutine drew the
					// fated I/O; treat it as this worker's process-death and
					// stop. The WAL is poisoned for everyone else.
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(CrashSignal); !ok {
								panic(r)
							}
						}
					}()
					for i := 0; i < txnsPerWorker; i++ {
						base := int64(g*txnsPerWorker+i) * 2
						o := &gcOutcome{
							keys: [2]int64{base, base + 1},
							vals: [2]string{fmt.Sprintf("w%d-%d-a", g, i), fmt.Sprintf("w%d-%d-b", g, i)},
						}
						mu.Lock()
						outcomes = append(outcomes, o)
						mu.Unlock()
						tx := db.Begin()
						if _, err := tx.Insert("kv", Tuple{NewInt(o.keys[0]), NewString(o.vals[0])}); err != nil {
							tx.Abort()
							return
						}
						if _, err := tx.Insert("kv", Tuple{NewInt(o.keys[1]), NewString(o.vals[1])}); err != nil {
							tx.Abort()
							return
						}
						if err := tx.Commit(); err != nil {
							return // in doubt (poisoned WAL or injected error)
						}
						mu.Lock()
						o.acked = true
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
		}

		// The process is dead: unsynced bytes (partially) vanish.
		crashRNG := rand.New(rand.NewSource(op * 7919))
		pageDev.Crash(crashRNG)
		walDev.Crash(crashRNG)
		db2, pager2 := reopenClean(t, pageDev, walDev)
		if err := pager2.VerifyChecksums(); err != nil {
			t.Fatalf("op %d: checksums after recovery: %v", op, err)
		}
		if db2.Table("kv") == nil {
			continue // crash predated the table's durable creation
		}
		got := scanKV(t, db2)
		for _, o := range outcomes {
			_, ok0 := got[o.keys[0]]
			_, ok1 := got[o.keys[1]]
			if ok0 != ok1 {
				t.Fatalf("op %d: txn %v torn after recovery: key presence %v/%v", op, o.keys, ok0, ok1)
			}
			if ok0 && (got[o.keys[0]] != o.vals[0] || got[o.keys[1]] != o.vals[1]) {
				t.Fatalf("op %d: txn %v recovered wrong values", op, o.keys)
			}
			if o.acked && !ok0 {
				t.Fatalf("op %d: acknowledged commit %v lost", op, o.keys)
			}
		}
		db2.Close()
		runs++
	}
	if runs < minAssertedRun {
		t.Fatalf("only %d concurrent kill-point runs exercised, want >= %d", runs, minAssertedRun)
	}
	t.Logf("concurrent group-commit crash test: %d kill points verified", runs)
}
