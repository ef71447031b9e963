package rdbms

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// Seed-reproducible soak: a randomized workload runs against an
// in-memory shadow model while a background goroutine checkpoints
// continuously, and the database is closed and reopened between phases.
// After every phase the full ORDER BY query result must be byte-for-byte
// identical to what the shadow predicts, and the derived state (the
// index) must agree with the heap. Every failure message carries
// the seed: rerun with that seed to reproduce the exact op sequence.

func TestSoakCheckpointerReopen(t *testing.T) {
	seeds := []int64{21, 22, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSoak(t, seed)
		})
	}
}

func runSoak(t *testing.T, seed int64) {
	pageDev, walDev := NewMemDevice(), NewMemWALStore()
	shadow := map[int64]string{}
	rids := map[int64]RID{}
	rng := rand.New(rand.NewSource(seed))

	const phases = 5
	for phase := 0; phase < phases; phase++ {
		pager, err := NewDevicePager(pageDev)
		if err != nil {
			t.Fatalf("seed %d phase %d: pager: %v", seed, phase, err)
		}
		wal, err := NewWALOn(walDev)
		if err != nil {
			t.Fatalf("seed %d phase %d: wal: %v", seed, phase, err)
		}
		db, err := Open(pager, wal, Options{BufferPages: 12 + int(seed%7)})
		if err != nil {
			t.Fatalf("seed %d phase %d: open: %v", seed, phase, err)
		}
		if phase == 0 {
			if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
				{Name: "k", Type: TInt}, {Name: "v", Type: TString},
			}}); err != nil {
				t.Fatalf("seed %d: create: %v", seed, err)
			}
			if err := db.CreateIndex("kv", "k"); err != nil {
				t.Fatalf("seed %d: index: %v", seed, err)
			}
		}

		// Background checkpointer: fuzzy checkpoints race the workload.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Checkpoint(); err != nil {
					t.Errorf("seed %d phase %d: background checkpoint: %v", seed, phase, err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()

		nTxns := 25 + rng.Intn(20)
		for i := 0; i < nTxns; i++ {
			tx := db.Begin()
			local := map[int64]*string{}
			localRIDs := map[int64]RID{}
			ops := 1 + rng.Intn(6)
			for j := 0; j < ops; j++ {
				k := int64(rng.Intn(40))
				live := func() bool {
					if v, ok := local[k]; ok {
						return v != nil
					}
					_, ok := shadow[k]
					return ok
				}()
				rid, haveRID := localRIDs[k]
				if !haveRID {
					rid, haveRID = rids[k]
				}
				switch {
				case live && rng.Intn(3) == 0: // delete
					if err := tx.Delete("kv", rid); err != nil {
						t.Fatalf("seed %d phase %d txn %d: delete: %v", seed, phase, i, err)
					}
					local[k] = nil
				case live: // update
					v := fmt.Sprintf("s%d-p%d-t%d-o%d-%s", seed, phase, i, j, pad(rng.Intn(250)))
					newRID, err := tx.Update("kv", rid, Tuple{NewInt(k), NewString(v)})
					if err != nil {
						t.Fatalf("seed %d phase %d txn %d: update: %v", seed, phase, i, err)
					}
					localRIDs[k] = newRID
					vv := v
					local[k] = &vv
				default: // insert
					v := fmt.Sprintf("s%d-p%d-t%d-o%d-%s", seed, phase, i, j, pad(rng.Intn(250)))
					newRID, err := tx.Insert("kv", Tuple{NewInt(k), NewString(v)})
					if err != nil {
						t.Fatalf("seed %d phase %d txn %d: insert: %v", seed, phase, i, err)
					}
					localRIDs[k] = newRID
					vv := v
					local[k] = &vv
				}
			}
			if rng.Intn(5) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatalf("seed %d phase %d txn %d: abort: %v", seed, phase, i, err)
				}
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("seed %d phase %d txn %d: commit: %v", seed, phase, i, err)
			}
			for k, v := range local {
				if v == nil {
					delete(shadow, k)
					delete(rids, k)
				} else {
					shadow[k] = *v
					rids[k] = localRIDs[k]
				}
			}
		}
		close(stop)
		wg.Wait()

		// Byte-identical query results against the shadow model, through
		// the SQL path (index-order scan or sort — both must agree).
		rs, err := db.Exec("SELECT k, v FROM kv ORDER BY k")
		if err != nil {
			t.Fatalf("seed %d phase %d: query: %v", seed, phase, err)
		}
		keys := make([]int64, 0, len(shadow))
		for k := range shadow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(rs.Rows) != len(keys) {
			t.Fatalf("seed %d phase %d: query returned %d rows, shadow has %d", seed, phase, len(rs.Rows), len(keys))
		}
		for i, k := range keys {
			row := rs.Rows[i]
			if row[0].I != k || row[1].S != shadow[k] {
				t.Fatalf("seed %d phase %d row %d: got (%d,%q), shadow (%d,%q)",
					seed, phase, i, row[0].I, row[1].S, k, shadow[k])
			}
		}
		verifyDerivedState(t, db)
		if err := db.Close(); err != nil {
			t.Fatalf("seed %d phase %d: close: %v", seed, phase, err)
		}
		if err := pager.VerifyChecksums(); err != nil {
			t.Fatalf("seed %d phase %d: checksums: %v", seed, phase, err)
		}
	}
}
