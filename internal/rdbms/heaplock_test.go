package rdbms

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Regression for the tombstone-reuse concurrency gap: an insert must not
// reuse a tombstoned slot the deleting transaction still reserves. If it
// did, the deleter's abort would try to restore its row at the reused RID
// and collide with the newcomer.
func TestInsertSkipsLockedTombstoneSlot(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE kv (k INT, v STRING)")

	// Seed one committed row; remember its RID.
	seed := db.Begin()
	rid0, err := seed.Insert("kv", Tuple{NewInt(1), NewString("original")})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Txn A deletes the row and stays open: its reservation of rid0
	// outlives the tombstone.
	txA := db.Begin()
	if err := txA.Delete("kv", rid0); err != nil {
		t.Fatal(err)
	}

	// Txn B inserts concurrently. Without the reservation it would grab
	// rid0 (the only tombstone on a page with plenty of free space).
	txB := db.Begin()
	ridB, err := txB.Insert("kv", Tuple{NewInt(2), NewString("newcomer")})
	if err != nil {
		t.Fatal(err)
	}
	if ridB == rid0 {
		t.Fatalf("insert reused tombstoned slot %v still reserved by the deleting txn", rid0)
	}
	if err := txB.Commit(); err != nil {
		t.Fatal(err)
	}

	// A aborts: its undo must restore the original row at rid0.
	if err := txA.Abort(); err != nil {
		t.Fatalf("abort after concurrent insert: %v", err)
	}
	got := map[int64]string{}
	tx := db.Begin()
	if err := tx.Scan("kv", func(_ RID, tup Tuple) bool {
		got[tup[0].I] = tup[1].S
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	want := map[int64]string{1: "original", 2: "newcomer"}
	if len(got) != len(want) || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("after abort: got %v, want %v", got, want)
	}
}

// TestInsertReusesTombstoneAfterRelease: once the deleting transaction
// commits (releasing its reservations), the tombstoned slot is fair game
// again — reservations must not permanently retire slots.
func TestInsertReusesTombstoneAfterRelease(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE kv (k INT, v STRING)")
	seed := db.Begin()
	rid0, err := seed.Insert("kv", Tuple{NewInt(1), NewString("gone")})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	del := db.Begin()
	if err := del.Delete("kv", rid0); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	ins := db.Begin()
	rid1, err := ins.Insert("kv", Tuple{NewInt(2), NewString("recycled")})
	if err != nil {
		t.Fatal(err)
	}
	if rid1 != rid0 {
		t.Fatalf("expected tombstone reuse of %v, got %v", rid0, rid1)
	}
	if err := ins.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDeleteInsertChurn hammers the delete/insert interleaving
// under -race: each round a deleter holds its lock across a concurrent
// inserter's slot choice, then aborts. No abort may fail and the final
// state must contain exactly the survivors.
func TestConcurrentDeleteInsertChurn(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE kv (k INT, v STRING)")
	rids := map[int64]RID{}
	seed := db.Begin()
	for i := int64(0); i < 20; i++ {
		rid, err := seed.Insert("kv", Tuple{NewInt(i), NewString(fmt.Sprintf("seed-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 20; round++ {
		victim := round % 20
		txA := db.Begin()
		if err := txA.Delete("kv", rids[victim]); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			txB := db.Begin()
			if _, err := txB.Insert("kv", Tuple{NewInt(100 + round), NewString("churn")}); err != nil {
				txB.Abort()
				done <- err
				return
			}
			done <- txB.Commit()
		}()
		if err := <-done; err != nil {
			t.Fatalf("round %d: concurrent insert: %v", round, err)
		}
		if err := txA.Abort(); err != nil {
			t.Fatalf("round %d: abort: %v", round, err)
		}
	}
	n := 0
	tx := db.Begin()
	if err := tx.Scan("kv", func(RID, Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if n != 40 { // 20 seeds (all aborts restored) + 20 churn inserts
		t.Fatalf("final row count %d, want 40", n)
	}
}

// TestHeapPageLatchReadersVsWriters: readers and writers share one or two
// heap pages. Readers touch only stable rows — Txn.Get under row S locks,
// Snap.Get, and Snap.Scan — while writers insert, update (growing and
// shrinking the payload, so pages compact), delete and abort their own
// rows on the same pages. Row locks never conflict, so only the page latch
// stands between a reader decoding a page header and a writer rewriting
// it; under -race an unlatched read is a reported race. An aborter also
// deletes or shrinks one of the large stable rows, lets a filler commit
// rows onto the page, and aborts: the row must come back in place, so
// readers of it wait on its lock (Txn.Get) or resolve its chain (Snap).
// Every read must decode to the committed value, a snapshot must scan the
// same rows twice, and no abort may fail.
func TestHeapPageLatchReadersVsWriters(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE kv (k INT, v STRING)")
	const (
		stable  = 16
		large   = 4 // stable rows the aborter touches
		writers = 2
		readers = 2
		rounds  = 150
	)
	stableVal := func(k int64) string {
		if k < large {
			return fmt.Sprintf("stable-%d-%s", k, strings.Repeat("l", 600))
		}
		return fmt.Sprintf("stable-%d", k)
	}
	rids := make([]RID, stable)
	seed := db.Begin()
	for k := int64(0); k < stable; k++ {
		rid, err := seed.Insert("kv", Tuple{NewInt(k), NewString(stableVal(k))})
		if err != nil {
			t.Fatal(err)
		}
		rids[k] = rid
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	checkStable := func(k int64, tup Tuple, live bool) error {
		if !live || len(tup) != 2 || tup[0].I != k || tup[1].S != stableVal(k) {
			return fmt.Errorf("stable row %d read as %v (live=%v)", k, tup, live)
		}
		return nil
	}
	// snapRows scans every row visible to sn, checking the stable ones.
	snapRows := func(sn *Snap) (map[RID]string, error) {
		rows := map[RID]string{}
		var bad error
		err := sn.Scan("kv", func(rid RID, tup Tuple) bool {
			if k := tup[0].I; k < stable {
				bad = checkStable(k, tup, true)
			}
			rows[rid] = tup[1].S
			return bad == nil
		})
		if bad != nil {
			return nil, bad
		}
		if err == nil && len(rows) < stable {
			err = fmt.Errorf("snapshot scan saw %d rows, want >= %d", len(rows), stable)
		}
		return rows, err
	}

	errCh := make(chan error, writers+readers+1)
	var writersWG, readersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			var live []RID // this writer's committed rows, oldest first
			write := func(i int) error {
				k := int64(1000*(w+1) + i)
				tx := db.Begin()
				rid, err := tx.Insert("kv", Tuple{NewInt(k), NewString("w")})
				if err == nil {
					rid, err = tx.Update("kv", rid, Tuple{NewInt(k), NewString(strings.Repeat("x", 8+i%40))})
				}
				deleted := false
				if err == nil && i%3 == 0 {
					err, deleted = tx.Delete("kv", rid), true
				}
				retire := err == nil && len(live) > 3
				if retire {
					err = tx.Delete("kv", live[0])
				}
				if err != nil {
					tx.Abort()
					return err
				}
				if i%5 == 0 {
					return tx.Abort()
				}
				if err := tx.Commit(); err != nil {
					return err
				}
				if retire {
					live = live[1:]
				}
				if !deleted {
					live = append(live, rid)
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				if err := write(i); err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	writersWG.Add(1)
	go func() {
		defer writersWG.Done()
		fillVal := NewString(strings.Repeat("f", 400))
		abortOnce := func(i int) error {
			k := int64(i % large)
			tx := db.Begin()
			var err error
			if i%2 == 0 {
				err = tx.Delete("kv", rids[k])
			} else {
				_, err = tx.Update("kv", rids[k], Tuple{NewInt(k), NewString("s")})
			}
			if err != nil {
				tx.Abort()
				return err
			}
			fill := db.Begin()
			var fills []RID
			for j := 0; j < 3; j++ {
				rid, err := fill.Insert("kv", Tuple{NewInt(int64(100000 + 3*i + j)), fillVal})
				if err != nil {
					fill.Abort()
					tx.Abort()
					return err
				}
				fills = append(fills, rid)
			}
			if err := fill.Commit(); err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Abort(); err != nil {
				return fmt.Errorf("abort: %w", err)
			}
			clean := db.Begin()
			for _, rid := range fills {
				if err := clean.Delete("kv", rid); err != nil {
					clean.Abort()
					return err
				}
			}
			return clean.Commit()
		}
		for i := 0; i < rounds; i++ {
			if err := abortOnce(i); err != nil {
				errCh <- fmt.Errorf("aborter round %d: %w", i, err)
				return
			}
		}
	}()
	var stop atomic.Bool
	for r := 0; r < readers; r++ {
		r := r
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for i := 0; !stop.Load(); i++ {
				k := int64((r*7 + i) % stable)
				tx := db.Begin()
				tup, live, err := tx.Get("kv", rids[k])
				tx.Commit()
				if err == nil {
					err = checkStable(k, tup, live)
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d Txn.Get: %w", r, err)
					return
				}
				sn := db.BeginSnapshot()
				tup, live, err = sn.Get("kv", rids[k])
				if err == nil {
					err = checkStable(k, tup, live)
				}
				var first, second map[RID]string
				if err == nil {
					first, err = snapRows(sn)
				}
				if err == nil {
					second, err = snapRows(sn)
				}
				sn.Close()
				if err == nil && !reflect.DeepEqual(first, second) {
					err = fmt.Errorf("snapshot scan not repeatable: %d then %d rows", len(first), len(second))
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d Snap: %w", r, err)
					return
				}
			}
		}()
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if pages := db.Table("kv").Heap.Pages(); pages > 2 {
		t.Errorf("heap grew to %d pages; the test wants readers and writers on one or two", pages)
	}
}
