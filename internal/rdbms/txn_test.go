package rdbms

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(NewMemPager(), NewMemWAL(), Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustCreateCities(t *testing.T, db *DB) {
	t.Helper()
	err := db.CreateTable(TableSchema{Name: "cities", Columns: []ColumnDef{
		{Name: "name", Type: TString},
		{Name: "state", Type: TString},
		{Name: "pop", Type: TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxnInsertGetCommit(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	rid, err := tx.Insert("cities", Tuple{NewString("Madison"), NewString("WI"), NewInt(233209)})
	if err != nil {
		t.Fatal(err)
	}
	got, live, err := tx.Get("cities", rid)
	if err != nil || !live {
		t.Fatalf("get: %v %v", live, err)
	}
	if got[0].S != "Madison" {
		t.Fatalf("got %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible to a new transaction.
	tx2 := db.Begin()
	got, live, _ = tx2.Get("cities", rid)
	if !live || got[2].I != 233209 {
		t.Fatalf("post-commit get: %v %v", got, live)
	}
	tx2.Commit()
}

func TestTxnAbortRollsBack(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	rid, _ := tx.Insert("cities", Tuple{NewString("Ghost"), NewString("XX"), NewInt(1)})
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	_, live, _ := tx2.Get("cities", rid)
	if live {
		t.Fatal("aborted insert still visible")
	}
	n := 0
	tx2.Scan("cities", func(RID, Tuple) bool { n++; return true })
	if n != 0 {
		t.Fatalf("table should be empty, has %d rows", n)
	}
	tx2.Commit()
}

func TestTxnAbortRestoresUpdateAndDelete(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	r1, _ := tx.Insert("cities", Tuple{NewString("A"), NewString("WI"), NewInt(10)})
	r2, _ := tx.Insert("cities", Tuple{NewString("B"), NewString("WI"), NewInt(20)})
	tx.Commit()

	tx2 := db.Begin()
	if _, err := tx2.Update("cities", r1, Tuple{NewString("A"), NewString("WI"), NewInt(999)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete("cities", r2); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	tx3 := db.Begin()
	got, live, _ := tx3.Get("cities", r1)
	if !live || got[2].I != 10 {
		t.Fatalf("update not rolled back: %v", got)
	}
	got, live, _ = tx3.Get("cities", r2)
	if !live || got[2].I != 20 {
		t.Fatalf("delete not rolled back: %v live=%v", got, live)
	}
	tx3.Commit()
}

func TestTxnDoneErrors(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	tx.Commit()
	if _, err := tx.Insert("cities", Tuple{NewString("x"), NewString("y"), NewInt(1)}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("expected ErrTxnDone, got %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestTxnSchemaValidation(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Insert("cities", Tuple{NewInt(1), NewString("y"), NewInt(1)}); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := tx.Insert("cities", Tuple{NewString("x")}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := tx.Insert("nope", Tuple{NewString("x")}); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestTxnIndexMaintenance(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	if err := db.CreateIndex("cities", "pop"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	r1, _ := tx.Insert("cities", Tuple{NewString("A"), NewString("WI"), NewInt(100)})
	tx.Insert("cities", Tuple{NewString("B"), NewString("WI"), NewInt(200)})
	tx.Commit()

	tx2 := db.Begin()
	rids, err := tx2.IndexLookup("cities", "pop", NewInt(100))
	if err != nil || len(rids) != 1 || rids[0] != r1 {
		t.Fatalf("index lookup: %v %v", rids, err)
	}
	// Update moves the index entry.
	tx2.Update("cities", r1, Tuple{NewString("A"), NewString("WI"), NewInt(150)})
	tx2.Commit()
	tx3 := db.Begin()
	if rids, _ := tx3.IndexLookup("cities", "pop", NewInt(100)); len(rids) != 0 {
		t.Fatalf("stale index entry: %v", rids)
	}
	if rids, _ := tx3.IndexLookup("cities", "pop", NewInt(150)); len(rids) != 1 {
		t.Fatalf("missing index entry: %v", rids)
	}
	// Delete removes the entry.
	tx3.Delete("cities", rids[0])
	tx3.Commit()
	tx4 := db.Begin()
	if rids, _ := tx4.IndexLookup("cities", "pop", NewInt(150)); len(rids) != 0 {
		t.Fatal("index entry survived delete")
	}
	tx4.Commit()
}

func TestTxnIndexRollback(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	db.CreateIndex("cities", "pop")
	tx := db.Begin()
	tx.Insert("cities", Tuple{NewString("A"), NewString("WI"), NewInt(42)})
	tx.Abort()
	tx2 := db.Begin()
	if rids, _ := tx2.IndexLookup("cities", "pop", NewInt(42)); len(rids) != 0 {
		t.Fatal("aborted insert left an index entry")
	}
	tx2.Commit()
}

// lockRowByIndex locks the one row of a fact through LockRowsByIndex.
func lockRowByIndex(tx *Txn, table, column string, key Value, match func(Tuple) bool) (RID, Tuple, bool, error) {
	rids, tups, err := tx.LockRowsByIndex(table, column, key, match)
	if err != nil || len(rids) == 0 {
		return RID{}, nil, false, err
	}
	if len(rids) > 1 {
		return RID{}, nil, false, fmt.Errorf("%d rows match, want one", len(rids))
	}
	return rids[0], tups[0], true, nil
}

// TestLockRowsByIndexLocksEveryMatch: every row under the key that match
// accepts comes back X-locked, in index order, and no other row is
// locked.
func TestLockRowsByIndexLocksEveryMatch(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	if err := db.CreateIndex("cities", "state"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	var want, others []RID
	for i, c := range []struct {
		state string
		pop   int64
	}{{"WI", 7}, {"WI", 8}, {"MN", 7}, {"WI", 7}, {"WI", 7}} {
		rid, err := tx.Insert("cities", Tuple{NewString(fmt.Sprintf("c%d", i)), NewString(c.state), NewInt(c.pop)})
		if err != nil {
			t.Fatal(err)
		}
		if c.state == "WI" && c.pop == 7 {
			want = append(want, rid)
		} else {
			others = append(others, rid)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	lk := db.Begin()
	rids, tups, err := lk.LockRowsByIndex("cities", "state", NewString("WI"), func(tup Tuple) bool { return tup[2].I == 7 })
	if err != nil || !slices.Equal(rids, want) {
		t.Fatalf("locked %v (err %v), want %v", rids, err, want)
	}
	for i, rid := range rids {
		if tups[i][1].S != "WI" || tups[i][2].I != 7 || !db.lm.Held(lk.id, RowLock("cities", rid), LockExclusive) {
			t.Fatalf("row %v: tuple %v, X held %v", rid, tups[i], db.lm.Held(lk.id, RowLock("cities", rid), LockExclusive))
		}
	}
	for _, rid := range others {
		if db.lm.Held(lk.id, RowLock("cities", rid), LockExclusive) {
			t.Fatalf("row %v does not match but is locked", rid)
		}
	}
	if err := lk.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLockRowByIndexFollowsMovedRow: T1 holds X on a row and rewrites it
// into a tuple that no longer fits its page, so the row moves to a new
// RID. T2, queued in LockRowByIndex on the old RID's X lock, must come
// back with the new RID and T1's committed tuple. Meanwhile a writer of
// another row under the same key proceeds (IX, not S, on the table).
func TestLockRowByIndexFollowsMovedRow(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	if err := db.CreateIndex("cities", "state"); err != nil {
		t.Fatal(err)
	}
	isPop := func(pop int64) func(Tuple) bool {
		return func(tup Tuple) bool { return tup[2].I == pop }
	}
	tx := db.Begin()
	old, err := tx.Insert("cities", Tuple{NewString("target"), NewString("WI"), NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("cities", Tuple{NewString("other"), NewString("WI"), NewInt(8)}); err != nil {
		t.Fatal(err)
	}
	// Fill the target's page, so growing the target forces a move.
	filler := NewString(strings.Repeat("f", 100))
	for i := 0; ; i++ {
		rid, err := tx.Insert("cities", Tuple{filler, NewString("XX"), NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != old.Page {
			break
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	t1 := db.Begin()
	rid, _, found, err := lockRowByIndex(t1, "cities", "state", NewString("WI"), isPop(7))
	if err != nil || !found || rid != old {
		t.Fatalf("T1 lock: rid %v found %v err %v, want %v", rid, found, err, old)
	}

	type locked struct {
		rid   RID
		tup   Tuple
		found bool
		err   error
	}
	t2 := db.Begin()
	got := make(chan locked, 1)
	go func() {
		rid, tup, found, err := lockRowByIndex(t2, "cities", "state", NewString("WI"), isPop(7))
		got <- locked{rid, tup, found, err}
	}()
	waitLocked(t, &db.lm.mu, func() bool {
		ls := db.lm.locks[RowLock("cities", old)]
		return ls != nil && ls.waiting == 1
	})

	t3 := db.Begin()
	if _, _, found, err := lockRowByIndex(t3, "cities", "state", NewString("WI"), isPop(8)); err != nil || !found {
		t.Fatalf("writer of another row under the same key: found %v err %v", found, err)
	}
	if _, _, found, err := lockRowByIndex(t3, "cities", "state", NewString("WI"), isPop(9)); err != nil || found {
		t.Fatalf("absent row: found %v err %v", found, err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}

	grown := Tuple{NewString(strings.Repeat("t", 1000)), NewString("WI"), NewInt(7)}
	moved, err := t1.Update("cities", old, grown)
	if err != nil {
		t.Fatal(err)
	}
	if moved == old {
		t.Fatal("update fit in place; the test needs the row to move")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	r := <-got
	if r.err != nil || !r.found {
		t.Fatalf("T2 lock: found %v err %v", r.found, r.err)
	}
	if r.rid != moved || r.tup[0].S != grown[0].S {
		t.Fatalf("T2 got rid %v name %.10q..., want rid %v and T1's tuple", r.rid, r.tup[0].S, moved)
	}
	if !db.lm.Held(t2.id, RowLock("cities", moved), LockExclusive) {
		t.Fatal("T2 does not hold X on the moved row")
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLockRowByIndexNeverMissesRow: writers race to lock one row by index
// and rewrite it — in place, moved to a bigger or smaller tuple, and
// sometimes aborted. The row exists throughout, so no lookup may answer
// "no such row" from an index caught mid-update.
func TestLockRowByIndexNeverMissesRow(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	if err := db.CreateIndex("cities", "state"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 30; i++ {
		if _, err := tx.Insert("cities", Tuple{NewString(strings.Repeat("n", 100)), NewString("WI"), NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	isTarget := func(tup Tuple) bool { return tup[2].I == 7 }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := db.Begin()
				rid, tup, found, err := lockRowByIndex(tx, "cities", "state", NewString("WI"), isTarget)
				if err != nil || !found {
					tx.Abort()
					t.Errorf("writer %d round %d: found %v err %v", w, i, found, err)
					return
				}
				tup[0] = NewString(strings.Repeat("n", 50+(w*37+i*53)%400))
				if _, err := tx.Update("cities", rid, tup); err != nil {
					tx.Abort()
					t.Errorf("update: %v", err)
					return
				}
				if i%5 == 0 {
					err = tx.Abort()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentTransfersSerializable(t *testing.T) {
	// Classic bank transfer: concurrent transfers between accounts must
	// conserve the total. Deadlock victims retry.
	db := newTestDB(t)
	if err := db.CreateTable(TableSchema{Name: "acct", Columns: []ColumnDef{
		{Name: "id", Type: TInt}, {Name: "bal", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	const nAcct = 8
	const perAcct = 1000
	rids := make([]RID, nAcct)
	tx := db.Begin()
	for i := 0; i < nAcct; i++ {
		rid, err := tx.Insert("acct", Tuple{NewInt(int64(i)), NewInt(perAcct)})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	tx.Commit()

	transfer := func(from, to int, amount int64) error {
		for {
			tx := db.Begin()
			err := func() error {
				src, live, err := tx.Get("acct", rids[from])
				if err != nil {
					return fmt.Errorf("get src: %w", err)
				}
				if !live {
					return errors.New("get src: row vanished")
				}
				dst, live, err := tx.Get("acct", rids[to])
				if err != nil {
					return fmt.Errorf("get dst: %w", err)
				}
				if !live {
					return errors.New("get dst: row vanished")
				}
				if _, err := tx.Update("acct", rids[from], Tuple{src[0], NewInt(src[1].I - amount)}); err != nil {
					return err
				}
				if _, err := tx.Update("acct", rids[to], Tuple{dst[0], NewInt(dst[1].I + amount)}); err != nil {
					return err
				}
				return nil
			}()
			if errors.Is(err, ErrDeadlock) {
				tx.Abort()
				continue
			}
			if err != nil {
				tx.Abort()
				return err
			}
			return tx.Commit()
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				from := (w + i) % nAcct
				to := (w + i + 1 + i%3) % nAcct
				if from == to {
					to = (to + 1) % nAcct
				}
				if err := transfer(from, to, int64(1+i%7)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	total := int64(0)
	tx2.Scan("acct", func(_ RID, tup Tuple) bool {
		total += tup[1].I
		return true
	})
	tx2.Commit()
	if total != nAcct*perAcct {
		t.Fatalf("total = %d, want %d (money not conserved)", total, nAcct*perAcct)
	}
}

// TestCheckpointWithActiveTxn: checkpoints are fuzzy — they no longer
// refuse (or stall on) active transactions. A checkpoint taken with an
// uncommitted transaction in flight must succeed, keep that
// transaction's records past the truncation horizon (its firstLSN bounds
// it), and leave the transaction free to commit or abort normally.
func TestCheckpointWithActiveTxn(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	if _, err := tx.Insert("cities", Tuple{NewString("limbo"), NewString("ZZ"), NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("fuzzy checkpoint with active txn: %v", err)
	}
	// The truncation horizon may not pass the active transaction's BEGIN.
	if base := db.wal.Base(); base > tx.firstLSN {
		t.Fatalf("checkpoint truncated to %d, past active txn firstLSN %d", base, tx.firstLSN)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	n := 0
	tx2.Scan("cities", func(RID, Tuple) bool { n++; return true })
	tx2.Commit()
	if n != 0 {
		t.Fatalf("aborted transaction's row survived checkpoints: %d rows", n)
	}
}

func TestDDLBasics(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	if err := db.CreateTable(TableSchema{Name: "cities", Columns: []ColumnDef{{Name: "x", Type: TInt}}}); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if err := db.CreateTable(TableSchema{Name: "bad", Columns: nil}); err == nil {
		t.Fatal("empty schema must fail")
	}
	if err := db.CreateTable(TableSchema{Name: "dup", Columns: []ColumnDef{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}}); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if err := db.CreateIndex("cities", "nope"); err == nil {
		t.Fatal("index on missing column must fail")
	}
	if err := db.CreateIndex("nope", "x"); err == nil {
		t.Fatal("index on missing table must fail")
	}
	if err := db.DropTable("cities"); err != nil {
		t.Fatal(err)
	}
	if db.Table("cities") != nil {
		t.Fatal("dropped table still visible")
	}
	if err := db.DropTable("cities"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestCreateIndexOnExistingData(t *testing.T) {
	db := newTestDB(t)
	mustCreateCities(t, db)
	tx := db.Begin()
	for i := 0; i < 100; i++ {
		tx.Insert("cities", Tuple{NewString(fmt.Sprintf("c%d", i)), NewString("WI"), NewInt(int64(i * 10))})
	}
	tx.Commit()
	if err := db.CreateIndex("cities", "pop"); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	rids, err := tx2.IndexLookup("cities", "pop", NewInt(500))
	if err != nil || len(rids) != 1 {
		t.Fatalf("backfilled index lookup: %v %v", rids, err)
	}
	tx2.Commit()
}
