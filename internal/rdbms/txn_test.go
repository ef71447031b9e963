package rdbms

import (
	"errors"
	"fmt"
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
	if _, err := tx.Insert("cities", Tuple{NewString("x"), NewString("y"), NewInt(1)}); err != ErrTxnDone {
		t.Fatalf("expected ErrTxnDone, got %v", err)
	}
	if err := tx.Commit(); err != ErrTxnDone {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); err != ErrTxnDone {
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
	if got := db.TableNames(); len(got) != 0 {
		t.Fatalf("TableNames = %v", got)
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
