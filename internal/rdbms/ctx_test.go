package rdbms

import (
	"context"
	"errors"
	"testing"
	"time"
)

// newCtxTestDB builds an in-memory table with enough rows that every
// SELECT access path iterates well past ctxCheckInterval.
func newCtxTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(NewMemPager(), NewMemWAL(), Options{BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "big", Columns: []ColumnDef{
		{Name: "id", Type: TInt},
		{Name: "val", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("big", "id"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 2000; i++ {
		if _, err := tx.Insert("big", Tuple{NewInt(int64(i)), NewString("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// execCtx parses sql and runs it through DB.ExecStmt under ctx.
func execCtx(ctx context.Context, db *DB, sql string) (*ResultSet, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(ctx, stmt)
}

// TestExecCtxCanceledBeforeStart: a context already done fails fast,
// before any transaction begins.
func TestExecCtxCanceledBeforeStart(t *testing.T) {
	db := newCtxTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := execCtx(ctx, db, "SELECT id FROM big"); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The engine stays healthy: a plain Exec still works and sees no
	// leaked locks from the refused statement.
	rs, err := db.Exec("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != 2000 {
		t.Fatalf("got %d rows", rs.Rows[0][0].I)
	}
}

// TestExecCtxDeadlineStopsScanPaths: an expired deadline stops each
// SELECT access path mid-scan with context.DeadlineExceeded, and the
// aborted statement releases its locks (a follow-up write succeeds).
func TestExecCtxDeadlineStopsScanPaths(t *testing.T) {
	db := newCtxTestDB(t)
	queries := []string{
		"SELECT id, val FROM big WHERE val = 'nope'",      // seq scan
		"SELECT id FROM big WHERE id >= 0 AND id <= 1999", // index range scan
		"SELECT id, val FROM big ORDER BY val LIMIT 5",    // seq scan + top-k pushdown
		"SELECT id, val FROM big ORDER BY id LIMIT 5",     // index-order scan
		"SELECT val, COUNT(*) FROM big GROUP BY val",      // grouped over seq scan
		"UPDATE big SET val = 'x' WHERE id >= 0",          // update's collection scan
		"DELETE FROM big WHERE id >= 0",                   // delete's collection scan
	}
	for _, q := range queries {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_, err := execCtx(ctx, db, q)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want context.DeadlineExceeded", q, err)
		}
	}
	// All canceled statements aborted cleanly: every lock is released and
	// the data is untouched.
	rs, err := db.Exec("SELECT COUNT(*) FROM big WHERE val = 'payload'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != 2000 {
		t.Fatalf("canceled statements mutated data: %d rows left", rs.Rows[0][0].I)
	}
	if _, err := db.Exec("INSERT INTO big (id, val) VALUES (2000, 'after')"); err != nil {
		t.Fatalf("write after canceled statements: %v", err)
	}
}

// TestExecCtxCancelMidScan cancels concurrently with a long scan and
// expects the statement to terminate promptly with the context error.
func TestExecCtxCancelMidScan(t *testing.T) {
	db := newCtxTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Repeat scans until cancellation lands mid-loop.
		for {
			if _, err := execCtx(ctx, db, "SELECT id, val FROM big WHERE val = 'nope'"); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled scan did not terminate")
	}
}

// TestWithContextNilKeepsBehavior: transactions without a context attach
// run exactly as before (regression guard for the fast path).
func TestWithContextNilKeepsBehavior(t *testing.T) {
	db := newCtxTestDB(t)
	tx := db.Begin()
	n := 0
	if err := tx.Scan("big", func(RID, Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("scanned %d rows", n)
	}
}
