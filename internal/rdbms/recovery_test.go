package rdbms

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestWALRecordRoundTrip(t *testing.T) {
	rec := &LogRecord{
		Kind:   LogUpdate,
		Txn:    42,
		Table:  "cities",
		Row:    RID{Page: 3, Slot: 17},
		Before: Tuple{NewString("old"), NewInt(1)},
		After:  Tuple{NewString("new"), NewInt(2)},
	}
	enc := encodeLogRecord(rec)
	dec, err := decodeLogRecord(enc[8:])
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != LogUpdate || dec.Txn != 42 || dec.Table != "cities" || dec.Row != rec.Row {
		t.Fatalf("decoded %+v", dec)
	}
	if !tupleEqual(dec.Before, rec.Before) || !tupleEqual(dec.After, rec.After) {
		t.Fatal("tuples lost")
	}
}

func TestWALAppendFlushRecords(t *testing.T) {
	w := NewMemWAL()
	w.Append(&LogRecord{Kind: LogBegin, Txn: 1})
	w.Append(&LogRecord{Kind: LogInsert, Txn: 1, Table: "t", Row: RID{Page: 1, Slot: 0}, After: Tuple{NewInt(5)}})
	// Unflushed records are not durable.
	recs, err := w.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unflushed records visible: %d", len(recs))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _ = w.Records(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != LogBegin || recs[1].Kind != LogInsert {
		t.Fatalf("kinds: %v %v", recs[0].Kind, recs[1].Kind)
	}
	// Reading from the second record's LSN skips the first.
	recs2, _ := w.Records(recs[1].LSN)
	if len(recs2) != 1 || recs2[0].Kind != LogInsert {
		t.Fatalf("offset read: %v", recs2)
	}
}

func TestWALDropUnflushed(t *testing.T) {
	w := NewMemWAL()
	w.Append(&LogRecord{Kind: LogBegin, Txn: 1})
	w.Flush()
	w.Append(&LogRecord{Kind: LogCommit, Txn: 1})
	w.DropUnflushed() // crash before the commit record was forced
	recs, _ := w.Records(0)
	if len(recs) != 1 || recs[0].Kind != LogBegin {
		t.Fatalf("after drop: %v", recs)
	}
}

func TestFileWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&LogRecord{Kind: LogBegin, Txn: 7})
	w.Append(&LogRecord{Kind: LogCommit, Txn: 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, err := w2.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Txn != 7 {
		t.Fatalf("reopened records: %v", recs)
	}
}

// crashAndRecover simulates a crash: drops unflushed WAL, keeps the pager
// as-is (whatever the buffer pool happened to flush), and reopens.
func crashAndRecover(t *testing.T, db *DB, pager Pager, wal *WAL) *DB {
	t.Helper()
	wal.DropUnflushed()
	re, err := Open(pager, wal, Options{BufferPages: 64})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return re
}

func TestRecoveryCommittedSurvives(t *testing.T) {
	pager := NewMemPager()
	wal := NewMemWAL()
	db, err := Open(pager, wal, Options{BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	tx := db.Begin()
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := tx.Insert("t", Tuple{NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash without checkpoint: committed data must survive via WAL redo.
	re := crashAndRecover(t, db, pager, wal)
	tx2 := re.Begin()
	n := 0
	sum := int64(0)
	tx2.Scan("t", func(_ RID, tup Tuple) bool { n++; sum += tup[0].I; return true })
	tx2.Commit()
	if n != 50 || sum != 49*50/2 {
		t.Fatalf("after recovery: n=%d sum=%d", n, sum)
	}
	// Specific rids still resolve.
	tx3 := re.Begin()
	got, live, _ := tx3.Get("t", rids[10])
	if !live || got[0].I != 10 {
		t.Fatalf("rid lookup after recovery: %v %v", got, live)
	}
	tx3.Commit()
}

func TestRecoveryUncommittedRolledBack(t *testing.T) {
	pager := NewMemPager()
	wal := NewMemWAL()
	db, _ := Open(pager, wal, Options{BufferPages: 8}) // tiny pool forces steals
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})

	// Committed baseline.
	tx := db.Begin()
	base, _ := tx.Insert("t", Tuple{NewInt(100)})
	tx.Commit()

	// In-flight transaction: inserts many rows (forcing dirty page steals
	// through the tiny buffer pool), updates and deletes the baseline row,
	// then "crashes" before commit.
	tx2 := db.Begin()
	for i := 0; i < 200; i++ {
		if _, err := tx2.Insert("t", Tuple{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx2.Update("t", base, Tuple{NewInt(999)}); err != nil {
		t.Fatal(err)
	}
	// Force everything to disk so the loser's changes are definitely in
	// the data file, then crash (losing the unflushed commit-less tail is
	// fine; flush WAL so the loser's records ARE durable, as the WAL rule
	// would have done).
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.bp.Flush(); err != nil {
		t.Fatal(err)
	}

	re := crashAndRecover(t, db, pager, wal)
	tx3 := re.Begin()
	n := 0
	tx3.Scan("t", func(_ RID, tup Tuple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("after recovery expected only baseline row, got %d", n)
	}
	got, live, _ := tx3.Get("t", base)
	if !live || got[0].I != 100 {
		t.Fatalf("baseline row corrupted: %v live=%v", got, live)
	}
	tx3.Commit()
}

// TestUndoOnRefilledPage: a writer touches a 1,500-byte row, then another
// transaction fills the row's page and commits before the writer ends.
// Whether the writer aborts or is still in flight at a crash, undo must
// put the slot back as the writer found it, at its original RID, with a
// matching index entry, every filler row intact and the table's row
// multiset moved by the filler alone.
func TestUndoOnRefilledPage(t *testing.T) {
	orig := Tuple{NewString(strings.Repeat("o", 1500))}
	shapes := []struct {
		name      string
		committed bool // the row is committed before the writer begins
		touch     func(tx *Txn, rid RID) (RID, error)
	}{
		{"insert-delete", false, func(tx *Txn, _ RID) (RID, error) {
			rid, err := tx.Insert("t", orig)
			if err == nil {
				err = tx.Delete("t", rid)
			}
			return rid, err
		}},
		{"delete-committed", true, func(tx *Txn, rid RID) (RID, error) {
			return rid, tx.Delete("t", rid)
		}},
		{"shrink-committed", true, func(tx *Txn, rid RID) (RID, error) {
			_, err := tx.Update("t", rid, Tuple{NewString("s")})
			return rid, err
		}},
	}
	for _, sh := range shapes {
		for _, ending := range []string{"abort", "crash"} {
			t.Run(sh.name+"/"+ending, func(t *testing.T) {
				pager, wal := NewMemPager(), NewMemWAL()
				db, err := Open(pager, wal, Options{BufferPages: 64})
				if err != nil {
					t.Fatal(err)
				}
				if err := db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TString}}}); err != nil {
					t.Fatal(err)
				}
				if err := db.CreateIndex("t", "v"); err != nil {
					t.Fatal(err)
				}
				var rid RID
				if sh.committed {
					seed := db.Begin()
					if rid, err = seed.Insert("t", orig); err != nil {
						t.Fatal(err)
					}
					if err := seed.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				preDigest := snapDigest(t, db, "t")

				writer := db.Begin()
				if rid, err = sh.touch(writer, rid); err != nil {
					t.Fatal(err)
				}
				fill := Tuple{NewString(strings.Repeat("f", 500))}
				filler := db.Begin()
				var fills []RID
				for {
					r, err := filler.Insert("t", fill)
					if err != nil {
						t.Fatal(err)
					}
					fills = append(fills, r)
					if r.Page != rid.Page {
						break // the writer's page is full
					}
				}
				if err := filler.Commit(); err != nil {
					t.Fatal(err)
				}
				wantDigest := preDigest + uint64(len(fills))*rowDigest(EncodeTuple(fill))

				if ending == "crash" {
					db = crashAndRecover(t, db, pager, wal)
				} else if err := writer.Abort(); err != nil {
					t.Fatalf("abort: %v", err)
				}

				tx := db.Begin()
				defer tx.Commit()
				got, live, err := tx.Get("t", rid)
				if err != nil {
					t.Fatal(err)
				}
				if live != sh.committed || live && !tupleEqual(got, orig) {
					t.Fatalf("slot %v after undo: live=%v (%d bytes), want live=%v with the original row", rid, live, len(EncodeTuple(got)), sh.committed)
				}
				indexed, err := tx.IndexLookup("t", "v", orig[0])
				if err != nil {
					t.Fatal(err)
				}
				if want := map[bool]int{false: 0, true: 1}[sh.committed]; len(indexed) != want || want == 1 && indexed[0] != rid {
					t.Fatalf("index entries for the row: %v, want %d at %v", indexed, want, rid)
				}
				for _, r := range fills {
					if got, live, err := tx.Get("t", r); err != nil || !live || !tupleEqual(got, fill) {
						t.Fatalf("filler row %v: live=%v err=%v", r, live, err)
					}
				}
				if d := snapDigest(t, db, "t"); d != wantDigest {
					t.Fatalf("row multiset digest %x, want %x", d, wantDigest)
				}
			})
		}
	}
}

func TestRecoveryUnflushedCommitLost(t *testing.T) {
	// A transaction whose commit record never reached stable storage is a
	// loser: its changes must be rolled back.
	pager := NewMemPager()
	wal := NewMemWAL()
	db, _ := Open(pager, wal, Options{BufferPages: 64})
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})

	tx := db.Begin()
	tx.Insert("t", Tuple{NewInt(1)})
	// Flush WAL so BEGIN+INSERT are durable, then append COMMIT but crash
	// before flushing it.
	wal.Flush()
	db.wal.Append(&LogRecord{Kind: LogCommit, Txn: tx.ID()})
	// Crash now (commit record unflushed).
	re := crashAndRecover(t, db, pager, wal)
	tx2 := re.Begin()
	n := 0
	tx2.Scan("t", func(RID, Tuple) bool { n++; return true })
	tx2.Commit()
	if n != 0 {
		t.Fatalf("unflushed commit treated as durable: %d rows", n)
	}
}

func TestRecoveryAfterCheckpoint(t *testing.T) {
	pager := NewMemPager()
	wal := NewMemWAL()
	db, _ := Open(pager, wal, Options{BufferPages: 64})
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	tx := db.Begin()
	tx.Insert("t", Tuple{NewInt(1)})
	tx.Commit()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint committed work.
	tx2 := db.Begin()
	tx2.Insert("t", Tuple{NewInt(2)})
	tx2.Commit()
	re := crashAndRecover(t, db, pager, wal)
	tx3 := re.Begin()
	sum := int64(0)
	n := 0
	tx3.Scan("t", func(_ RID, tup Tuple) bool { n++; sum += tup[0].I; return true })
	tx3.Commit()
	if n != 2 || sum != 3 {
		t.Fatalf("after checkpointed recovery: n=%d sum=%d", n, sum)
	}
}

func TestRecoveryIndexRebuild(t *testing.T) {
	pager := NewMemPager()
	wal := NewMemWAL()
	db, _ := Open(pager, wal, Options{BufferPages: 64})
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	db.CreateIndex("t", "v")
	tx := db.Begin()
	for i := 0; i < 30; i++ {
		tx.Insert("t", Tuple{NewInt(int64(i % 10))})
	}
	tx.Commit()
	re := crashAndRecover(t, db, pager, wal)
	tx2 := re.Begin()
	rids, err := tx2.IndexLookup("t", "v", NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 {
		t.Fatalf("rebuilt index lookup: %d rids", len(rids))
	}
	tx2.Commit()
}

func TestRecoveryIdempotentDoubleCrash(t *testing.T) {
	pager := NewMemPager()
	wal := NewMemWAL()
	db, _ := Open(pager, wal, Options{BufferPages: 64})
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	tx := db.Begin()
	tx.Insert("t", Tuple{NewInt(1)})
	tx.Commit()
	re := crashAndRecover(t, db, pager, wal)
	// Crash again immediately after recovery, then recover again.
	re2 := crashAndRecover(t, re, pager, wal)
	tx2 := re2.Begin()
	n := 0
	tx2.Scan("t", func(RID, Tuple) bool { n++; return true })
	tx2.Commit()
	if n != 1 {
		t.Fatalf("double recovery duplicated rows: %d", n)
	}
}

func TestFullFileBackedLifecycle(t *testing.T) {
	dir := t.TempDir()
	pagerPath := filepath.Join(dir, "data.db")
	walPath := filepath.Join(dir, "wal.log")

	pager, err := OpenFilePager(pagerPath)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenFileWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TString}, {Name: "v", Type: TInt},
	}})
	tx := db.Begin()
	for i := 0; i < 100; i++ {
		tx.Insert("kv", Tuple{NewString(fmt.Sprintf("key%03d", i)), NewInt(int64(i))})
	}
	tx.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	pager2, err := OpenFilePager(pagerPath)
	if err != nil {
		t.Fatal(err)
	}
	wal2, err := OpenFileWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(pager2, wal2, Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	n := 0
	sum := int64(0)
	tx2.Scan("kv", func(_ RID, tup Tuple) bool { n++; sum += tup[1].I; return true })
	tx2.Commit()
	if n != 100 || sum != 99*100/2 {
		t.Fatalf("file-backed reopen: n=%d sum=%d", n, sum)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	wal2.Close()
}
