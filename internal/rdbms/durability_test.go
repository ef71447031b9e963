package rdbms

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Tests for the on-disk lifecycle: OpenDir → work → Close → OpenDir,
// checksummed page frames, WAL torn-tail truncation, and log truncation
// at checkpoints.

func TestOpenDirLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TString}, {Name: "v", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("kv", "v"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 200; i++ {
		if _, err := tx.Insert("kv", Tuple{NewString(fmt.Sprintf("key%03d", i)), NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: everything back, index functional.
	db2, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	n, sum := 0, int64(0)
	if err := tx2.Scan("kv", func(_ RID, tup Tuple) bool { n++; sum += tup[1].I; return true }); err != nil {
		t.Fatal(err)
	}
	rids, err := tx2.IndexLookup("kv", "v", NewInt(77))
	if err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if n != 200 || sum != 199*200/2 {
		t.Fatalf("reopened: n=%d sum=%d", n, sum)
	}
	if len(rids) != 1 {
		t.Fatalf("index after reopen: %d rids", len(rids))
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirExclusiveLock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, Options{BufferPages: 16}); err == nil {
		t.Fatal("second OpenDir on a held directory must fail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock releases with Close: the directory opens again.
	db2, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirKilledWithoutClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	tx := db.Begin()
	for i := 0; i < 50; i++ {
		tx.Insert("t", Tuple{NewInt(int64(i))})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// In-flight transaction at the "kill": must not survive.
	tx2 := db.Begin()
	tx2.Insert("t", Tuple{NewInt(999)})
	// No Close, no Abort: simulate the process dying. The OS releases a
	// dead process's flock; in-process we drop it by hand.
	db.Abandon()
	// The files hold whatever the commits forced out; reopen must
	// recover from the WAL.
	db2, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	tx3 := db2.Begin()
	n, sum := 0, int64(0)
	tx3.Scan("t", func(_ RID, tup Tuple) bool { n++; sum += tup[0].I; return true })
	tx3.Commit()
	if n != 50 || sum != 49*50/2 {
		t.Fatalf("after kill+recover: n=%d sum=%d", n, sum)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	store := NewMemWALStore()
	w, err := NewWALOn(store)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&LogRecord{Kind: LogBegin, Txn: 1})
	w.Append(&LogRecord{Kind: LogCommit, Txn: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tear the active segment directly (OpenSegment returns the same
	// device the WAL appends to).
	dev, err := store.OpenSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := dev.Size()
	// A torn flush: half a frame of garbage beyond the valid records.
	dev.WriteAt([]byte{9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3}, valid)
	dev.Sync()

	w2, err := NewWALOn(store)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := dev.Size(); got != valid {
		t.Fatalf("torn tail not truncated: size %d, want %d", got, valid)
	}
	recs, err := w2.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Kind != LogCommit {
		t.Fatalf("records after truncation: %v", recs)
	}
	// Appends land where the garbage was and stay readable.
	w2.Append(&LogRecord{Kind: LogBegin, Txn: 2})
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _ = w2.Records(0)
	if len(recs) != 3 || recs[2].Txn != 2 {
		t.Fatalf("append after truncation: %v", recs)
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TString}}})
	tx := db.Begin()
	for i := 0; i < 40; i++ {
		tx.Insert("t", Tuple{NewString(fmt.Sprintf("row-%03d", i))})
	}
	tx.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of page 1's payload.
	path := filepath.Join(dir, DataFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := pageFrameSize + pageFrameHeader + 2000
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, Options{BufferPages: 16}); !errors.Is(err, ErrPageChecksum) {
		t.Fatalf("corrupted page opened without checksum error: %v", err)
	}
}

func TestPageChecksumDetectsMisdirectedWrite(t *testing.T) {
	dev := NewMemDevice()
	p, err := NewDevicePager(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	copy(buf, "destined for page 2")
	if err := p.WritePage(2, buf); err != nil {
		t.Fatal(err)
	}
	// Simulate the frame landing at page 1's offset (a misdirected write).
	frame := make([]byte, pageFrameSize)
	dev.ReadAt(frame, 2*pageFrameSize)
	dev.WriteAt(frame, 1*pageFrameSize)
	if err := p.ReadPage(1, buf); !errors.Is(err, ErrPageChecksum) {
		t.Fatalf("misdirected write read back without error: %v", err)
	}
	if err := p.ReadPage(2, buf); err != nil {
		t.Fatalf("page 2 should still verify: %v", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	// Small segments so the workload spans several and the checkpoint has
	// whole prefix segments to delete.
	db, err := OpenDir(dir, Options{BufferPages: 16, WALSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}})
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		tx.Insert("t", Tuple{NewInt(int64(i))})
	}
	tx.Commit()
	before, err := db.wal.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("expected a non-empty WAL before checkpoint")
	}
	if db.wal.SegmentCount() < 2 {
		t.Fatalf("workload should span segments, got %d", db.wal.SegmentCount())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A quiescent checkpoint's horizon is the end of the log, so every
	// sealed prefix segment is deleted — only the active segment remains
	// (LSNs stay monotonic: the manifest records its start offset).
	if got := db.wal.SegmentCount(); got != 1 {
		t.Fatalf("WAL not truncated at checkpoint: %d segments, want 1", got)
	}
	after, err := db.wal.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("checkpoint reclaimed no WAL space: %d -> %d bytes", before, after)
	}
	// Post-checkpoint work still recovers after a kill (drop the flock by
	// hand, as the OS would for a dead process).
	tx2 := db.Begin()
	tx2.Insert("t", Tuple{NewInt(1000)})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Abandon()
	db2, err := OpenDir(dir, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	tx3 := db2.Begin()
	tx3.Scan("t", func(RID, Tuple) bool { n++; return true })
	tx3.Commit()
	if n != 501 {
		t.Fatalf("after checkpoint+kill: %d rows, want 501", n)
	}
	db2.Close()
}

func TestSlottedPageCompaction(t *testing.T) {
	data := make([]byte, PageSize)
	p := newSlottedPage(data)
	big := make([]byte, 900)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	var slots []uint16
	for {
		s, ok := p.insert(big, reservations{})
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 4 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record: freeStart space is gone, but half the
	// payload bytes are reclaimable.
	for i := 0; i < len(slots); i += 2 {
		if !p.del(slots[i]) {
			t.Fatalf("del slot %d", slots[i])
		}
	}
	s, ok := p.insert(big, reservations{})
	if !ok {
		t.Fatal("insert after deletes should compact and succeed")
	}
	// Survivors are intact after compaction.
	for i := 1; i < len(slots); i += 2 {
		rec, ok := p.read(slots[i])
		if !ok || string(rec) != string(big) {
			t.Fatalf("slot %d corrupted by compaction", slots[i])
		}
	}
	if rec, ok := p.read(s); !ok || string(rec) != string(big) {
		t.Fatal("new record corrupted")
	}
}
