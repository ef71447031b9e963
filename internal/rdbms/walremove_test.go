package rdbms

import (
	"testing"
	"time"
)

// blockingRemoveStore is a MemWALStore whose RemoveSegment waits until
// release is closed, announcing each call on entered first: a file system
// that takes its time unlinking a segment.
type blockingRemoveStore struct {
	*MemWALStore
	entered chan uint64
	release chan struct{}
}

func (s *blockingRemoveStore) RemoveSegment(seq uint64) error {
	s.entered <- seq
	<-s.release
	return s.MemWALStore.RemoveSegment(seq)
}

// TestTruncateBlockedRemoveLetsAppendsFlush: while TruncateTo is stuck
// unlinking a dropped segment, another goroutine's Append+Flush still
// completes — the removals run after the WAL lock is released, so a slow
// unlink no longer stalls every committer (and Close no longer holds the
// log for the whole deletion).
func TestTruncateBlockedRemoveLetsAppendsFlush(t *testing.T) {
	store := &blockingRemoveStore{
		MemWALStore: NewMemWALStore(),
		// Room for every removal the truncation makes, so none blocks on
		// the announcement once release is closed.
		entered: make(chan uint64, 16),
		release: make(chan struct{}),
	}
	w, err := NewWALOn(store)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSegmentTarget(256)
	for i := 0; w.SegmentCount() < 3; i++ {
		w.Append(&LogRecord{Kind: LogBegin, Txn: TxnID(i)})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	segs := w.SegmentCount()

	truncated := make(chan error, 1)
	go func() { truncated <- w.TruncateTo(w.FlushedLSN()) }()
	select {
	case <-store.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("TruncateTo never reached RemoveSegment")
	}

	flushed := make(chan error, 1)
	go func() {
		w.Append(&LogRecord{Kind: LogCommit, Txn: 99})
		flushed <- w.Flush()
	}()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(store.release)
		t.Fatal("Append+Flush blocked behind a segment removal")
	}

	close(store.release)
	if err := <-truncated; err != nil {
		t.Fatal(err)
	}
	if got := w.SegmentCount(); got != 1 {
		t.Fatalf("%d segments after truncating %d, want 1", got, segs)
	}
	present, _ := store.Segments()
	if len(present) != 1 {
		t.Fatalf("store holds segments %v after truncation", present)
	}
	recs, err := w.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Kind != LogCommit || last.Txn != 99 {
		t.Fatalf("last record %v, want the commit appended during the removal", last)
	}
}
