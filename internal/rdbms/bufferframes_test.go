package rdbms

import (
	"errors"
	"testing"
	"time"
)

// Frame lifecycle: a failed read frees its frame once every waiter has
// left, and frames are allocated lazily and recycled, buffer included.

// TestMissReadErrorWakesWaiters: a read that fails while a second pinner
// waits on the same page fails both pins with the read's error, leaves no
// frame behind for the page, and a retry reads it.
func TestMissReadErrorWakesWaiters(t *testing.T) {
	errRead := errors.New("injected read failure")
	p := newGatePager()
	ids := fillPages(t, p.MemPager, 3)
	bp := NewBufferPool(p, nil, 4)
	if err := pinCheck(bp, ids[0], 1); err != nil {
		t.Fatal(err)
	}
	p.readID, p.failRead = ids[1], errRead
	errs := make(chan error, 2)
	go func() { errs <- pinCheck(bp, ids[1], 2) }()
	<-p.started
	opened := false
	defer func() {
		if !opened {
			close(p.gate)
		}
	}()
	// The second pinner counts its hit under the pool lock, then waits on
	// the frame's latch.
	go func() { errs <- pinCheck(bp, ids[1], 2) }()
	within(t, "a second pin of the page being read", func() error {
		for bp.Stats().Hits < 1 {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	close(p.gate)
	opened = true
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errRead) {
			t.Fatalf("pin %d: error %v, want the read's error", i, err)
		}
	}
	bp.mu.Lock()
	_, left := bp.frames[ids[1]]
	pinned := 0
	for _, f := range bp.frames {
		pinned += f.pins
	}
	nframes, free := bp.nframes, len(bp.free)
	bp.mu.Unlock()
	if left || pinned != 0 {
		t.Fatalf("after the failed read: frame left for the page %v, %d pins held", left, pinned)
	}
	if st := bp.Stats(); st.Resident != 1 || nframes != st.Resident+free {
		t.Fatalf("stats %+v with %d frames, %d free: want the failed frame freed", st, nframes, free)
	}
	if err := pinCheck(bp, ids[1], 2); err != nil {
		t.Fatalf("retry after a failed read: %v", err)
	}
	if st := bp.Stats(); st.Resident != 2 {
		t.Fatalf("after the retry: %d resident, want 2", st.Resident)
	}
}

// TestMissAllocatesNothing: in a full pool, a clean miss and a scan miss
// reuse their victim's frame and allocate nothing.
func TestMissAllocatesNothing(t *testing.T) {
	const capacity = 8
	for _, scan := range []bool{false, true} {
		m := NewMemPager()
		ids := fillPages(t, m, 64)
		bp := NewBufferPool(m, nil, capacity)
		pin := func(id PageID) {
			var g PageGuard
			var err error
			if scan {
				g, err = bp.PinScan(id)
			} else {
				g, err = bp.Pin(id, LatchShared)
			}
			if err != nil {
				t.Fatal(err)
			}
			g.Release(false)
		}
		for _, id := range ids { // fill the pool and the ghost list
			pin(id)
		}
		// A scan keeps the first pages it admitted and recycles one frame
		// for the rest, so cycle over those: every pin misses either way.
		cycle, next := ids[capacity:], 0
		miss := func() {
			pin(cycle[next%len(cycle)])
			next++
		}
		before := bp.Stats()
		allocs := testing.AllocsPerRun(1000, miss)
		after := bp.Stats()
		if runs := int64(next); after.Misses-before.Misses != runs || after.Evictions-before.Evictions != runs {
			t.Fatalf("scan=%v: %d misses and %d evictions over %d pins, want every pin a miss", scan,
				after.Misses-before.Misses, after.Evictions-before.Evictions, runs)
		}
		if allocs != 0 {
			t.Errorf("scan=%v: a miss in a full pool allocated %.0f times, want 0", scan, allocs)
		}
	}
}

// TestPoolAllocatesLazily: a pool allocates a frame per page it admits
// until it holds capacity of them, never more.
func TestPoolAllocatesLazily(t *testing.T) {
	const capacity = 512
	bp := NewBufferPool(NewMemPager(), nil, capacity)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; h.Pages() < 135; i++ {
		if _, err := h.Insert(Tuple{NewInt(int64(i)), NewString(longPad(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Count(); err != nil {
		t.Fatal(err)
	}
	frames := func() int {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return bp.nframes
	}
	if got, pages := frames(), h.Pages(); got != pages {
		t.Fatalf("a %d-frame pool over a %d-page heap holds %d page buffers, want %d", capacity, pages, got, pages)
	}
	ids := fillPages(t, bp.pager.(*MemPager), 4*capacity)
	for i, id := range ids {
		g, err := bp.Pin(id, LatchShared)
		if err != nil {
			t.Fatal(err)
		}
		g.Release(false)
		if got := frames(); got > capacity {
			t.Fatalf("after %d pins of a %d-page sweep: %d page buffers, capacity %d", i+1, len(ids), got, capacity)
		}
	}
	if got := frames(); got != capacity {
		t.Fatalf("after the sweep: %d page buffers, want capacity %d", got, capacity)
	}
}
