package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gatePager is a MemPager whose reads or writes of one page can be held
// at a gate: the I/O signals started, then waits until the gate opens.
// A held read can also be made to fail once instead of reading.
type gatePager struct {
	*MemPager
	mu       sync.Mutex
	readID   PageID // page whose ReadPage is held (InvalidPage: none)
	writeID  PageID // page whose WritePage is held (InvalidPage: none)
	failRead error  // returned once by the held read, instead of reading
	started  chan PageID
	gate     chan struct{}
}

func newGatePager() *gatePager {
	return &gatePager{MemPager: NewMemPager(), readID: InvalidPage, writeID: InvalidPage,
		started: make(chan PageID, 1), gate: make(chan struct{})}
}

// hold reports whether I/O on id must wait at the gate, disarming it so
// only the first such I/O waits.
func (p *gatePager) hold(armed *PageID, id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if *armed != id {
		return false
	}
	*armed = InvalidPage
	return true
}

func (p *gatePager) ReadPage(id PageID, buf []byte) error {
	if p.hold(&p.readID, id) {
		p.started <- id
		<-p.gate
		p.mu.Lock()
		err := p.failRead
		p.failRead = nil
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return p.MemPager.ReadPage(id, buf)
}

func (p *gatePager) WritePage(id PageID, buf []byte) error {
	if p.hold(&p.writeID, id) {
		p.started <- id
		<-p.gate
	}
	return p.MemPager.WritePage(id, buf)
}

// fillPages allocates n pages straight in the pager, page i's first byte
// set to i+1, and returns their ids.
func fillPages(t *testing.T, m *MemPager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	buf := make([]byte, PageSize)
	for i := range ids {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := m.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// within runs fn in its own goroutine and fails the test if it has not
// returned by the deadline: a liveness watchdog for an operation that
// must not wait behind I/O held at a gate.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not return while another pin's I/O was held: the pool lock is held across I/O", what)
	}
}

// pinCheck pins id shared, checks its first byte, and releases it.
func pinCheck(bp *BufferPool, id PageID, want byte) error {
	g, err := bp.Pin(id, LatchShared)
	if err != nil {
		return err
	}
	defer g.Release(false)
	if got := g.Data()[0]; got != want {
		return fmt.Errorf("page %d holds %d, want %d", id, got, want)
	}
	return nil
}

// TestHitDuringBlockedMiss: while one miss is held inside ReadPage, a pin
// of a resident page returns. The held read is released only after the
// hit has.
func TestHitDuringBlockedMiss(t *testing.T) {
	p := newGatePager()
	ids := fillPages(t, p.MemPager, 4)
	bp := NewBufferPool(p, nil, 4)
	if err := pinCheck(bp, ids[0], 1); err != nil {
		t.Fatal(err)
	}
	p.readID = ids[1]
	missed := make(chan error, 1)
	go func() { missed <- pinCheck(bp, ids[1], 2) }()
	<-p.started
	opened := false
	defer func() {
		if !opened {
			close(p.gate) // let the held miss finish if the test failed
		}
	}()
	within(t, "a hit on a resident page", func() error { return pinCheck(bp, ids[0], 1) })
	close(p.gate)
	opened = true
	if err := <-missed; err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.Hits != 1 || st.Misses != 2 || st.Resident != 2 {
		t.Fatalf("stats %+v, want 1 hit, 2 misses, 2 resident", st)
	}
}

// TestHitDuringBlockedWriteBack: while a miss is held writing back its
// dirty victim, a pin of a resident page returns, and the victim's bytes
// reach the pager.
func TestHitDuringBlockedWriteBack(t *testing.T) {
	p := newGatePager()
	ids := fillPages(t, p.MemPager, 2)
	bp := NewBufferPool(p, nil, 2)
	g, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	dirtyID := g.ID()
	copy(g.Data(), "dirty victim")
	g.Release(true)
	if err := pinCheck(bp, ids[0], 1); err != nil { // probation: ids[0], then the dirty page
		t.Fatal(err)
	}
	p.writeID = dirtyID
	missed := make(chan error, 1)
	go func() { missed <- pinCheck(bp, ids[1], 2) }()
	if got := <-p.started; got != dirtyID {
		t.Fatalf("write-back of page %d held, want the dirty victim %d", got, dirtyID)
	}
	opened := false
	defer func() {
		if !opened {
			close(p.gate)
		}
	}()
	within(t, "a hit on a resident page", func() error { return pinCheck(bp, ids[0], 1) })
	close(p.gate)
	opened = true
	if err := <-missed; err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := p.MemPager.ReadPage(dirtyID, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("dirty victim")) {
		t.Fatalf("victim's write-back lost its bytes: %q", raw[:12])
	}
	if st := bp.Stats(); st.Evictions != 1 || st.Dirty != 0 || st.Resident != 2 {
		t.Fatalf("stats %+v, want 1 eviction, 0 dirty, 2 resident", st)
	}
}

// TestNewPageExhaustedLeaksNoPage: a NewPage the pool refuses leaves the
// pager's page count unchanged.
func TestNewPageExhaustedLeaksNoPage(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), nil, 2)
	var held []PageGuard
	for i := 0; i < 2; i++ {
		g, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, g)
	}
	n := bp.NumPages()
	if _, err := bp.NewPage(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("NewPage with every frame pinned: %v, want ErrPoolExhausted", err)
	}
	if got := bp.NumPages(); got != n {
		t.Fatalf("refused NewPage left %d pages, want %d", got, n)
	}
	for _, g := range held {
		g.Release(false)
	}
}
