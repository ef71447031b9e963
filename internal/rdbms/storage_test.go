package rdbms

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

func TestSlottedPageInsertReadDelete(t *testing.T) {
	p := newSlottedPage(make([]byte, PageSize))
	s1, ok := p.insert([]byte("alpha"), reservations{})
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.insert([]byte("beta"), reservations{})
	if !ok {
		t.Fatal("insert failed")
	}
	if got, ok := p.read(s1); !ok || string(got) != "alpha" {
		t.Fatalf("read s1 = %q", got)
	}
	if got, ok := p.read(s2); !ok || string(got) != "beta" {
		t.Fatalf("read s2 = %q", got)
	}
	if !p.del(s1) {
		t.Fatal("delete failed")
	}
	if _, ok := p.read(s1); ok {
		t.Fatal("tombstoned slot must not read")
	}
	if p.del(s1) {
		t.Fatal("double delete should fail")
	}
	// Tombstone slot reused by next insert.
	s3, ok := p.insert([]byte("gamma"), reservations{})
	if !ok || s3 != s1 {
		t.Fatalf("tombstone reuse: slot %d, want %d", s3, s1)
	}
}

func TestSlottedPageUpdate(t *testing.T) {
	p := newSlottedPage(make([]byte, PageSize))
	s, _ := p.insert([]byte("aaaa"), reservations{})
	if !p.update(s, []byte("bb"), reservations{}) {
		t.Fatal("shrink update failed")
	}
	if got, _ := p.read(s); string(got) != "bb" {
		t.Fatalf("after shrink: %q", got)
	}
	if !p.update(s, []byte("cccccccc"), reservations{}) {
		t.Fatal("grow update failed")
	}
	if got, _ := p.read(s); string(got) != "cccccccc" {
		t.Fatalf("after grow: %q", got)
	}
	if p.update(99, []byte("x"), reservations{}) {
		t.Fatal("update of bad slot should fail")
	}
}

func TestSlottedPageFull(t *testing.T) {
	p := newSlottedPage(make([]byte, PageSize))
	rec := make([]byte, 100)
	n := 0
	for {
		if _, ok := p.insert(rec, reservations{}); !ok {
			break
		}
		n++
	}
	if n < 30 || n > 45 {
		t.Fatalf("page held %d 100-byte records; expected ~39", n)
	}
	if p.freeSpace() >= 104 {
		t.Fatalf("free space %d should be below record size", p.freeSpace())
	}
}

func TestSlottedPageNextPointer(t *testing.T) {
	p := newSlottedPage(make([]byte, PageSize))
	p.setNext(42)
	if p.next() != 42 {
		t.Fatal("next pointer lost")
	}
	p.setNext(InvalidPage)
	if p.next() != InvalidPage {
		t.Fatal("invalid next lost")
	}
}

func TestMemPager(t *testing.T) {
	m := NewMemPager()
	if _, err := m.Allocate(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := m.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := m.ReadPage(0, got); err != nil || got[0] != 0xAB {
		t.Fatalf("read back: %v %x", err, got[0])
	}
	if err := m.ReadPage(5, got); err == nil {
		t.Fatal("unallocated read must fail")
	}
	if err := m.WritePage(5, buf); err == nil {
		t.Fatal("unallocated write must fail")
	}
	if m.NumPages() != 1 {
		t.Fatalf("NumPages = %d", m.NumPages())
	}
}

func TestFilePagerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "persisted content")
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d", p2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:17]) != "persisted content" {
		t.Fatalf("content lost: %q", got[:17])
	}
}

func TestBufferPoolEviction(t *testing.T) {
	m := NewMemPager()
	bp := NewBufferPool(m, nil, 4)
	var ids []PageID
	for i := 0; i < 10; i++ {
		g, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		g.Data()[0] = byte(i)
		g.Release(true)
		ids = append(ids, g.ID())
	}
	// All pages readable, with correct contents after eviction round trips.
	for i, id := range ids {
		g, err := bp.Pin(id, LatchShared)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Data()[0]; got != byte(i) {
			t.Fatalf("page %d content %d, want %d", id, got, i)
		}
		g.Release(false)
	}
	st := bp.Stats()
	if st.Misses == 0 {
		t.Fatal("expected misses from eviction")
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions from a pool smaller than the page set")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	m := NewMemPager()
	bp := NewBufferPool(m, nil, 2)
	g1, _ := bp.NewPage()
	g2, _ := bp.NewPage()
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("pool of 2 with both pinned must refuse a third pin")
	}
	g1.Release(false)
	g2.Release(false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestBufferPoolFlush(t *testing.T) {
	m := NewMemPager()
	bp := NewBufferPool(m, nil, 8)
	g, _ := bp.NewPage()
	id := g.ID()
	copy(g.Data(), "dirty data")
	g.Release(true)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := m.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[:10]) != "dirty data" {
		t.Fatalf("flush did not persist: %q", raw[:10])
	}
}

func newTestHeap(t *testing.T) *HeapFile {
	t.Helper()
	bp := NewBufferPool(NewMemPager(), nil, 16)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := newTestHeap(t)
	tup := Tuple{NewInt(1), NewString("Madison")}
	rid, err := h.Insert(tup)
	if err != nil {
		t.Fatal(err)
	}
	got, live, err := h.Get(rid)
	if err != nil || !live {
		t.Fatalf("Get: live=%v err=%v", live, err)
	}
	if !tupleEqual(got, tup) {
		t.Fatalf("got %v", got)
	}
	if ok, _ := h.Delete(rid); !ok {
		t.Fatal("delete failed")
	}
	if _, live, _ := h.Get(rid); live {
		t.Fatal("deleted row still live")
	}
}

func TestHeapMultiPageAndScan(t *testing.T) {
	h := newTestHeap(t)
	const n = 500
	rids := make(map[RID]int64, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(Tuple{NewInt(int64(i)), NewString(fmt.Sprintf("row-%d-%s", i, longPad(i)))})
		if err != nil {
			t.Fatal(err)
		}
		rids[rid] = int64(i)
	}
	if h.Pages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.Pages())
	}
	seen := 0
	err := h.Scan(func(rid RID, tup Tuple) bool {
		want, ok := rids[rid]
		if !ok {
			t.Fatalf("unexpected rid %v", rid)
		}
		if tup[0].I != want {
			t.Fatalf("rid %v has %d, want %d", rid, tup[0].I, want)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d rows, want %d", seen, n)
	}
	if c, _ := h.Count(); c != n {
		t.Fatalf("Count = %d", c)
	}
}

func longPad(i int) string {
	b := make([]byte, 40+i%60)
	for j := range b {
		b[j] = 'a' + byte(i%26)
	}
	return string(b)
}

func TestHeapUpdateInPlaceAndMove(t *testing.T) {
	h := newTestHeap(t)
	rid, _ := h.Insert(Tuple{NewString("short")})
	rid2, err := h.Update(rid, Tuple{NewString("tiny")})
	if err != nil || rid2 != rid {
		t.Fatalf("in-place update moved: %v %v", rid2, err)
	}
	got, _, _ := h.Get(rid)
	if got[0].S != "tiny" {
		t.Fatalf("update lost: %v", got)
	}
	// Fill the page so a grow must move the tuple.
	for i := 0; i < 200; i++ {
		h.Insert(Tuple{NewString(longPad(i))})
	}
	big := Tuple{NewString(string(make([]byte, 300)))}
	rid3, err := h.Update(rid, big)
	if err != nil {
		t.Fatal(err)
	}
	got, live, _ := h.Get(rid3)
	if !live || len(got[0].S) != 300 {
		t.Fatalf("moved update wrong: live=%v", live)
	}
	if rid3 != rid {
		if _, live, _ := h.Get(rid); live {
			t.Fatal("old rid should be tombstoned after move")
		}
	}
}

func TestHeapOpenWalkChain(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), nil, 32)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := h.Insert(Tuple{NewInt(int64(i)), NewString(longPad(i))}); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenHeapFile(bp, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if re.Pages() != h.Pages() {
		t.Fatalf("reopened pages %d != %d", re.Pages(), h.Pages())
	}
	c1, _ := h.Count()
	c2, _ := re.Count()
	if c1 != c2 || c1 != 300 {
		t.Fatalf("counts %d %d", c1, c2)
	}
}

func TestHeapForceSlotForRecovery(t *testing.T) {
	h := newTestHeap(t)
	rid, _ := h.Insert(Tuple{NewInt(7)})
	h.Delete(rid)
	force := func(rid RID, sc SlotContent) {
		t.Helper()
		var hooked RID
		if err := h.ForceSlot(rid, sc, func(r RID) LSN { hooked = r; return 42 }); err != nil {
			t.Fatal(err)
		}
		if hooked != rid {
			t.Fatalf("onApply saw %v, want %v", hooked, rid)
		}
		got, live, _ := h.Get(rid)
		if live != sc.Live || live && got[0].I != sc.Tup[0].I {
			t.Fatalf("slot %v = %v (live=%v), want %v", rid, got, live, sc)
		}
	}
	force(rid, SlotContent{Live: true, Tup: Tuple{NewInt(7)}}) // into a tombstone
	force(rid, SlotContent{Live: true, Tup: Tuple{NewInt(8)}}) // over a live row
	force(rid, SlotContent{})                                  // back to dead
	// A slot index beyond the current array.
	force(RID{Page: rid.Page, Slot: rid.Slot + 5}, SlotContent{Live: true, Tup: Tuple{NewInt(9)}})
}

func TestHeapAdopt(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), nil, 16)
	h, _ := CreateHeapFile(bp)
	// Allocate an orphan page directly.
	g, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := g.ID()
	g.Release(true)
	if slices.Contains(h.fs.chain(), id) {
		t.Fatal("orphan should not be in chain")
	}
	if err := h.Adopt(id); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(h.fs.chain(), id) {
		t.Fatal("adopted page missing from chain")
	}
	// Adopt is idempotent.
	if err := h.Adopt(id); err != nil {
		t.Fatal(err)
	}
	// Chain is still walkable.
	re, err := OpenHeapFile(bp, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if re.Pages() != 2 {
		t.Fatalf("chain has %d pages, want 2", re.Pages())
	}
}

func TestHeapRandomChurn(t *testing.T) {
	h := newTestHeap(t)
	rng := rand.New(rand.NewSource(9))
	live := map[RID]int64{}
	for op := 0; op < 3000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0:
			v := rng.Int63()
			rid, err := h.Insert(Tuple{NewInt(v), NewString(longPad(int(v % 50)))})
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = v
		case rng.Intn(2) == 0:
			for rid := range live {
				if ok, err := h.Delete(rid); err != nil || !ok {
					t.Fatalf("delete %v: %v %v", rid, ok, err)
				}
				delete(live, rid)
				break
			}
		default:
			for rid, old := range live {
				v := old + 1
				newRID, err := h.Update(rid, Tuple{NewInt(v), NewString(longPad(int(v % 50)))})
				if err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
				live[newRID] = v
				break
			}
		}
	}
	got := map[RID]int64{}
	h.Scan(func(rid RID, tup Tuple) bool {
		got[rid] = tup[0].I
		return true
	})
	if len(got) != len(live) {
		t.Fatalf("scan found %d rows, want %d", len(got), len(live))
	}
	for rid, v := range live {
		if got[rid] != v {
			t.Fatalf("rid %v = %d, want %d", rid, got[rid], v)
		}
	}
}
