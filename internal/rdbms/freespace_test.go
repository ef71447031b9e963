package rdbms

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// walkInsertWhere and walkInsertInto are InsertWhere and insertInto as
// they were before the free-space map, the placement oracle: try the
// tail, then every other page in chain order, then grow and try only the
// new pages. Only the chain snapshot and growFrom's result go through the
// accessors the map introduced; no bound is read or written.
func walkInsertWhere(h *HeapFile, t Tuple, onApply func(RID) LSN) (RID, error) {
	rec := EncodeTuple(t)
	if len(rec)+slotSize > PageSize-pageHeaderSize {
		return RID{}, fmt.Errorf("rdbms: tuple of %d bytes exceeds page capacity", len(rec))
	}
	// Try the last page first (append-mostly workloads), then the rest.
	pages := h.fs.chain()
	n := len(pages)
	order := make([]PageID, 0, n)
	order = append(order, pages[n-1])
	order = append(order, pages[:n-1]...)
	for {
		for _, id := range order {
			if rid, ok, err := walkInsertInto(h, id, rec, onApply); ok || err != nil {
				return rid, err
			}
		}
		// Every page tried is full: grow, then try only the new pages.
		m, err := h.growFrom(n)
		if err != nil {
			return RID{}, err
		}
		order, n = h.fs.chain()[n:m], m
	}
}

func walkInsertInto(h *HeapFile, id PageID, rec []byte, onApply func(RID) LSN) (rid RID, ok bool, err error) {
	g, err := h.bp.Pin(id, LatchExclusive)
	if err != nil {
		return RID{}, false, err
	}
	defer func() { g.Release(ok) }()
	p := newSlottedPage(g.Data())
	if p.freeSpace() < len(rec) && p.reclaimable() < len(rec) {
		// Full for rec whatever the reservations say: an insert walking the
		// chain past full pages does not consult them.
		return RID{}, false, nil
	}
	var slot uint16
	h.withReserved(id, func(res reservations) { slot, ok = p.insert(rec, res) })
	if !ok {
		return RID{}, false, nil
	}
	rid = RID{Page: id, Slot: slot}
	applied(p, rid, onApply)
	return rid, true, nil
}

// TestFreeSpaceFirstFitMatchesScan: firstFit answers what a scan of the
// bounds answers, for every range and need, as bounds rise and fall, and
// a bound set by page id lands at that page's position whether the chain
// ascends (binary search) or not (recovery can adopt pages out of order).
func TestFreeSpaceFirstFitMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ascending := range []bool{true, false} {
		var f freeSpace
		ids := make([]PageID, 150)
		for i := range ids {
			ids[i] = PageID(3 * (i + 1))
		}
		if !ascending {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		for n := 1; n <= len(ids); n++ {
			f.add(ids[n-1], rng.Intn(PageSize))
			if f.sorted != ascending && n > 2 {
				t.Fatalf("sorted = %v after %d pages, want %v", f.sorted, n, ascending)
			}
			for range 20 {
				pos, b := rng.Intn(n), rng.Intn(PageSize)
				f.set(ids[pos], b)
				if int(f.bound[pos]) != b {
					t.Fatalf("set(%d, %d) left position %d at %d", ids[pos], b, pos, f.bound[pos])
				}
			}
			for range 50 {
				lo, hi, need := rng.Intn(n+1), rng.Intn(n+1), rng.Intn(PageSize+1)
				want := -1
				for p := lo; p < hi; p++ {
					if int(f.bound[p]) >= need {
						want = p
						break
					}
				}
				pos, id, ok := f.firstFit(lo, hi, need)
				if !ok {
					pos = -1
				}
				if pos != want || ok && id != ids[pos] {
					t.Fatalf("n=%d firstFit(%d, %d, %d) = %d (%d), want %d", n, lo, hi, need, pos, id, want)
				}
			}
		}
	}
}

// walkHarness is one heap under a seeded history, with a log of every
// mutation since its pages were last synced, so a kill can drop what
// was not synced and redo the rest the way recovery does.
type walkHarness struct {
	name    string
	frames  int
	insert  func(*HeapFile, Tuple, func(RID) LSN) (RID, error)
	pager   *MemPager
	bp      *BufferPool
	h       *HeapFile
	synced  [][]byte
	log     []redoEntry
	lsn     LSN
	touched []slotUndo // the open transaction's first before-images
}

type redoEntry struct {
	rid RID
	sc  SlotContent
	lsn LSN
}

type slotUndo struct {
	rid    RID
	before SlotContent
}

func newWalkHarness(t *testing.T, name string, frames int, insert func(*HeapFile, Tuple, func(RID) LSN) (RID, error)) *walkHarness {
	w := &walkHarness{name: name, frames: frames, insert: insert, pager: NewMemPager()}
	w.bp = NewBufferPool(w.pager, nil, frames)
	h, err := CreateHeapFile(w.bp)
	if err != nil {
		t.Fatal(err)
	}
	w.h = h
	w.sync(t)
	return w
}

// logged returns an onApply that logs rid's new content.
func (w *walkHarness) logged(sc SlotContent, also func(RID)) func(RID) LSN {
	return func(rid RID) LSN {
		if also != nil {
			also(rid)
		}
		w.lsn++
		w.log = append(w.log, redoEntry{rid: rid, sc: sc, lsn: w.lsn})
		return w.lsn
	}
}

// note records rid's before-image the first time the open transaction
// touches it, reserving the slot the way Txn.noteVersion does.
func (w *walkHarness) note(rid RID, before SlotContent, inTxn bool) {
	if !inTxn || slices.ContainsFunc(w.touched, func(u slotUndo) bool { return u.rid == rid }) {
		return
	}
	n := 0
	if before.Live {
		n = encodedLen(before.Tup)
	}
	w.h.reserve(rid, n)
	w.touched = append(w.touched, slotUndo{rid: rid, before: before})
}

func (w *walkHarness) ins(tup Tuple, inTxn bool) (RID, error) {
	return w.insert(w.h, tup, w.logged(SlotContent{Live: true, Tup: tup}, func(rid RID) { w.note(rid, SlotContent{}, inTxn) }))
}

func (w *walkHarness) del(rid RID, before Tuple, inTxn bool) error {
	w.note(rid, SlotContent{Live: true, Tup: before}, inTxn)
	ok, err := w.h.DeleteWith(rid, w.logged(SlotContent{}, nil))
	if err == nil && !ok {
		err = fmt.Errorf("delete of missing row %v", rid)
	}
	return err
}

// upd rewrites a row in place when it fits, else moves it as Txn.Update
// does: a delete, then an insert.
func (w *walkHarness) upd(rid RID, before, tup Tuple, inTxn bool) (RID, error) {
	w.note(rid, SlotContent{Live: true, Tup: before}, inTxn)
	if _, ok, err := w.h.TryUpdateInPlace(rid, tup, w.logged(SlotContent{Live: true, Tup: tup}, nil)); ok || err != nil {
		return rid, err
	}
	if _, err := w.h.DeleteWith(rid, w.logged(SlotContent{}, nil)); err != nil {
		return RID{}, err
	}
	return w.ins(tup, inTxn)
}

// end closes the open transaction; an abort forces every touched slot
// back to its before-image, frees before restores, as DB.undoSlots does.
func (w *walkHarness) end(t *testing.T, abort bool) {
	if abort {
		for _, live := range [...]bool{false, true} {
			for _, u := range w.touched {
				if u.before.Live == live {
					if err := w.h.ForceSlot(u.rid, u.before, w.logged(u.before, nil)); err != nil {
						t.Fatalf("%s: undo: %v", w.name, err)
					}
				}
			}
		}
	}
	for _, u := range w.touched {
		w.h.unreserve(u.rid)
	}
	w.touched = nil
}

// sync writes every dirty page back and takes the pager's image as the
// state a kill returns to.
func (w *walkHarness) sync(t *testing.T) {
	if err := w.bp.Flush(); err != nil {
		t.Fatal(err)
	}
	w.synced = w.images()
	w.log = nil
}

func (w *walkHarness) images() [][]byte {
	w.pager.mu.RLock()
	defer w.pager.mu.RUnlock()
	out := make([][]byte, len(w.pager.pages))
	for i, p := range w.pager.pages {
		out[i] = slices.Clone(p)
	}
	return out
}

func (w *walkHarness) open(t *testing.T) {
	w.bp = NewBufferPool(w.pager, nil, w.frames)
	h, err := OpenHeapFile(w.bp, w.h.FirstPage())
	if err != nil {
		t.Fatalf("%s: open: %v", w.name, err)
	}
	w.h = h
}

// reopen is Close then open: everything reaches the pages first.
func (w *walkHarness) reopen(t *testing.T) {
	w.sync(t)
	w.open(t)
}

// kill drops every page write since the last sync, reopens, and redoes
// the log as recovery does: allocate and adopt the pages each record
// names, then apply it if the page has not seen it.
func (w *walkHarness) kill(t *testing.T) {
	w.pager = &MemPager{pages: w.synced}
	w.open(t)
	for _, r := range w.log {
		for w.pager.NumPages() <= r.rid.Page {
			if _, err := w.pager.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.h.Adopt(r.rid.Page); err != nil {
			t.Fatalf("%s: adopt: %v", w.name, err)
		}
		if _, err := w.h.RedoSlot(r.rid, r.sc, r.lsn); err != nil {
			t.Fatalf("%s: redo: %v", w.name, err)
		}
	}
	w.sync(t)
}

// TestFreeSpaceMatchesWalk drives a heap that inserts through the free-
// space map and one that walks every page through the same seeded
// history: inserts of mixed sizes, deletes, in-place updates that grow
// and shrink rows and moves, transactions that commit or abort (undo
// through ForceSlot, reservations held meanwhile), Close and reopen, and
// kills with recovery. Every insert must land at the walk's RID and every
// page image must match byte for byte, with a pool smaller than the heap
// and with one larger.
func TestFreeSpaceMatchesWalk(t *testing.T) {
	for _, frames := range []int{8, 4096} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			walk := newWalkHarness(t, "walk", frames, walkInsertWhere)
			fsm := newWalkHarness(t, "map", frames, (*HeapFile).InsertWhere)
			both := []*walkHarness{walk, fsm}
			rng := rand.New(rand.NewSource(43))
			var live []RID
			rows := map[RID]Tuple{}
			next := int64(0)
			// exactFit is a string length that makes the row exactly as
			// long as the longest one a random page would take, or 0.
			exactFit := func() int {
				chain := walk.h.fs.chain()
				g, err := walk.bp.Pin(chain[rng.Intn(len(chain))], LatchShared)
				if err != nil {
					t.Fatal(err)
				}
				b := newSlottedPage(g.Data()).insertBound()
				g.Release(false)
				n := b - encodedLen(Tuple{NewInt(next), NewString("")})
				for n > 0 && encodedLen(Tuple{NewInt(next), NewString(strings.Repeat("x", n))}) > b {
					n--
				}
				return n
			}
			tuple := func() Tuple {
				var n int
				switch r := rng.Intn(10); {
				case r < 2:
					n = exactFit()
				case r < 6:
					n = 8 + rng.Intn(72)
				case r < 9:
					n = 200 + rng.Intn(700)
				default:
					n = 1500 + rng.Intn(1500)
				}
				if n < 1 || n > 3000 {
					n = 8
				}
				next++
				return Tuple{NewInt(next), NewString(strings.Repeat(string(rune('a'+next%26)), n))}
			}
			same := func(op string, got []RID, errs []error) RID {
				t.Helper()
				for i := range both {
					if errs[i] != nil {
						t.Fatalf("%s: %s: %v", both[i].name, op, errs[i])
					}
				}
				if got[0] != got[1] {
					t.Fatalf("%s: the walk placed the row at %v, the map at %v", op, got[0], got[1])
				}
				return got[0]
			}
			insert := func(inTxn bool) {
				tup := tuple()
				var got [2]RID
				var errs [2]error
				for i, w := range both {
					got[i], errs[i] = w.ins(tup, inTxn)
				}
				rid := same("insert", got[:], errs[:])
				rows[rid] = tup
				live = append(live, rid)
			}
			pick := func() (int, RID) {
				i := rng.Intn(len(live))
				return i, live[i]
			}
			remove := func(i int) {
				delete(rows, live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			deleteRow := func(inTxn bool) {
				if len(live) == 0 {
					return
				}
				i, rid := pick()
				for _, w := range both {
					if err := w.del(rid, rows[rid], inTxn); err != nil {
						t.Fatalf("%s: delete %v: %v", w.name, rid, err)
					}
				}
				remove(i)
			}
			update := func(inTxn bool) {
				if len(live) == 0 {
					return
				}
				i, rid := pick()
				before := rows[rid]
				tup := tuple()
				tup[0] = before[0]
				var got [2]RID
				var errs [2]error
				for j, w := range both {
					got[j], errs[j] = w.upd(rid, before, tup, inTxn)
				}
				moved := same("update", got[:], errs[:])
				remove(i)
				rows[moved] = tup
				live = append(live, moved)
			}
			check := func(when string) {
				t.Helper()
				for _, w := range both {
					w.sync(t)
				}
				a, b := walk.images(), fsm.images()
				if len(a) != len(b) {
					t.Fatalf("%s: %d pages after the walk, %d after the map", when, len(a), len(b))
				}
				for i := range a {
					if !bytes.Equal(a[i], b[i]) {
						t.Fatalf("%s: page %d differs", when, i)
					}
				}
			}
			for step := range 1500 {
				switch r := rng.Intn(100); {
				case r < 50:
					insert(false)
				case r < 62:
					deleteRow(false)
				case r < 78:
					update(false)
				case r < 92:
					// A transaction: its rows stay reserved until it ends,
					// and an abort undoes them through ForceSlot.
					saved := maps.Clone(rows)
					savedLive := slices.Clone(live)
					for range 1 + rng.Intn(4) {
						switch rng.Intn(3) {
						case 0:
							insert(true)
						case 1:
							deleteRow(true)
						default:
							update(true)
						}
					}
					abort := rng.Intn(10) < 6
					for _, w := range both {
						w.end(t, abort)
					}
					if abort {
						rows, live = saved, savedLive
					}
				case r < 96:
					for _, w := range both {
						w.reopen(t)
					}
					check(fmt.Sprintf("reopen at step %d", step))
				default:
					for _, w := range both {
						w.kill(t)
					}
					check(fmt.Sprintf("recovery at step %d", step))
				}
			}
			check("the end")
			if n := fsm.h.Pages(); n < 4*8 {
				t.Fatalf("the heap grew to %d pages; the history should outgrow the small pool several times", n)
			}
			got := map[RID]string{}
			if err := fsm.h.Scan(func(rid RID, tup Tuple) bool {
				got[rid] = tup[1].S
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(rows) {
				t.Fatalf("scan read %d rows, the history left %d", len(got), len(rows))
			}
			for rid, tup := range rows {
				if got[rid] != tup[1].S {
					t.Fatalf("row %v reads %.20q, want %.20q", rid, got[rid], tup[1].S)
				}
			}
		})
	}
}

// appendRow is a row of the append workloads below: about 300 bytes, so
// a page holds a dozen.
func appendRow(i int) Tuple {
	return Tuple{NewInt(int64(i)), NewString(strings.Repeat("x", 280+i%40))}
}

// TestHeapAppendPinsPerRow: appending to a heap four times the pool pins
// about one page per row and reads no page back, however long the chain:
// a first fit that walked the chain would pin every page each time the
// tail filled, and read most of them back from the pager.
func TestHeapAppendPinsPerRow(t *testing.T) {
	const frames = 16
	bp := NewBufferPool(NewMemPager(), nil, frames)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()
	rows := 0
	for ; h.Pages() < 4*frames; rows++ {
		if _, err := h.Insert(appendRow(rows)); err != nil {
			t.Fatal(err)
		}
	}
	s := bp.Stats()
	pins, misses := s.Hits+s.Misses-before.Hits-before.Misses, s.Misses-before.Misses
	grown := int64(h.Pages() - 1)
	t.Logf("%d rows over %d pages: %d pins (%.2f per row), %d misses, %d evictions",
		rows, h.Pages(), pins, float64(pins)/float64(rows), misses, s.Evictions-before.Evictions)
	if pins > 2*int64(rows) {
		t.Fatalf("%d pins for %d appends: more than 2 per row", pins, rows)
	}
	if misses > grown+4 {
		t.Fatalf("%d misses while growing %d pages", misses, grown)
	}
}

// BenchmarkHeapAppend measures row-at-a-time appends to a heap that
// outgrows its 16-frame pool four times over (a fresh heap every 4,096
// rows keeps memory flat), reporting pins per append.
func BenchmarkHeapAppend(b *testing.B) {
	const frames, perHeap = 16, 4096
	var pins int64
	var bp *BufferPool
	var h *HeapFile
	start := func() {
		var err error
		bp = NewBufferPool(NewMemPager(), nil, frames)
		if h, err = CreateHeapFile(bp); err != nil {
			b.Fatal(err)
		}
	}
	count := func() {
		s := bp.Stats()
		pins += s.Hits + s.Misses
	}
	rows := make([]Tuple, perHeap)
	for i := range rows {
		rows[i] = appendRow(i)
	}
	b.ReportAllocs()
	start()
	b.ResetTimer()
	for i := range b.N {
		if i > 0 && i%perHeap == 0 {
			b.StopTimer()
			count()
			start()
			b.StartTimer()
		}
		if _, err := h.Insert(rows[i%perHeap]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	count()
	b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
}

// TestFreeSpaceConcurrentWriters runs writers that insert (growing the
// chain), delete and update their own rows on one heap over a small pool,
// beside scanners. An insert records its page's bound under the page
// latch while a grower holds the chain lock and waits for the tail's
// latch, so the bounds' lock must sit below both: the test must finish.
// Every row inserted and not deleted then reads back exactly once.
func TestFreeSpaceConcurrentWriters(t *testing.T) {
	const writers, scanners, ops = 3, 2, 400
	bp := NewBufferPool(NewMemPager(), nil, 12)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		rid RID
		val string
	}
	kept := make([]map[int64]row, writers)
	errs := make(chan error, writers+scanners)
	stop := make(chan struct{})
	var writersWG, scannersWG sync.WaitGroup
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := map[int64]row{}
			var keys []int64
			val := func(k int64) string {
				return fmt.Sprintf("w%d-%d-%s", w, k, strings.Repeat("v", rng.Intn(700)))
			}
			for i := range int64(ops) {
				switch r := rng.Intn(10); {
				case r < 6 || len(keys) == 0:
					k := int64(w)<<32 | i
					v := val(k)
					rid, err := h.Insert(Tuple{NewInt(k), NewString(v)})
					if err != nil {
						errs <- err
						return
					}
					mine[k] = row{rid, v}
					keys = append(keys, k)
				case r < 8:
					j := rng.Intn(len(keys))
					k := keys[j]
					if _, err := h.Delete(mine[k].rid); err != nil {
						errs <- err
						return
					}
					delete(mine, k)
					keys[j] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
				default:
					k := keys[rng.Intn(len(keys))]
					v := val(k)
					rid, err := h.Update(mine[k].rid, Tuple{NewInt(k), NewString(v)})
					if err != nil {
						errs <- err
						return
					}
					mine[k] = row{rid, v}
				}
			}
			kept[w] = mine
		}()
	}
	for range scanners {
		scannersWG.Add(1)
		go func() {
			defer scannersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := h.Scan(func(RID, Tuple) bool { return true }); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		writersWG.Wait()
		close(stop)
		scannersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("writers and scanners did not finish: a lock-order deadlock")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := map[RID]string{}
	for _, mine := range kept {
		for _, r := range mine {
			want[r.rid] = r.val
		}
	}
	seen := map[RID]bool{}
	if err := h.Scan(func(rid RID, tup Tuple) bool {
		if seen[rid] {
			t.Errorf("row %v read twice", rid)
		}
		seen[rid] = true
		if want[rid] != tup[1].S {
			t.Errorf("row %v reads %.24q, want %.24q", rid, tup[1].S, want[rid])
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("scan read %d rows, the writers kept %d", len(seen), len(want))
	}
	if h.Pages() < 2*12 {
		t.Fatalf("the heap grew to only %d pages", h.Pages())
	}
}
