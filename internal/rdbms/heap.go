package rdbms

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// HeapFile is an unordered collection of tuples stored in a chain of
// slotted pages. All page access goes through the buffer pool, and every
// read or write of page bytes holds that page's latch (see BufferPool);
// transaction-level isolation is provided above it by the lock manager.
// mu serializes growth of the chain (a tail link and its append); it is
// never held just to read page bytes. fs holds the chain order and the
// free-space map inserts search (see freeSpace); its lock is a leaf, taken
// under mu and under page latches, so an insert holding a page latch
// never waits on a grower, who holds mu while it latches the tail.
//
// A slot a live transaction has touched belongs to that transaction until
// it ends (see reserve): no other insert reuses it, and inserts and
// in-place growth on its page leave the bytes its before-image needs
// reclaimable, so undo can always force the before-image back at its own
// RID. resMu guards the reservations. Reads never take it; an insert or
// growth takes it only while the heap holds a reservation (nReserved, read
// atomically, is 0 otherwise), and registering or releasing one takes it
// once.
type HeapFile struct {
	mu    sync.Mutex
	bp    *BufferPool
	first PageID
	fs    freeSpace

	resMu     sync.Mutex
	reserved  map[PageID]reservations
	nReserved atomic.Int64
}

// CreateHeapFile allocates the first page of a new heap.
func CreateHeapFile(bp *BufferPool) (*HeapFile, error) {
	g, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	newSlottedPage(g.Data()).setNext(InvalidPage)
	g.Release(true)
	h := &HeapFile{bp: bp, first: g.ID()}
	h.fs.add(g.ID(), fsUnknown)
	return h, nil
}

// OpenHeapFile reconstructs a heap from its first page by walking the
// chain. The walk tolerates crash artifacts at the tail: a next pointer
// to a page that never became durable (beyond the allocated range), or a
// next of 0 — the link field of a page whose own contents were lost
// reads as zero, and no chain ever links *to* page 0 (links always
// target later allocations, and under a DB page 0 is the catalog). Both
// terminate the chain; any rows on such pages are covered by WAL
// records, and recovery re-adopts the pages it replays onto. The walk
// seeds each page's free-space bound, so the first insert after an open
// searches the map instead of walking the chain again.
func OpenHeapFile(bp *BufferPool, first PageID) (*HeapFile, error) {
	h := &HeapFile{bp: bp, first: first}
	id := first
	for n := 0; id != InvalidPage && (id != 0 || n == 0) && id < bp.NumPages(); n++ {
		// One-touch chain walk: scan-hinted so opening a large heap does
		// not displace the hot working set.
		g, err := bp.PinScan(id)
		if err != nil {
			return nil, err
		}
		p := newSlottedPage(g.Data())
		next, b := p.next(), p.insertBound()
		g.Release(false)
		h.fs.add(id, b)
		id = next
		if n >= 1<<24 {
			return nil, fmt.Errorf("rdbms: heap chain cycle at page %d", id)
		}
	}
	return h, nil
}

// FirstPage returns the head page id (stored in the catalog).
func (h *HeapFile) FirstPage() PageID { return h.first }

// linkLocked points the tail at ids[0] and appends ids, which the caller
// has already chained to each other, to the chain with unknown bounds;
// the caller holds h.mu and no chain page's latch.
func (h *HeapFile) linkLocked(ids ...PageID) error {
	g, err := h.bp.Pin(h.fs.tail(), LatchExclusive)
	if err != nil {
		return err
	}
	newSlottedPage(g.Data()).setNext(ids[0])
	g.Release(true)
	for _, id := range ids {
		h.fs.add(id, fsUnknown)
	}
	return nil
}

// growFrom links a fresh, empty tail page unless the chain already grew
// past the n pages the caller has tried, and returns the chain's length.
func (h *HeapFile) growFrom(n int) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fs.length() == n {
		g, err := h.bp.NewPage()
		if err != nil {
			return 0, err
		}
		id := g.ID()
		newSlottedPage(g.Data()).setNext(InvalidPage)
		g.Release(true)
		if err := h.linkLocked(id); err != nil {
			return 0, err
		}
	}
	return h.fs.length(), nil
}

// applied runs a mutation's onApply hook, if any, while the page is still
// latched, and stamps the page with the LSN the hook logged (0 = unlogged).
func applied(p *slottedPage, rid RID, onApply func(RID) LSN) {
	if onApply != nil {
		if lsn := onApply(rid); lsn != 0 {
			p.setPageLSN(lsn)
		}
	}
}

// reserve records that a live transaction has touched rid and that its
// undo may need bytes of payload back there (the encoded length of the
// row it first found; 0 for a row it inserted). The transaction registers
// the first time it mutates the row, before the heap bytes change, and
// releases at its end (unreserve).
func (h *HeapFile) reserve(rid RID, bytes int) {
	h.resMu.Lock()
	defer h.resMu.Unlock()
	if h.reserved == nil {
		h.reserved = make(map[PageID]reservations)
	}
	res := h.reserved[rid.Page]
	if res.holds(rid.Slot) {
		return // a slot has one owner, which registers once (Txn.noteVersion)
	}
	res.slots = append(res.slots, slotReserve{slot: rid.Slot, bytes: bytes})
	if bytes > 0 {
		res.sized++
	}
	h.reserved[rid.Page] = res
	h.nReserved.Add(1)
}

// unreserve releases rid's reservation, if any.
func (h *HeapFile) unreserve(rid RID) {
	h.resMu.Lock()
	defer h.resMu.Unlock()
	res := h.reserved[rid.Page]
	for i, r := range res.slots {
		if r.slot != rid.Slot {
			continue
		}
		last := len(res.slots) - 1
		res.slots[i] = res.slots[last]
		res.slots = res.slots[:last]
		if r.bytes > 0 {
			res.sized--
		}
		if last == 0 {
			delete(h.reserved, rid.Page)
		} else {
			h.reserved[rid.Page] = res
		}
		h.nReserved.Add(-1)
		return
	}
}

// withReserved runs fn with page id's reservations (empty when none),
// holding resMu while the heap has any. The caller holds the page's write
// latch. A reservation registered after the nReserved load belongs to a
// writer that has not yet changed its slot (that needs this latch), so
// the slot lacks nothing yet.
func (h *HeapFile) withReserved(id PageID, fn func(res reservations)) {
	if h.nReserved.Load() == 0 {
		fn(reservations{})
		return
	}
	h.resMu.Lock()
	defer h.resMu.Unlock()
	fn(h.reserved[id])
}

// Insert stores a tuple and returns its RID.
func (h *HeapFile) Insert(t Tuple) (RID, error) { return h.InsertWhere(t, nil) }

// InsertWhere stores a tuple and, while the target page is still latched,
// invokes onApply with the new RID. Latched pages cannot be evicted, so a
// WAL append performed in onApply is guaranteed to precede any flush of
// the modified page (the write-ahead rule). onApply returns the LSN of
// the record it logged, which is stamped into the page header (the page
// LSN recovery's redo gating compares against); return 0 for unlogged
// mutations.
func (h *HeapFile) InsertWhere(t Tuple, onApply func(RID) LSN) (RID, error) {
	rec := EncodeTuple(t)
	if len(rec)+slotSize > PageSize-pageHeaderSize {
		return RID{}, fmt.Errorf("rdbms: tuple of %d bytes exceeds page capacity", len(rec))
	}
	// The tail first (append-mostly workloads), then the earlier pages in
	// chain order, then pages grown for rec: first fit in that order.
	// firstFit passes over only pages whose bound says insertInto would
	// refuse rec, so rec lands where trying every page would place it.
	n := h.fs.length()
	if rid, ok, err := h.insertFirstFit(n-1, n, rec, onApply); ok || err != nil {
		return rid, err
	}
	if rid, ok, err := h.insertFirstFit(0, n-1, rec, onApply); ok || err != nil {
		return rid, err
	}
	for {
		// Every page tried is full: grow, then try only the new pages.
		m, err := h.growFrom(n)
		if err != nil {
			return RID{}, err
		}
		if rid, ok, err := h.insertFirstFit(n, m, rec, onApply); ok || err != nil {
			return rid, err
		}
		n = m
	}
}

// insertFirstFit tries, in chain order, the pages at positions [lo, hi)
// whose bound admits rec, until one takes it.
func (h *HeapFile) insertFirstFit(lo, hi int, rec []byte, onApply func(RID) LSN) (RID, bool, error) {
	for {
		pos, id, ok := h.fs.firstFit(lo, hi, len(rec))
		if !ok {
			return RID{}, false, nil
		}
		if rid, ok, err := h.insertInto(id, rec, onApply); ok || err != nil {
			return rid, ok, err
		}
		lo = pos + 1
	}
}

// insertInto places rec on page id under its write latch if it fits, and
// records the page's bound as the attempt leaves it, still latched: a
// bound stored after the latch dropped could understate room a delete
// freed in between.
func (h *HeapFile) insertInto(id PageID, rec []byte, onApply func(RID) LSN) (rid RID, ok bool, err error) {
	g, err := h.bp.Pin(id, LatchExclusive)
	if err != nil {
		return RID{}, false, err
	}
	defer func() { g.Release(ok) }()
	p := newSlottedPage(g.Data())
	if b := p.insertBound(); b < len(rec) {
		// Full for rec whatever the reservations say.
		h.fs.set(id, b)
		return RID{}, false, nil
	}
	var slot uint16
	h.withReserved(id, func(res reservations) { slot, ok = p.insert(rec, res) })
	h.fs.set(id, p.insertBound())
	if !ok {
		return RID{}, false, nil
	}
	rid = RID{Page: id, Slot: slot}
	applied(p, rid, onApply)
	return rid, true, nil
}

// Adopt links an already-allocated page into the heap chain unless it is
// already part of it. Recovery uses this for pages that were allocated
// before a crash but whose chain link never reached disk. The page is
// (re)initialized if blank.
func (h *HeapFile) Adopt(id PageID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fs.contains(id) {
		return nil
	}
	g, err := h.bp.Pin(id, LatchExclusive)
	if err != nil {
		return err
	}
	newSlottedPage(g.Data()).setNext(InvalidPage)
	g.Release(true)
	return h.linkLocked(id)
}

// SlotContent is the target state of one slot for RedoSlot / ForceSlot.
type SlotContent struct {
	Live bool
	Tup  Tuple
}

// setSlotContent forces slot s of p to exactly sc: dead slots are
// tombstoned (extending the slot array if s is beyond it), live contents
// are placed slot-pinned — rows never move to another RID — compacting
// the page as needed. Reservations do not apply: the writes it serves are
// the reservation owners' own restores, and redo of what the page held.
func setSlotContent(p *slottedPage, s uint16, sc SlotContent) error {
	for p.numSlots() <= s {
		if !p.room(slotSize, 0) {
			return fmt.Errorf("no slot space")
		}
		n := p.numSlots()
		p.setSlot(n, 0, tombstoneLen)
		p.setNumSlots(n + 1)
	}
	p.setSlot(s, 0, tombstoneLen)
	if !sc.Live {
		return nil
	}
	rec := EncodeTuple(sc.Tup)
	if !p.room(len(rec), 0) {
		return fmt.Errorf("no space for %d bytes", len(rec))
	}
	newStart := p.freeStart() - uint16(len(rec))
	copy(p.data[newStart:], rec)
	p.setFreeStart(newStart)
	p.setSlot(s, newStart, uint16(len(rec)))
	return nil
}

// RedoSlot applies one logged mutation's outcome to a page iff the page
// has not seen it: the record is applied only when pageLSN < lsn, and the
// page is then stamped with lsn. Because mutations stamp the page in log
// order, pageLSN >= lsn means the page already reflects this record (and
// possibly later ones) — skipping it is what makes physical redo
// idempotent: replaying the same WAL tail twice over recovered pages is a
// no-op. Returns whether the record was applied.
func (h *HeapFile) RedoSlot(rid RID, sc SlotContent, lsn LSN) (bool, error) {
	g, err := h.bp.Pin(rid.Page, LatchExclusive)
	if err != nil {
		return false, err
	}
	p := newSlottedPage(g.Data())
	if p.pageLSN() >= lsn {
		g.Release(false)
		return false, nil
	}
	defer g.Release(true)
	defer h.fs.forget(rid.Page)
	if err := setSlotContent(p, rid.Slot, sc); err != nil {
		return false, fmt.Errorf("rdbms: redo %v: %w", rid, err)
	}
	p.setPageLSN(lsn)
	return true, nil
}

// ForceSlot sets a slot's content unconditionally, with an onApply hook
// (see InsertWhere). Undo uses it to put rows back to their before-images:
// "set slot to X" is state-idempotent, so re-running undo after a crash
// converges to the same pages, and the slot's reservation guarantees a
// before-image fits at its own RID.
func (h *HeapFile) ForceSlot(rid RID, sc SlotContent, onApply func(RID) LSN) error {
	g, err := h.bp.Pin(rid.Page, LatchExclusive)
	if err != nil {
		return err
	}
	defer g.Release(true)
	defer h.fs.forget(rid.Page)
	p := newSlottedPage(g.Data())
	if err := setSlotContent(p, rid.Slot, sc); err != nil {
		return fmt.Errorf("rdbms: undo %v: %w", rid, err)
	}
	applied(p, rid, onApply)
	return nil
}

// Get reads the tuple at rid under its page's read latch; ok is false for
// deleted or absent rows.
func (h *HeapFile) Get(rid RID) (Tuple, bool, error) {
	g, err := h.bp.Pin(rid.Page, LatchShared)
	if err != nil {
		return nil, false, err
	}
	defer g.Release(false)
	rec, ok := newSlottedPage(g.Data()).read(rid.Slot)
	if !ok {
		return nil, false, nil
	}
	t, err := DecodeTuple(rec)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Delete tombstones the tuple at rid.
func (h *HeapFile) Delete(rid RID) (bool, error) { return h.DeleteWith(rid, nil) }

// DeleteWith tombstones the tuple at rid with an onApply hook (see
// InsertWhere for the write-ahead rationale and the page-LSN stamping
// contract).
func (h *HeapFile) DeleteWith(rid RID, onApply func(RID) LSN) (bool, error) {
	g, err := h.bp.Pin(rid.Page, LatchExclusive)
	if err != nil {
		return false, err
	}
	defer g.Release(true)
	p := newSlottedPage(g.Data())
	ok := p.del(rid.Slot)
	if ok {
		h.fs.forget(rid.Page)
		applied(p, rid, onApply)
	}
	return ok, nil
}

// Update replaces the tuple at rid in place. If the new tuple no longer
// fits in the page, Update deletes the old row and inserts elsewhere,
// returning the (possibly new) RID.
func (h *HeapFile) Update(rid RID, t Tuple) (RID, error) {
	newRID, ok, err := h.TryUpdateInPlace(rid, t, nil)
	if err != nil {
		return RID{}, err
	}
	if ok {
		return newRID, nil
	}
	deleted, err := h.Delete(rid)
	if err != nil {
		return RID{}, fmt.Errorf("rdbms: update of %v: %w", rid, err)
	}
	if !deleted {
		return RID{}, fmt.Errorf("rdbms: update of missing row %v", rid)
	}
	return h.Insert(t)
}

// TryUpdateInPlace replaces the tuple at rid if the new encoding fits in
// its page, with an onApply hook (see InsertWhere). Growth leaves the
// bytes the page's reservations lack reclaimable. ok is false when the
// tuple must move (caller performs delete+insert, each separately logged).
func (h *HeapFile) TryUpdateInPlace(rid RID, t Tuple, onApply func(RID) LSN) (newRID RID, ok bool, err error) {
	rec := EncodeTuple(t)
	g, err := h.bp.Pin(rid.Page, LatchExclusive)
	if err != nil {
		return RID{}, false, err
	}
	defer func() { g.Release(ok) }()
	p := newSlottedPage(g.Data())
	h.withReserved(rid.Page, func(res reservations) { ok = p.update(rid.Slot, rec, res) })
	if !ok {
		if _, live := p.read(rid.Slot); !live {
			return RID{}, false, fmt.Errorf("rdbms: update of missing row %v", rid)
		}
		return RID{}, false, nil
	}
	h.fs.forget(rid.Page)
	applied(p, rid, onApply)
	return rid, true, nil
}

// Scan calls fn for every live tuple in page-chain order. Each page's
// rows are decoded under its read latch and fn runs outside it, so
// writers interleave between pages. Returning false stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, t Tuple) bool) error {
	_, err := scanHeap(h, visibility{}, nil, nil, &tupleSink{fn: fn})
	return err
}

// readPage hands fn the record bytes of each live slot of page id, in
// slot order, under one scan-hinted pin and the page's read latch: a full
// sweep recycles one probationary frame per page instead of flushing the
// protected working set. fn runs under the latch, so it must not retain
// rec or pin a page; a non-nil error from fn stops the walk.
func (h *HeapFile) readPage(id PageID, fn func(slot uint16, rec []byte) error) error {
	g, err := h.bp.PinScan(id)
	if err != nil {
		return err
	}
	defer g.Release(false)
	p := newSlottedPage(g.Data())
	n := p.numSlots()
	for s := uint16(0); s < n; s++ {
		rec, ok := p.read(s)
		if !ok {
			continue
		}
		if err := fn(s, rec); err != nil {
			return err
		}
	}
	return nil
}

// readRun hands fn the record bytes at each rid of run — rids that all
// lie on one page — in run order, under one pin and the page's read
// latch (live is false for a dead or absent slot). The pin is an ordinary
// one, like Get's. fn runs under the latch, so it must not retain rec or
// pin a page; it returns false to stop the run.
func (h *HeapFile) readRun(run []RID, fn func(rid RID, rec []byte, live bool) (bool, error)) error {
	g, err := h.bp.Pin(run[0].Page, LatchShared)
	if err != nil {
		return err
	}
	defer g.Release(false)
	p := newSlottedPage(g.Data())
	for _, rid := range run {
		rec, live := p.read(rid.Slot)
		if more, err := fn(rid, rec, live); err != nil || !more {
			return err
		}
	}
	return nil
}

// Count returns the number of live tuples (full scan).
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, Tuple) bool { n++; return true })
	return n, err
}

// Pages returns the number of pages in the chain.
func (h *HeapFile) Pages() int { return h.fs.length() }
