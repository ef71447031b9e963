package rdbms

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoolExhausted is the sentinel wrapped by the buffer pool when every
// frame is pinned and a new page cannot be admitted. It is a capacity
// refusal, not a corruption: callers that can shed or retry (the server
// front end maps it to a typed "overloaded" response) check it with
// errors.Is.
var ErrPoolExhausted = errors.New("rdbms: buffer pool exhausted")

// BufferPool caches pages in memory with scan-resistant segmented-LRU
// eviction and pin counting. Dirty pages are written back on eviction or
// Flush.
//
// Replacement policy (PR10): frames live on one of two recency queues.
// A page enters the probationary queue on first touch and is promoted
// to the protected queue only when re-referenced — so a page must prove
// reuse before it can displace the working set. The protected queue is
// capacity-bounded (~3/4 of the pool); promoting into a full protected
// queue demotes its coldest page back to probation rather than growing.
// Eviction always takes the coldest unpinned probationary frame first,
// falling back to protected only when probation is empty.
//
// Scan resistance comes from the PinScan hint: sequential-scan paths
// (heap scans, the chain walk at open) pin with it, and a scan miss
// inserts the page at the COLD end of probation — the next eviction's
// first victim — while a scan hit leaves queue positions untouched. A
// full table scan therefore recycles one probationary slot per page and
// cannot flush the protected working set, which is exactly the
// scan-thrashing failure mode of the flat LRU this replaces (and which
// the larger-than-RAM oracle demonstrates by swapping it in through
// newBufferPool's flat mode).
//
// A 2Q-style ghost list closes the cold-start gap: without it, a hot set
// larger than the probation queue can cycle through probation without
// ever scoring the resident re-reference that promotion requires, while
// stale early promotions squat in protected forever. The pool therefore
// remembers the IDs (only the IDs) of recently evicted non-scan frames;
// a miss on a remembered page is a re-reference the frame cap hid, and
// is admitted straight to protected — displacing exactly those stale
// squatters. Scan-admitted frames never enter the ghost list, so sweeps
// cannot use it to manufacture reuse.
//
// The pool is where the write-ahead rule is enforced: no dirty page
// reaches the pager before the WAL records describing its changes are
// durable. Mutators append their log record while the modified page is
// latched (see HeapFile.InsertWhere), latched pages cannot be evicted, and
// every write-back path below flushes the WAL up to the page's LSN first
// — so the before-image of any flushed change is always recoverable.
//
// The pool also maintains each dirty frame's recLSN — a conservative
// lower bound on the LSN of the first record that dirtied it since it
// was last clean — and remembers the recLSNs of pages written back but
// not yet covered by a pager sync. min over both is the WAL-truncation
// horizon a fuzzy checkpoint may not pass: every record below it
// describes changes that are durably in the data pages.
//
// The pool is the one owner of page concurrency. Every frame carries a
// read/write latch, and the only way to reach page bytes is a PageGuard:
// Pin, PinScan and NewPage return one holding the pin and the frame's
// latch (shared for readers, exclusive for NewPage and writers), and its
// Release drops the latch, then the pin. Data is dead after Release: the
// frame's buffer may next hold another page. The latch order:
//
//   - Hold at most one chain-reachable page latch at a time. Fresh pages
//     that no chain links to yet are the only exception: they may stay
//     latched while another page (the tail that will link them) is
//     latched.
//   - Never wait on a latch while holding bp.mu: pin takes the pin under
//     bp.mu and the latch after releasing it. Taking bp.mu while holding
//     a latch is allowed (a write-back and a failed read do).
//   - No I/O under bp.mu, except Flush's per-frame write of an unpinned
//     frame. A miss and a dirty victim's write-back do their I/O outside
//     it, holding a pin and the frame's latch instead. A write-back only
//     tries its victim's latch, so eviction never waits on a latch.
//
// A frame is in one of four states:
//
//   - resident: in the table and on a queue, holding its page's bytes;
//   - reading: a miss installed it in the table, pinned and exclusively
//     latched, and is filling it from the pager without bp.mu. A second
//     pinner of the page finds it and waits on its latch, not on the
//     pool. A failed read takes it out of the table and its queue and
//     leaves the error in it; each waiter returns that error and drops
//     its pin, and the last pin out frees it;
//   - writing back: a dirty resident victim the pool pinned and holds
//     shared-latched while it flushes the WAL and writes the page, so
//     readers may share it and no writer mutates it mid-write. The pool
//     reclaims it afterwards only if it is by then clean and unpinned;
//   - free: out of the table, unpinned, its buffer kept for the next
//     miss or NewPage.
//
// Frames are allocated lazily, one per miss or NewPage, until capacity
// exist; from then on a miss recycles a free frame or its victim's frame,
// buffer included, so a steady-state miss allocates nothing and the pool
// never holds more than capacity buffers.
type BufferPool struct {
	mu           sync.Mutex
	pager        Pager
	wal          *WAL // flushed before any page write-back; nil disables the rule
	capacity     int
	protectedCap int  // max protected frames; 0 in flat mode
	flat         bool // single-queue LRU, scan hints ignored (oracle baseline)
	frames       map[PageID]*frame
	probation    frameList
	protected    frameList // empty in flat mode

	// nframes counts the frames allocated so far (never above capacity);
	// free holds those out of the table and unpinned.
	nframes int
	free    []*frame

	// ghost remembers recently evicted non-scan page IDs (no data): a
	// miss on one is proven reuse and admits the page straight to
	// protected. Bounded at the pool capacity; unused in flat mode.
	ghost ghostRing

	// unsynced holds the recLSN of every frame written back since the
	// last pager sync: written is not durable, so those records must
	// survive truncation until a sync covers them. Entries are stamped
	// with syncEpoch so a write-back racing an in-flight pager sync (not
	// guaranteed to be covered by it) survives that sync's clear.
	unsynced  map[PageID]unsyncedRec
	syncEpoch uint64

	hits       int64
	misses     int64
	evictions  int64
	scanBypass int64 // scan-hinted misses admitted evict-first
	promotions int64 // probation -> protected moves (incl. ghost readmissions)
	ghostHits  int64 // misses admitted via the ghost list
}

type unsyncedRec struct {
	lsn   LSN
	epoch uint64
}

// bufQueue names the recency queue a frame is on.
type bufQueue uint8

const (
	qProbation bufQueue = iota
	qProtected
)

type frame struct {
	id    PageID
	data  []byte
	latch sync.RWMutex // guards data; held only by a PageGuard, a miss or a write-back
	pins  int
	dirty bool
	// err is a failed read's error, set before the reader drops the
	// latch: a waiter that then gets the latch returns it.
	err error

	prev, next *frame // links on the queue named by queue
	queue      bufQueue
	// scanAdmit marks a frame admitted by a scan-hinted miss: on
	// eviction it is forgotten outright instead of entering the ghost
	// list. Cleared by any normal hit (which promotes anyway).
	scanAdmit bool

	// pinLSN is the WAL's next-LSN sampled when the current pin group
	// started (pins went 0 -> 1): any record appended while any of those
	// pins is held has an LSN >= pinLSN. recLSN is pinLSN frozen at the
	// clean -> dirty transition — a conservative lower bound on the first
	// record covering the frame's unwritten changes.
	pinLSN LSN
	recLSN LSN
}

// frameList is an intrusive recency queue; front = most recently used.
type frameList struct {
	front, back *frame
	n           int
}

func (l *frameList) pushFront(f *frame) {
	f.prev, f.next = nil, l.front
	if l.front != nil {
		l.front.prev = f
	} else {
		l.back = f
	}
	l.front = f
	l.n++
}

func (l *frameList) pushBack(f *frame) {
	f.prev, f.next = l.back, nil
	if l.back != nil {
		l.back.next = f
	} else {
		l.front = f
	}
	l.back = f
	l.n++
}

func (l *frameList) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.front = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.back = f.prev
	}
	f.prev, f.next = nil, nil
	l.n--
}

func (l *frameList) moveToFront(f *frame) {
	if l.front != f {
		l.remove(f)
		l.pushFront(f)
	}
}

// ghostRing is the ghost list: page IDs in eviction order, oldest first,
// at most max of them. A readmitted ID is forgotten in place (its slot
// becomes InvalidPage, which no evicted page carries); remembering past
// max drops the oldest. The ring has 2*max slots and is compacted when
// full, so each operation is amortized O(1) and allocation-free.
type ghostRing struct {
	ids        []PageID
	at         map[PageID]uint64 // id -> sequence number of its newest slot
	head, tail uint64            // slots [tail, head) are in use
	n, max     int               // n: slots in use that are not forgotten
}

func newGhostRing(max int) ghostRing {
	return ghostRing{ids: make([]PageID, 2*max), at: make(map[PageID]uint64), max: max}
}

func (g *ghostRing) slot(seq uint64) *PageID { return &g.ids[seq%uint64(len(g.ids))] }

// forget removes id, reporting whether it was remembered.
func (g *ghostRing) forget(id PageID) bool {
	seq, ok := g.at[id]
	if !ok {
		return false
	}
	*g.slot(seq) = InvalidPage
	delete(g.at, id)
	g.n--
	return true
}

// remember appends id as the newest entry, dropping the oldest past max.
func (g *ghostRing) remember(id PageID) {
	if g.head-g.tail == uint64(len(g.ids)) {
		g.compact()
	}
	*g.slot(g.head) = id
	g.at[id] = g.head
	g.head++
	g.n++
	for g.n > g.max {
		for *g.slot(g.tail) == InvalidPage {
			g.tail++
		}
		delete(g.at, *g.slot(g.tail))
		g.tail++
		g.n--
	}
}

// compact squeezes the forgotten slots out of [tail, head), keeping order.
func (g *ghostRing) compact() {
	w := g.tail
	for r := g.tail; r < g.head; r++ {
		id := *g.slot(r)
		if id == InvalidPage {
			continue
		}
		if seq, ok := g.at[id]; ok && seq == r {
			g.at[id] = w
		}
		*g.slot(w) = id
		w++
	}
	g.head = w
}

// BufferStats is a consistent snapshot of the pool's counters and
// occupancy, threaded up through core.EngineStats to unidbd health.
type BufferStats struct {
	Hits       int64 // pins served from a resident frame
	Misses     int64 // pins that read through the pager
	Evictions  int64 // frames displaced to admit another page
	ScanBypass int64 // scan-hinted misses admitted evict-first
	Promotions int64 // probation -> protected moves (0 in flat mode)
	GhostHits  int64 // misses readmitted via the ghost list (0 in flat mode)
	Capacity   int   // frame capacity
	Resident   int   // frames currently held
	Protected  int   // frames on the protected queue
	Dirty      int   // resident frames with unwritten changes
}

// HitRate returns hits / (hits + misses), or 0 before any pin.
func (s BufferStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewBufferPool wraps pager with a scan-resistant cache of capacity
// pages. A non-nil wal is flushed (up to the page LSN) before any dirty
// page is written back (the WAL rule); pass nil for pools that do not
// participate in logging (tests, benchmarks).
func NewBufferPool(pager Pager, wal *WAL, capacity int) *BufferPool {
	return newBufferPool(pager, wal, capacity, false)
}

func newBufferPool(pager Pager, wal *WAL, capacity int, flat bool) *BufferPool {
	if capacity < 2 {
		capacity = 2
	}
	protectedCap := capacity * 3 / 4
	if protectedCap < 1 {
		protectedCap = 1
	}
	if protectedCap >= capacity {
		protectedCap = capacity - 1
	}
	if flat {
		protectedCap = 0
	}
	return &BufferPool{
		pager:        pager,
		wal:          wal,
		capacity:     capacity,
		protectedCap: protectedCap,
		flat:         flat,
		frames:       make(map[PageID]*frame),
		ghost:        newGhostRing(capacity),
		unsynced:     make(map[PageID]unsyncedRec),
	}
}

// queueOf returns the queue a frame is on.
func (bp *BufferPool) queueOf(f *frame) *frameList {
	if f.queue == qProtected {
		return &bp.protected
	}
	return &bp.probation
}

// touchLocked applies the replacement policy to a hit on f. Normal hits
// promote probationary frames into protected (demoting the protected
// tail if full) and refresh protected recency; scan hits leave every
// queue position untouched so a sweep cannot manufacture recency.
func (bp *BufferPool) touchLocked(f *frame, scan bool) {
	if bp.flat {
		bp.probation.moveToFront(f)
		return
	}
	if scan {
		return
	}
	f.scanAdmit = false
	if f.queue == qProtected {
		bp.protected.moveToFront(f)
		return
	}
	// Re-referenced on probation: proven reuse, promote.
	bp.probation.remove(f)
	f.queue = qProtected
	bp.protected.pushFront(f)
	bp.promotions++
	bp.demoteOverflowLocked()
}

// demoteOverflowLocked restores the protected queue's bound after a
// promotion: its coldest page moves back to the warm end of probation
// (a second chance) rather than the queue growing.
func (bp *BufferPool) demoteOverflowLocked() {
	if bp.protected.n <= bp.protectedCap {
		return
	}
	d := bp.protected.back
	bp.protected.remove(d)
	d.queue = qProbation
	bp.probation.pushFront(d)
}

// insertLocked places a newly admitted frame according to the policy:
// scans enter at the cold end of probation (next eviction's first
// victim), ghost-remembered pages go straight to protected (the miss IS
// the re-reference the frame cap hid), everything else enters at the
// warm end of probation.
func (bp *BufferPool) insertLocked(f *frame, scan bool) {
	f.scanAdmit = false
	if !bp.flat {
		if scan {
			f.queue = qProbation
			f.scanAdmit = true
			bp.probation.pushBack(f)
			bp.scanBypass++
			return
		}
		if bp.ghost.forget(f.id) {
			f.queue = qProtected
			bp.protected.pushFront(f)
			bp.promotions++
			bp.ghostHits++
			bp.demoteOverflowLocked()
			return
		}
	}
	f.queue = qProbation
	bp.probation.pushFront(f)
}

// installLocked makes f, a frame no one else can reach, id's entry:
// pinned once, placed by the policy, and exclusively latched (which
// cannot wait: no one else holds f).
func (bp *BufferPool) installLocked(f *frame, id PageID, scan bool) {
	f.id, f.pins, f.dirty, f.err, f.pinLSN, f.recLSN = id, 1, false, nil, 0, 0
	if bp.wal != nil {
		f.pinLSN = bp.wal.NextLSN()
	}
	f.latch.Lock()
	bp.insertLocked(f, scan)
	bp.frames[id] = f
}

// pinLocked adds a pin to a frame in the table.
func (bp *BufferPool) pinLocked(f *frame) {
	if f.pins == 0 && bp.wal != nil {
		f.pinLSN = bp.wal.NextLSN()
	}
	f.pins++
}

// unpinLocked drops a pin; the last pin out of a frame a failed read
// took out of the table frees it.
func (bp *BufferPool) unpinLocked(f *frame) {
	f.pins--
	if f.pins == 0 && f.err != nil {
		bp.free = append(bp.free, f)
	}
}

// writeOut enforces the WAL rule and writes f's bytes to the pager. The
// caller keeps writers off f.data: it holds bp.mu with f unpinned, or
// f's latch.
func (bp *BufferPool) writeOut(f *frame) error {
	if bp.wal != nil {
		// Flush the log only up to the page's last stamped record: +1 so
		// the record STARTING at pageLSN is covered whole (flush targets
		// land on record boundaries, so any boundary past the start is at
		// or past the end).
		if err := bp.wal.FlushTo(pageLSNOf(f.data) + 1); err != nil {
			return err
		}
	}
	return bp.pager.WritePage(f.id, f.data)
}

// cleanedLocked marks f clean after writeOut: its recLSN moves to the
// unsynced set, since the write is not durable until the next pager sync.
func (bp *BufferPool) cleanedLocked(f *frame) {
	rec := unsyncedRec{lsn: f.recLSN, epoch: bp.syncEpoch}
	if prev, ok := bp.unsynced[f.id]; ok && prev.lsn < rec.lsn {
		rec.lsn = prev.lsn // keep the older (more conservative) bound
	}
	bp.unsynced[f.id] = rec
	f.dirty = false
	f.recLSN = 0
}

// LatchMode selects the latch a PageGuard holds on its frame.
type LatchMode uint8

const (
	LatchShared    LatchMode = iota // readers; any number at once
	LatchExclusive                  // writers; alone on the page
)

func (f *frame) lock(mode LatchMode) {
	if mode == LatchExclusive {
		f.latch.Lock()
	} else {
		f.latch.RLock()
	}
}

func (f *frame) unlock(mode LatchMode) {
	if mode == LatchExclusive {
		f.latch.Unlock()
	} else {
		f.latch.RUnlock()
	}
}

// PageGuard is a pinned page holding its frame's latch. Data aliases the
// cached frame and is valid until Release — after it the buffer may hold
// another page; only an exclusive guard may modify it. ID stays valid
// after Release.
type PageGuard struct {
	bp   *BufferPool
	f    *frame
	id   PageID
	mode LatchMode
}

// ID returns the guarded page's id.
func (g PageGuard) ID() PageID { return g.id }

// Data returns the guarded page's bytes.
func (g PageGuard) Data() []byte { return g.f.data }

// Release drops the latch, then the pin; dirty marks the frame modified.
func (g PageGuard) Release(dirty bool) {
	g.f.unlock(g.mode)
	g.bp.mu.Lock()
	g.f.pins--
	if dirty && !g.f.dirty {
		g.f.dirty = true
		g.f.recLSN = g.f.pinLSN
	}
	g.bp.mu.Unlock()
}

// Pin fetches a page into the pool, pins it, and latches it in mode.
func (bp *BufferPool) Pin(id PageID, mode LatchMode) (PageGuard, error) {
	return bp.pin(id, mode, false)
}

// PinScan is a shared Pin with the sequential-scan hint: a one-touch
// page is admitted evict-first and a resident page's recency is not
// refreshed, so a full scan cannot displace the hot working set.
// Correctness is identical to Pin — the hint only biases replacement.
func (bp *BufferPool) PinScan(id PageID) (PageGuard, error) {
	return bp.pin(id, LatchShared, true)
}

func (bp *BufferPool) pin(id PageID, mode LatchMode, scan bool) (PageGuard, error) {
	bp.mu.Lock()
	for {
		if f, ok := bp.frames[id]; ok {
			bp.pinLocked(f)
			bp.touchLocked(f, scan)
			bp.hits++
			bp.mu.Unlock()
			// The pin keeps f resident; the latch is taken outside bp.mu,
			// and waits out a miss still reading f.
			f.lock(mode)
			if f.err != nil {
				f.unlock(mode)
				bp.mu.Lock()
				bp.unpinLocked(f)
				bp.mu.Unlock()
				return PageGuard{}, f.err
			}
			return PageGuard{bp: bp, f: f, id: id, mode: mode}, nil
		}
		f, err := bp.takeFrameLocked()
		if err != nil {
			bp.misses++
			bp.mu.Unlock()
			return PageGuard{}, err
		}
		if _, ok := bp.frames[id]; ok {
			// A write-back dropped bp.mu and another pinner read id in
			// meanwhile: keep the frame for later and pin theirs.
			bp.free = append(bp.free, f)
			continue
		}
		bp.misses++
		bp.installLocked(f, id, scan)
		bp.mu.Unlock()
		if err := bp.read(f); err != nil {
			return PageGuard{}, err
		}
		if mode == LatchShared {
			f.latch.Unlock()
			f.latch.RLock()
		}
		return PageGuard{bp: bp, f: f, id: id, mode: mode}, nil
	}
}

// errReadAbandoned is what a miss's waiters get when the pager panicked
// mid-read (the fault harness's simulated crash).
var errReadAbandoned = errors.New("rdbms: page read abandoned")

// read fills f, which a miss installed pinned and exclusively latched,
// from the pager, without bp.mu. On success f stays latched for the
// caller. On failure — a panic included — f leaves the table and its
// queue carrying the error, the latch and the reader's pin are dropped,
// and waiters wake to the error.
func (bp *BufferPool) read(f *frame) (err error) {
	err = errReadAbandoned
	defer func() {
		if err == nil {
			return
		}
		bp.mu.Lock()
		f.err = err
		delete(bp.frames, f.id)
		bp.queueOf(f).remove(f)
		bp.mu.Unlock()
		f.latch.Unlock()
		bp.mu.Lock()
		bp.unpinLocked(f)
		bp.mu.Unlock()
	}()
	err = bp.pager.ReadPage(f.id, f.data)
	return err
}

// NewPage allocates a fresh page and returns it pinned and exclusively
// latched. It takes the frame before allocating, so a pool that cannot
// admit the page leaves the pager unchanged.
func (bp *BufferPool) NewPage() (PageGuard, error) {
	bp.mu.Lock()
	f, err := bp.takeFrameLocked()
	bp.mu.Unlock()
	if err != nil {
		return PageGuard{}, err
	}
	id, err := bp.pager.Allocate()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err != nil {
		bp.free = append(bp.free, f)
		return PageGuard{}, err
	}
	clear(f.data) // slotted pages read zero bytes as empty
	bp.installLocked(f, id, false)
	f.dirty = true
	f.recLSN = f.pinLSN
	return PageGuard{bp: bp, f: f, id: id, mode: LatchExclusive}, nil
}

// takeFrameLocked returns a frame no one else can reach, out of the
// table and unpinned: a free one, a new one while fewer than capacity
// exist, or else the coldest unpinned frame, evicted. A dirty victim is
// written back first without bp.mu (which takeFrameLocked drops and
// retakes), and the search starts over: the written frame is reclaimed
// only if it is still the coldest candidate, clean and unpinned.
func (bp *BufferPool) takeFrameLocked() (*frame, error) {
	for {
		if n := len(bp.free); n > 0 {
			f := bp.free[n-1]
			bp.free = bp.free[:n-1]
			return f, nil
		}
		if bp.nframes < bp.capacity {
			bp.nframes++
			return &frame{data: make([]byte, PageSize)}, nil
		}
		v := bp.victimLocked()
		if v == nil {
			return nil, fmt.Errorf("%w (%d frames all pinned)", ErrPoolExhausted, bp.capacity)
		}
		if v.dirty {
			if err := bp.writeBackLocked(v); err != nil {
				return nil, err
			}
			continue
		}
		bp.queueOf(v).remove(v)
		delete(bp.frames, v.id)
		if !bp.flat && !v.scanAdmit {
			// Scan-admitted frames are forgotten outright: a sweep must not
			// be able to fake reuse through the ghost list.
			bp.ghost.remember(v.id)
		}
		bp.evictions++
		return v, nil
	}
}

// writeBackLocked writes dirty victim v back with bp.mu released, holding
// a pin and v's shared latch: readers may pin and read v meanwhile, a
// writer waits. The pool never waits on a victim's latch: if a writer
// pinned v since it was picked and holds or awaits the latch, v is left
// to it (that writer's pin keeps it from being picked again). v is marked
// clean under bp.mu while still latched, so every change the write missed
// comes from a writer yet to Release, which marks v dirty again. Called
// and returns with bp.mu held; if the I/O panics, it unwinds with bp.mu
// released and v's pin and latch dropped.
func (bp *BufferPool) writeBackLocked(v *frame) error {
	bp.pinLocked(v)
	bp.mu.Unlock()
	if !v.latch.TryRLock() {
		bp.mu.Lock()
		bp.unpinLocked(v)
		return nil
	}
	locked := false
	defer func() {
		if !locked {
			v.latch.RUnlock()
			bp.mu.Lock()
			bp.unpinLocked(v)
			bp.mu.Unlock()
		}
	}()
	err := bp.writeOut(v)
	bp.mu.Lock()
	locked = true
	if err == nil {
		bp.cleanedLocked(v)
	}
	v.latch.RUnlock()
	bp.unpinLocked(v)
	return err
}

// victimLocked finds the coldest unpinned frame: probation tail first,
// protected tail only when probation holds no candidate.
func (bp *BufferPool) victimLocked() *frame {
	for _, q := range [...]*frameList{&bp.probation, &bp.protected} {
		for f := q.back; f != nil; f = f.prev {
			if f.pins == 0 {
				return f
			}
		}
	}
	return nil
}

// Flush writes dirty frames back and syncs the pager. It is fuzzy: the
// pool lock is taken per frame, not across the whole pass, so committers
// keep pinning and mutating other pages while a checkpoint flushes —
// this is what removes the checkpoint's quiesce stall. A frame pinned at
// its turn is skipped and simply stays dirty (its recLSN keeps holding
// the WAL-truncation horizon back); frames dirtied after the snapshot
// are caught by the next checkpoint.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	ids := make([]PageID, 0, len(bp.frames))
	for id, f := range bp.frames {
		if f.dirty {
			ids = append(ids, id)
		}
	}
	bp.mu.Unlock()
	for _, id := range ids {
		// Per-frame closure so the pool lock is released even if the
		// write-back panics (the fault harness's simulated crash fires
		// inside device I/O; a leaked bp.mu would wedge every concurrent
		// committer that should instead die its own death).
		err := func() error {
			bp.mu.Lock()
			defer bp.mu.Unlock()
			f, ok := bp.frames[id]
			if !ok || !f.dirty || f.pins > 0 {
				return nil
			}
			if err := bp.writeOut(f); err != nil {
				return err
			}
			bp.cleanedLocked(f)
			return nil
		}()
		if err != nil {
			return err
		}
	}
	// Sync covers exactly the writes issued before it started. Bumping
	// syncEpoch first makes any write-back that races in during the sync
	// carry a newer stamp, so the post-sync clear (entries with an older
	// stamp only) can never discard the recLSN of a page write the fsync
	// did not cover — even a re-write of a page that was also in the
	// covered set.
	bp.mu.Lock()
	bp.syncEpoch++
	cut := bp.syncEpoch
	bp.mu.Unlock()
	if err := bp.pager.Sync(); err != nil {
		return err
	}
	bp.mu.Lock()
	for id, rec := range bp.unsynced {
		if rec.epoch < cut {
			delete(bp.unsynced, id)
		}
	}
	bp.mu.Unlock()
	return nil
}

// HasPendingWrites reports whether any frame is dirty or any write-back
// is still uncovered by a pager sync — i.e. whether a checkpoint's flush
// would have work to do.
func (bp *BufferPool) HasPendingWrites() bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.unsynced) > 0 {
		return true
	}
	for _, f := range bp.frames {
		if f.dirty {
			return true
		}
	}
	return false
}

// MinRecLSN returns the smallest recLSN across dirty frames and
// written-but-unsynced pages — the oldest WAL record still needed to
// redo changes that are not yet durably in the data pages — or ok=false
// when everything is durable.
func (bp *BufferPool) MinRecLSN() (LSN, bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var minLSN LSN
	found := false
	take := func(l LSN) {
		if !found || l < minLSN {
			minLSN, found = l, true
		}
	}
	for _, f := range bp.frames {
		if f.dirty {
			take(f.recLSN)
		}
	}
	for _, rec := range bp.unsynced {
		take(rec.lsn)
	}
	return minLSN, found
}

// DirtyPageTable returns a snapshot of (page, recLSN) for every dirty
// frame — the dirty-page table a fuzzy checkpoint's begin record carries.
func (bp *BufferPool) DirtyPageTable() map[PageID]LSN {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make(map[PageID]LSN)
	for id, f := range bp.frames {
		if f.dirty {
			out[id] = f.recLSN
		}
	}
	return out
}

// NumPages reports the underlying pager's allocated page count.
func (bp *BufferPool) NumPages() PageID { return bp.pager.NumPages() }

// Stats returns a snapshot of the pool's counters and occupancy.
func (bp *BufferPool) Stats() BufferStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s := BufferStats{
		Hits:       bp.hits,
		Misses:     bp.misses,
		Evictions:  bp.evictions,
		ScanBypass: bp.scanBypass,
		Promotions: bp.promotions,
		GhostHits:  bp.ghostHits,
		Capacity:   bp.capacity,
		Resident:   len(bp.frames),
		Protected:  bp.protected.n,
	}
	for _, f := range bp.frames {
		if f.dirty {
			s.Dirty++
		}
	}
	return s
}
