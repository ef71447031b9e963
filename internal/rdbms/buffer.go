package rdbms

import (
	"container/list"
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
// pinned (see HeapFile.InsertWith), pinned pages cannot be evicted, and
// every write-back path below flushes the WAL up to the page's LSN first
// — so the before-image of any flushed change is always recoverable.
//
// The pool also maintains each dirty frame's recLSN — a conservative
// lower bound on the LSN of the first record that dirtied it since it
// was last clean — and remembers the recLSNs of pages written back but
// not yet covered by a pager sync. min over both is the WAL-truncation
// horizon a fuzzy checkpoint may not pass: every record below it
// describes changes that are durably in the data pages.
type BufferPool struct {
	mu           sync.Mutex
	pager        Pager
	wal          *WAL // flushed before any page write-back; nil disables the rule
	capacity     int
	protectedCap int  // max protected frames; 0 in flat mode
	flat         bool // single-queue LRU, scan hints ignored (oracle baseline)
	frames       map[PageID]*frame
	probation    *list.List // of PageID; front = most recently used
	protected    *list.List // of PageID; front = most recently used (empty in flat mode)

	// ghost remembers recently evicted non-scan page IDs (no data): a
	// miss on one is proven reuse and admits the page straight to
	// protected. Bounded at the pool capacity; nil in flat mode.
	ghost    *list.List
	ghostMap map[PageID]*list.Element

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
	pins  int
	dirty bool
	elem  *list.Element
	queue bufQueue
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
		probation:    list.New(),
		protected:    list.New(),
		ghost:        list.New(),
		ghostMap:     make(map[PageID]*list.Element),
		unsynced:     make(map[PageID]unsyncedRec),
	}
}

// queueOf returns the list a frame's elem lives on.
func (bp *BufferPool) queueOf(f *frame) *list.List {
	if f.queue == qProtected {
		return bp.protected
	}
	return bp.probation
}

// touchLocked applies the replacement policy to a hit on f. Normal hits
// promote probationary frames into protected (demoting the protected
// tail if full) and refresh protected recency; scan hits leave every
// queue position untouched so a sweep cannot manufacture recency.
func (bp *BufferPool) touchLocked(f *frame, scan bool) {
	if bp.flat {
		bp.probation.MoveToFront(f.elem)
		return
	}
	if scan {
		return
	}
	f.scanAdmit = false
	if f.queue == qProtected {
		bp.protected.MoveToFront(f.elem)
		return
	}
	// Re-referenced on probation: proven reuse, promote.
	bp.probation.Remove(f.elem)
	f.queue = qProtected
	f.elem = bp.protected.PushFront(f.id)
	bp.promotions++
	bp.demoteOverflowLocked()
}

// demoteOverflowLocked restores the protected queue's bound after a
// promotion: its coldest page moves back to the warm end of probation
// (a second chance) rather than the queue growing.
func (bp *BufferPool) demoteOverflowLocked() {
	if bp.protected.Len() <= bp.protectedCap {
		return
	}
	tail := bp.protected.Back()
	d := bp.frames[tail.Value.(PageID)]
	bp.protected.Remove(tail)
	d.queue = qProbation
	d.elem = bp.probation.PushFront(d.id)
}

// insertLocked places a newly admitted frame according to the policy:
// scans enter at the cold end of probation (next eviction's first
// victim), ghost-remembered pages go straight to protected (the miss IS
// the re-reference the frame cap hid), everything else enters at the
// warm end of probation.
func (bp *BufferPool) insertLocked(f *frame, scan bool) {
	if !bp.flat {
		if scan {
			f.queue = qProbation
			f.scanAdmit = true
			f.elem = bp.probation.PushBack(f.id)
			bp.scanBypass++
			return
		}
		if e, ok := bp.ghostMap[f.id]; ok {
			bp.ghost.Remove(e)
			delete(bp.ghostMap, f.id)
			f.queue = qProtected
			f.elem = bp.protected.PushFront(f.id)
			bp.promotions++
			bp.ghostHits++
			bp.demoteOverflowLocked()
			return
		}
	}
	f.queue = qProbation
	f.elem = bp.probation.PushFront(f.id)
}

// rememberGhostLocked records an evicted frame's ID for later
// readmission. Scan-admitted frames are forgotten outright — a sweep
// must not be able to fake reuse through the ghost list.
func (bp *BufferPool) rememberGhostLocked(f *frame) {
	if bp.flat || f.scanAdmit {
		return
	}
	bp.ghostMap[f.id] = bp.ghost.PushFront(f.id)
	if bp.ghost.Len() > bp.capacity {
		tail := bp.ghost.Back()
		bp.ghost.Remove(tail)
		delete(bp.ghostMap, tail.Value.(PageID))
	}
}

// writeBack enforces the WAL rule and writes one frame to the pager. The
// caller holds bp.mu; the frame's recLSN moves to the unsynced set (the
// write is not durable until the next pager sync).
func (bp *BufferPool) writeBack(f *frame) error {
	if bp.wal != nil {
		// Flush the log only up to the page's last stamped record: +1 so
		// the record STARTING at pageLSN is covered whole (flush targets
		// land on record boundaries, so any boundary past the start is at
		// or past the end).
		if err := bp.wal.FlushTo(pageLSNOf(f.data) + 1); err != nil {
			return err
		}
	}
	if err := bp.pager.WritePage(f.id, f.data); err != nil {
		return err
	}
	rec := unsyncedRec{lsn: f.recLSN, epoch: bp.syncEpoch}
	if prev, ok := bp.unsynced[f.id]; ok && prev.lsn < rec.lsn {
		rec.lsn = prev.lsn // keep the older (more conservative) bound
	}
	bp.unsynced[f.id] = rec
	f.recLSN = 0
	return nil
}

// Pin fetches a page into the pool and pins it. The returned buffer aliases
// the cached frame: callers that modify it must call Unpin with dirty=true.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	return bp.pin(id, false)
}

// PinScan is Pin with the sequential-scan hint: a one-touch page is
// admitted evict-first and a resident page's recency is not refreshed,
// so a full scan cannot displace the hot working set. Correctness is
// identical to Pin — the hint only biases replacement.
func (bp *BufferPool) PinScan(id PageID) ([]byte, error) {
	return bp.pin(id, true)
}

func (bp *BufferPool) pin(id PageID, scan bool) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.pins == 0 && bp.wal != nil {
			f.pinLSN = bp.wal.NextLSN()
		}
		f.pins++
		bp.touchLocked(f, scan)
		bp.hits++
		return f.data, nil
	}
	bp.misses++
	if err := bp.evictIfFullLocked(); err != nil {
		return nil, err
	}
	data := make([]byte, PageSize)
	if err := bp.pager.ReadPage(id, data); err != nil {
		return nil, err
	}
	f := &frame{id: id, data: data, pins: 1}
	if bp.wal != nil {
		f.pinLSN = bp.wal.NextLSN()
	}
	bp.insertLocked(f, scan)
	bp.frames[id] = f
	return f.data, nil
}

// NewPage allocates a fresh page, pins it, and returns its id and buffer.
func (bp *BufferPool) NewPage() (PageID, []byte, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.evictIfFullLocked(); err != nil {
		return InvalidPage, nil, err
	}
	f := &frame{id: id, data: make([]byte, PageSize), pins: 1, dirty: true}
	if bp.wal != nil {
		f.pinLSN = bp.wal.NextLSN()
		f.recLSN = f.pinLSN
	}
	bp.insertLocked(f, false)
	bp.frames[id] = f
	return id, f.data, nil
}

// Unpin releases one pin; dirty marks the frame as modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return
	}
	f.pins--
	if dirty && !f.dirty {
		f.dirty = true
		f.recLSN = f.pinLSN
	}
}

// victimLocked finds the coldest unpinned frame: probation tail first,
// protected tail only when probation holds no candidate.
func (bp *BufferPool) victimLocked() *frame {
	for _, q := range [...]*list.List{bp.probation, bp.protected} {
		for e := q.Back(); e != nil; e = e.Prev() {
			f := bp.frames[e.Value.(PageID)]
			if f.pins == 0 {
				return f
			}
		}
	}
	return nil
}

func (bp *BufferPool) evictIfFullLocked() error {
	for len(bp.frames) >= bp.capacity {
		victim := bp.victimLocked()
		if victim == nil {
			return fmt.Errorf("%w (%d frames all pinned)", ErrPoolExhausted, len(bp.frames))
		}
		if victim.dirty {
			if err := bp.writeBack(victim); err != nil {
				return err
			}
		}
		bp.queueOf(victim).Remove(victim.elem)
		delete(bp.frames, victim.id)
		bp.rememberGhostLocked(victim)
		bp.evictions++
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
			if err := bp.writeBack(f); err != nil {
				return err
			}
			f.dirty = false
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
		Protected:  bp.protected.Len(),
	}
	for _, f := range bp.frames {
		if f.dirty {
			s.Dirty++
		}
	}
	return s
}
