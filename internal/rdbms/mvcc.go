package rdbms

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// MVCC snapshot reads.
//
// The engine's write path is unchanged: strict 2PL plus ARIES-style
// physiological logging, with uncommitted changes applied in place
// (steal/no-force). Snapshot readers therefore cannot trust the heap
// alone — a page may hold bytes from a transaction that has not
// committed, or from one that committed after the reader began. The
// VersionStore keeps just enough history to reconstruct the committed
// state of every in-flux row at any pinned LSN:
//
//   - The first time a transaction touches a row, the mutation hook
//     records the row's pre-image as the chain's base version (from = 0,
//     i.e. "since before recorded history"). From that point until the
//     chain is garbage-collected, the heap bytes for that RID are
//     advisory and readers resolve through the chain.
//   - At commit, the transaction appends one version per touched row
//     stamped with its commit LSN. Visibility for a snapshot pinned at S
//     is simply "the newest version with from <= S".
//   - A row with no chain has no in-flight or recently committed writer,
//     so its heap bytes are committed and stable — readers use them
//     directly. The ordering that makes this safe: writers create the
//     chain (and its pre-image) BEFORE mutating heap bytes, and readers
//     read the heap BEFORE consulting the chain. If a reader finds no
//     chain after reading the heap, no writer had begun when it read.
//
// Snapshot acquisition must respect group commit: commit records are
// appended (making their LSNs real) before their flush completes, and a
// later commit's flush can publish first. A snapshot therefore pins
// S = min(appended-but-unpublished commit LSN) - 1 when any commit is in
// flight, else the newest published commit LSN. Registration of a commit
// LSN as "pending" happens atomically with its WAL append (both under
// vs.mu), so no snapshot can land between the append and the
// registration and observe a torn boundary.
//
// GC horizon: a chain version is reclaimable once no current or FUTURE
// snapshot can need it. Future snapshots pin at least
// min(pending) - 1, so the horizon is
//
//	min(active snapshot LSNs, min(pending) - 1)
//
// and a whole chain is dropped once it has no uncommitted writer and its
// newest version is at or below the horizon (heap bytes equal that
// version from then on).
//
// Retention within a surviving chain is precise (PR8): a version is kept
// only if some ACTIVE snapshot resolves to it, or a FUTURE snapshot
// could — i.e. its validity window [from, nextFrom) contains an active
// snapshot LSN or reaches past the future floor min(pending)-1 (else
// maxCommit). The previous policy kept everything newer than the global
// horizon, so one old open snapshot made a hot row's chain grow with
// every commit; precise retention bounds it at O(active snapshots).
//
// Sweep scheduling: full passes run at snapshot release, abort, and
// checkpoint (the moments the horizon can jump), and commit-time
// publication prunes only the chains it touched. A size trigger backstops
// hot write workloads between checkpoints: once the store holds
// sweepTriggerVersions versions a full pass runs, and the trigger then
// doubles off the surviving population so repeated sweeps that cannot
// reclaim anything (e.g. a bulk load pinning its own snapshot) amortize
// to O(final size) total work. DropTable discards the table's chains
// outright.

// version is one committed state of a row, valid from commit LSN `from`
// until the next version's `from`. from == 0 is the base pre-image.
type version struct {
	from LSN
	live bool
	tup  Tuple
}

// versionChain is the (short) committed history of one row plus the
// count of uncommitted transactions currently holding it.
type versionChain struct {
	writers  int
	versions []version // ascending by from; versions[0] always visible
	// fence is the abort fence: the snapshot sequence number current when
	// an aborting writer released this chain. A scanning reader latches
	// and copies heap pages, then resolves rows through the chain, so a
	// copy taken before the abort's undo restored the heap can hold the
	// aborted bytes; only the chain's base pre-image corrects it. Commits
	// never need this (a chain with a version above an active snapshot is
	// retained by the pruner), but an aborted chain's base is at from=0
	// and would be dropped immediately. The chain therefore stays until
	// every snapshot with seq < fence has closed — no surviving reader can
	// hold a pre-undo page copy after that. Undo always restores a row at
	// its own RID (see HeapFile's reservations), so every aborted chain is
	// fenced.
	fence uint64
}

// batchMarker is the O(1)-per-chunk replacement for per-row bulk-load
// version chains: one marker describes the visibility of every row a
// chunk placed. Rows covered by a marker behave as if each had the chain
// [{from: 0, dead}, {from: marker LSN, live, heap-resident}] — invisible
// to snapshots below the batch commit, read through to the heap at or
// above it — without the store holding any per-row state. A real chain
// for a covered RID (a later writer's noteWrite materializes one) takes
// precedence over the marker.
type batchMarker struct {
	from    LSN
	pending bool // registered but not yet published: dead for every snapshot
	// fence carries the abort fence when a chunk rolls back (see
	// versionChain.fence): tombstoned rows must keep reading as dead for
	// readers whose page copies predate the tombstones.
	fence uint64
}

// batchPage maps one freshly loaded page to its covering marker. Chunk
// pages are newly allocated, so slots 0..nslots-1 all belong to the
// batch; later ordinary inserts on the page extend the slot array past
// nslots and are not covered.
type batchPage struct {
	marker *batchMarker
	nslots uint16
}

// VersionStore holds row version chains and snapshot bookkeeping for one
// DB. All fields are guarded by mu; critical sections are tiny (map and
// small-slice operations), so a single mutex does not bottleneck
// readers, whose common case is a miss on a near-empty map.
type VersionStore struct {
	mu     sync.Mutex
	tables map[string]map[RID]*versionChain
	// batches maps loaded pages to their batch markers, per table.
	batches map[string]map[PageID]batchPage
	// pending holds commit LSNs appended to the WAL but not yet
	// published (group commit in flight).
	pending map[LSN]struct{}
	// drained is broadcast whenever an LSN leaves pending; commits blocked
	// in awaitPublished (counted by awaiting) wait on it.
	drained  *sync.Cond
	awaiting int
	// maxCommit is the newest published commit LSN.
	maxCommit LSN
	// snaps refcounts active snapshot LSNs.
	snaps map[LSN]int
	// snapSeq is the sequence number the next snapshot will receive;
	// activeSeqs holds the seqs of open snapshots. Seqs order snapshot
	// births against abort fences (LSNs cannot: aborts mint no LSN).
	snapSeq    uint64
	activeSeqs map[uint64]struct{}
	// versions counts versions across all chains (the size trigger's
	// input); hiWater is the population at which the next size-triggered
	// full sweep fires.
	versions int
	hiWater  int
}

// sweepTriggerVersions is the version population that arms the
// size-triggered full sweep (and its floor after each pass).
const sweepTriggerVersions = 4096

func newVersionStore() *VersionStore {
	vs := &VersionStore{
		tables:     make(map[string]map[RID]*versionChain),
		batches:    make(map[string]map[PageID]batchPage),
		pending:    make(map[LSN]struct{}),
		snaps:      make(map[LSN]int),
		activeSeqs: make(map[uint64]struct{}),
		snapSeq:    1,
		hiWater:    sweepTriggerVersions,
	}
	vs.drained = sync.NewCond(&vs.mu)
	return vs
}

// noteWrite records the committed pre-image of (table, rid) and takes a
// writer hold on its chain. Called once per (txn, row) before the first
// heap mutation of that row.
func (vs *VersionStore) noteWrite(table string, rid RID, before Tuple, live bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	byRID := vs.tables[table]
	if byRID == nil {
		byRID = make(map[RID]*versionChain)
		vs.tables[table] = byRID
	}
	c := byRID[rid]
	if c == nil {
		if bp, ok := vs.batches[table][rid.Page]; ok && rid.Slot < bp.nslots && !bp.marker.pending && live {
			// The row is covered by a published batch marker: its real
			// history is "absent before the batch commit, live since".
			// Materialize that into the chain — chains take precedence
			// over markers, so the marker's answer for this row is
			// superseded from here on.
			c = &versionChain{versions: []version{
				{from: 0, live: false},
				{from: bp.marker.from, live: true, tup: before.Clone()},
			}}
			vs.versions += 2
		} else {
			c = &versionChain{versions: []version{{from: 0, live: live, tup: before.Clone()}}}
			vs.versions++
		}
		byRID[rid] = c
	} else if n := len(c.versions); n > 0 {
		// A heap-resident batch version (nil tup) means "the heap bytes,
		// unchanged since the batch commit". This writer is about to change
		// them, so materialize the version from its pre-image first.
		if v := &c.versions[n-1]; v.live && v.tup == nil {
			v.tup = before.Clone()
		}
	}
	c.writers++
}

// beginBatch registers one pending batch marker covering a chunk of
// freshly appended rows, in one lock acquisition and O(pages) state —
// the per-row version structs the marker replaces made a 1M-row load
// hold O(rows) live memory until the fence. Every covered row is new, so
// the marker's pending state is "no row" for every snapshot. The bulk
// loader calls it while the chunk's pages are still pinned and unlinked,
// so the marker exists before any reader can reach the bytes (the same
// ordering contract as noteWrite).
func (vs *VersionStore) beginBatch(table string, rids []RID) *batchMarker {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	byPage := vs.batches[table]
	if byPage == nil {
		byPage = make(map[PageID]batchPage)
		vs.batches[table] = byPage
	}
	m := &batchMarker{pending: true}
	for _, rid := range rids {
		bp := byPage[rid.Page]
		if bp.marker == nil {
			bp.marker = m
			vs.versions++ // one unit per page keeps the sweep trigger honest
		}
		if rid.Slot >= bp.nslots {
			bp.nslots = rid.Slot + 1
		}
		byPage[rid.Page] = bp
	}
	return m
}

// beginCommit registers lsn as an in-flight commit. The caller must
// invoke it under the same vs.mu hold that covers the WAL append of the
// commit record — DB commit code uses withPending for that.
func (vs *VersionStore) withPending(append func() LSN) LSN {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	lsn := append()
	vs.pending[lsn] = struct{}{}
	return lsn
}

// cancelPending forgets an in-flight commit whose flush failed. The
// transaction is still live (its writer holds remain until abort).
func (vs *VersionStore) cancelPending(lsn LSN) {
	vs.mu.Lock()
	delete(vs.pending, lsn)
	vs.drained.Broadcast()
	vs.sweepLocked()
	vs.mu.Unlock()
}

// awaitPublished blocks until no commit LSN below lsn is pending, i.e.
// until every snapshot acquired from now on pins at or above lsn.
func (vs *VersionStore) awaitPublished(lsn LSN) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for vs.pendingBelowLocked(lsn) {
		vs.awaiting++
		vs.drained.Wait()
		vs.awaiting--
	}
}

func (vs *VersionStore) pendingBelowLocked(lsn LSN) bool {
	for p := range vs.pending {
		if p < lsn {
			return true
		}
	}
	return false
}

// publish appends each changed row's committed state (its after) at lsn,
// releases the writer holds (touched is a superset of the changed rows: an
// op that failed before mutating leaves a hold with no change), and marks
// lsn published.
func (vs *VersionStore) publish(lsn LSN, changes []slotChange, touched []chainRef) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for _, f := range changes {
		c := vs.chainLocked(f.table, f.rid)
		if c == nil {
			continue // table dropped mid-commit (DDL excluded by locks; defensive)
		}
		var tup Tuple
		if f.after.Live {
			tup = f.after.Tup.Clone()
		}
		c.versions = append(c.versions, version{from: lsn, live: f.after.Live, tup: tup})
		vs.versions++
	}
	for _, r := range touched {
		if c := vs.chainLocked(r.table, r.rid); c != nil {
			c.writers--
		}
	}
	delete(vs.pending, lsn)
	vs.drained.Broadcast()
	if lsn > vs.maxCommit {
		vs.maxCommit = lsn
	}
	// A commit can only change the collectability of its own chains (plus,
	// via the advanced horizon, chains a full pass will catch later), so
	// prune just those and let the size trigger backstop the rest — the
	// full pass is O(all chains) and must not sit on the commit path.
	sc := vs.sweepCtxLocked()
	for _, r := range touched {
		vs.sweepChainLocked(sc, r.table, r.rid)
	}
	vs.maybeSweepLocked()
}

// publishBatch stamps a chunk's marker with its commit LSN and marks lsn
// published — O(1) regardless of chunk size. The marker's rows are
// heap-resident: the heap bytes ARE the batch content and stay that way
// until some later writer materializes a real chain via noteWrite, so
// the store retains no copy of the loaded rows. The marker itself is not
// collectable while the loader's snapshot pin sits below lsn (readers
// resolve the not-yet-indexed rows through it).
func (vs *VersionStore) publishBatch(lsn LSN, m *batchMarker) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	m.from = lsn
	m.pending = false
	delete(vs.pending, lsn)
	vs.drained.Broadcast()
	if lsn > vs.maxCommit {
		vs.maxCommit = lsn
	}
	vs.maybeSweepLocked()
}

// abortBatch rolls a chunk's marker back: the rows were tombstoned by
// the caller, and the marker stays registered in its pending ("no row")
// state behind an abort fence — a reader whose page copies predate the
// tombstones must keep resolving the rows as dead (see
// versionChain.fence for the fence rationale). The fenced marker is
// swept once every snapshot open now has closed.
func (vs *VersionStore) abortBatch(m *batchMarker) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	m.pending = true
	if m.fence < vs.snapSeq {
		m.fence = vs.snapSeq
	}
	vs.sweepLocked()
}

// release drops the writer holds of an aborted (or flush-failed, then
// aborted) transaction. The heap has been restored to the pre-images by
// undo, which is exactly each chain's base state — but a reader that
// latched a page copy before the undo may still hold the aborted bytes,
// so each chain is fenced: it survives until every snapshot open right
// now has closed, and such readers keep resolving through its base
// pre-image instead of trusting their stale copy.
func (vs *VersionStore) release(touched []chainRef) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for _, r := range touched {
		if c := vs.chainLocked(r.table, r.rid); c != nil {
			c.writers--
			if c.fence < vs.snapSeq {
				c.fence = vs.snapSeq
			}
		}
	}
	vs.sweepLocked()
}

type chainRef struct {
	table string
	rid   RID
}

func (vs *VersionStore) chainLocked(table string, rid RID) *versionChain {
	if byRID := vs.tables[table]; byRID != nil {
		return byRID[rid]
	}
	return nil
}

// acquireSnapshot pins and refcounts a snapshot LSN, and issues the
// snapshot's sequence number (which orders it against abort fences).
func (vs *VersionStore) acquireSnapshot() (LSN, uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	s := vs.maxCommit
	for lsn := range vs.pending {
		if lsn-1 < s {
			s = lsn - 1
		}
	}
	vs.snaps[s]++
	seq := vs.snapSeq
	vs.snapSeq++
	vs.activeSeqs[seq] = struct{}{}
	return s, seq
}

func (vs *VersionStore) releaseSnapshot(s LSN, seq uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if n := vs.snaps[s]; n <= 1 {
		delete(vs.snaps, s)
	} else {
		vs.snaps[s] = n - 1
	}
	delete(vs.activeSeqs, seq)
	vs.sweepLocked()
}

// sweepCtx is one sweep pass's frozen view of the pins that decide
// retention: h is the classic horizon (chain-drop bound), fut the floor
// every FUTURE snapshot will pin at or above, snaps the active snapshot
// LSNs in ascending order.
type sweepCtx struct {
	h     LSN
	fut   LSN
	snaps []LSN
	// minSeq is the lowest active snapshot sequence number (MaxUint64
	// when none): an abort-fenced chain is deletable once minSeq has
	// passed its fence, i.e. every snapshot open at abort time closed.
	minSeq uint64
}

func (vs *VersionStore) sweepCtxLocked() sweepCtx {
	fut := vs.maxCommit
	for lsn := range vs.pending {
		if lsn-1 < fut {
			fut = lsn - 1
		}
	}
	sc := sweepCtx{fut: fut, h: fut, minSeq: ^uint64(0)}
	for seq := range vs.activeSeqs {
		if seq < sc.minSeq {
			sc.minSeq = seq
		}
	}
	if len(vs.snaps) > 0 {
		sc.snaps = make([]LSN, 0, len(vs.snaps))
		for s := range vs.snaps {
			sc.snaps = append(sc.snaps, s)
			if s < sc.h {
				sc.h = s
			}
		}
		sort.Slice(sc.snaps, func(i, j int) bool { return sc.snaps[i] < sc.snaps[j] })
	}
	return sc
}

// pruneChainLocked drops every version of c that no pin can resolve to.
// Version i's validity window is [from[i], from[i+1]) (the last version's
// is open-ended); it is needed iff the window contains an active snapshot
// LSN or reaches past fut — the floor below which no future snapshot can
// land. Both the versions and sc.snaps are ascending, so one merge pass
// decides every version.
func (vs *VersionStore) pruneChainLocked(sc sweepCtx, c *versionChain) {
	vsn := c.versions
	if len(vsn) <= 1 {
		return
	}
	out := vsn[:0]
	j := 0
	for i := 0; i < len(vsn); i++ {
		needed := i+1 == len(vsn) || vsn[i+1].from > sc.fut
		if !needed {
			for j < len(sc.snaps) && sc.snaps[j] < vsn[i].from {
				j++
			}
			needed = j < len(sc.snaps) && sc.snaps[j] < vsn[i+1].from
		}
		if needed {
			out = append(out, vsn[i])
		} else {
			vs.versions--
		}
	}
	for i := len(out); i < len(vsn); i++ {
		vsn[i] = version{} // release dropped tuples to the GC
	}
	c.versions = out
}

// sweepChainLocked prunes one chain and deletes it once it has no writer
// and its single surviving version is at or below the horizon (the heap
// bytes equal it from then on, so readers fall through to the heap).
func (vs *VersionStore) sweepChainLocked(sc sweepCtx, table string, rid RID) {
	byRID := vs.tables[table]
	if byRID == nil {
		return
	}
	c := byRID[rid]
	if c == nil {
		return
	}
	vs.pruneChainLocked(sc, c)
	if c.writers == 0 && len(c.versions) == 1 && c.versions[0].from <= sc.h && c.fence <= sc.minSeq {
		delete(byRID, rid)
		vs.versions--
		if len(byRID) == 0 {
			delete(vs.tables, table)
		}
	}
}

// sweepLocked runs a full pass over every chain and re-arms the size
// trigger at double the surviving population (floored at
// sweepTriggerVersions), so back-to-back triggered passes over a pinned
// population do geometric, not quadratic, total work.
func (vs *VersionStore) sweepLocked() {
	sc := vs.sweepCtxLocked()
	for table, byRID := range vs.tables {
		for rid, c := range byRID {
			vs.pruneChainLocked(sc, c)
			if c.writers == 0 && len(c.versions) == 1 && c.versions[0].from <= sc.h && c.fence <= sc.minSeq {
				delete(byRID, rid)
				vs.versions--
			}
		}
		if len(byRID) == 0 {
			delete(vs.tables, table)
		}
	}
	// Batch markers: a published marker is droppable once every current
	// and future snapshot sits at or past its commit (the heap bytes are
	// then the stable truth — the loader's own pin keeps it alive for the
	// deferred-index window); an aborted marker once every snapshot open
	// at abort time has closed (same fence rule as chains). An in-flight
	// marker (pending, no fence) is never collected.
	for table, byPage := range vs.batches {
		for pid, bp := range byPage {
			m := bp.marker
			drop := false
			if m.pending {
				drop = m.fence > 0 && m.fence <= sc.minSeq
			} else {
				drop = m.from <= sc.h
			}
			if drop {
				delete(byPage, pid)
				vs.versions--
			}
		}
		if len(byPage) == 0 {
			delete(vs.batches, table)
		}
	}
	vs.hiWater = vs.versions * 2
	if vs.hiWater < sweepTriggerVersions {
		vs.hiWater = sweepTriggerVersions
	}
}

// maybeSweepLocked runs the full pass only once the version population
// crosses the size trigger — the hot-write backstop between checkpoints.
func (vs *VersionStore) maybeSweepLocked() {
	if vs.versions >= vs.hiWater {
		vs.sweepLocked()
	}
}

// Sweep runs a full GC pass (checkpoints call this).
func (vs *VersionStore) Sweep() {
	vs.mu.Lock()
	vs.sweepLocked()
	vs.mu.Unlock()
}

// VersionCount reports the total number of versions across all chains
// (the size trigger's input; tests assert boundedness under hot writes).
func (vs *VersionStore) VersionCount() int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.versions
}

// dropTable discards all chains and batch markers for a dropped table.
func (vs *VersionStore) dropTable(table string) {
	vs.mu.Lock()
	if byRID := vs.tables[table]; byRID != nil {
		for _, c := range byRID {
			vs.versions -= len(c.versions)
		}
	}
	delete(vs.tables, table)
	vs.versions -= len(vs.batches[table])
	delete(vs.batches, table)
	vs.mu.Unlock()
}

// Chains reports the number of live version chains (tests assert GC
// drains this to zero once writers commit and snapshots close).
func (vs *VersionStore) Chains() int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	n := 0
	for _, byRID := range vs.tables {
		n += len(byRID)
	}
	return n
}

// visible resolves (table, rid) at snapshot s: the newest version with
// from <= s. ok=false means the row has neither a chain nor a batch
// marker — its heap bytes are committed and stable. A chain takes
// precedence over a marker covering the same row (noteWrite materializes
// the full history into the chain).
func (vs *VersionStore) visible(table string, rid RID, s LSN) (version, bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	c := vs.chainLocked(table, rid)
	if c == nil {
		if bp, ok := vs.batches[table][rid.Page]; ok && rid.Slot < bp.nslots {
			if bp.marker.pending || bp.marker.from > s {
				return version{live: false}, true
			}
			return version{from: bp.marker.from, live: true}, true
		}
		return version{}, false
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].from <= s {
			return c.versions[i], true
		}
	}
	// Unreachable: the sweep keeps a version at or below the horizon,
	// and every active snapshot is at or above it.
	return version{}, false
}

// chainRIDs returns the chained row ids of a table, sorted, so scans can
// surface rows that are dead in the heap but live at the snapshot. Rows
// covered only by a batch marker are enumerated too — during a deferred
// bulk load the table's indexes are empty and the Snap index paths
// compensate through this list. Enumeration is O(covered rows), but only
// the markers themselves (O(pages)) are resident state.
func (vs *VersionStore) chainRIDs(table string) []RID {
	vs.mu.Lock()
	byRID := vs.tables[table]
	rids := make([]RID, 0, len(byRID))
	for rid := range byRID {
		rids = append(rids, rid)
	}
	for pid, bp := range vs.batches[table] {
		for s := uint16(0); s < bp.nslots; s++ {
			rid := RID{Page: pid, Slot: s}
			if _, ok := byRID[rid]; ok {
				continue // a materialized chain supersedes the marker
			}
			rids = append(rids, rid)
		}
	}
	vs.mu.Unlock()
	sort.Slice(rids, func(i, j int) bool { return ridLess(rids[i], rids[j]) })
	return rids
}

// BatchPages reports the number of live batch-marker page entries (tests
// assert a bulk load's pin state is O(pages), not O(rows), and that
// markers drain after the load's fence).
func (vs *VersionStore) BatchPages() int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	n := 0
	for _, byPage := range vs.batches {
		n += len(byPage)
	}
	return n
}

// Snap is a read-only snapshot transaction: it pins one LSN at creation
// and resolves every read — scans, index probes, SELECTs — to the
// committed state as of that LSN. It acquires no locks, writes nothing
// to the WAL, and never blocks writers or other readers; writers never
// block it. Close releases the snapshot so version GC can advance.
type Snap struct {
	db     *DB
	lsn    LSN
	seq    uint64
	ctx    context.Context
	closed bool
}

// BeginSnapshot starts a lock-free read-only snapshot transaction
// pinned at the current committed LSN.
func (db *DB) BeginSnapshot() *Snap {
	lsn, seq := db.vs.acquireSnapshot()
	return &Snap{db: db, lsn: lsn, seq: seq, ctx: context.Background()}
}

// WithContext attaches ctx; scan-shaped loops poll it like Txn's do.
func (sn *Snap) WithContext(ctx context.Context) *Snap {
	sn.ctx = ctx
	return sn
}

// LSN reports the pinned snapshot LSN.
func (sn *Snap) LSN() LSN { return sn.lsn }

// Close releases the snapshot. Idempotent.
func (sn *Snap) Close() {
	if sn.closed {
		return
	}
	sn.closed = true
	sn.db.vs.releaseSnapshot(sn.lsn, sn.seq)
}

func (sn *Snap) ctxErr() error {
	if sn.closed {
		return fmt.Errorf("rdbms: snapshot is closed")
	}
	select {
	case <-sn.ctx.Done():
		return sn.ctx.Err()
	default:
		return nil
	}
}

func (sn *Snap) table(name string) (*Table, error) {
	t := sn.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("rdbms: no such table %s", name)
	}
	return t, nil
}

// visibility returns the snapshot's row-version rule for table.
func (sn *Snap) visibility(table string) visibility {
	return visibility{vs: sn.db.vs, table: table, lsn: sn.lsn}
}

// Get reads one row at the snapshot LSN. Heap first, then chain: a
// writer creates the chain before touching heap bytes, so "no chain
// after the heap read" proves the heap value is committed.
func (sn *Snap) Get(table string, rid RID) (Tuple, bool, error) {
	if err := sn.ctxErr(); err != nil {
		return nil, false, err
	}
	t, err := sn.table(table)
	if err != nil {
		return nil, false, err
	}
	rows, err := resolveRun(t.Heap, sn.visibility(table), []RID{rid}, nil, nil, 1)
	if err != nil || len(rows) == 0 {
		return nil, false, err
	}
	return rows[0], true, nil
}

// visibleTup resolves a chained row's visible tuple at the snapshot,
// reading through to the heap for heap-resident batch versions. ok=false
// means the row is not live at the snapshot.
func (sn *Snap) visibleTup(t *Table, table string, rid RID) (Tuple, bool) {
	v, ok := sn.db.vs.visible(table, rid, sn.lsn)
	if !ok || !v.live {
		return nil, false
	}
	if v.tup == nil {
		tup, live, err := t.Heap.Get(rid)
		if err != nil || !live {
			return nil, false
		}
		return tup, true
	}
	return v.tup, true
}

// Scan visits every row live at the snapshot LSN. Rows present in the
// heap come first in heap order; rows dead in the heap but live at the
// snapshot (deleted by a later-committed or in-flight writer) follow,
// in RID order.
func (sn *Snap) Scan(table string, fn func(rid RID, t Tuple) bool) error {
	return sn.scanWhere(table, nil, fn)
}

// ScanRecords visits every row live at the snapshot LSN, in Scan's
// order, as its encoded record (EncodeTuple's format; read it with
// SplitRecord) rather than a decoded Tuple. A row whose visible version
// lives in a version chain is re-encoded, so fn sees one shape. Records
// are copied out of each page into a reused buffer and fn runs after the
// page's latch is released: rec is valid only until fn returns.
// Returning false stops the scan.
func (sn *Snap) ScanRecords(table string, fn func(rid RID, rec []byte) bool) error {
	return sn.sweep(table, &recordSink{fn: fn})
}

// scanWhere implements readSource: Scan with f applied in the page loop.
func (sn *Snap) scanWhere(table string, f *rowFilter, fn func(rid RID, t Tuple) bool) error {
	return sn.sweep(table, &tupleSink{f: f, fn: fn})
}

// sweep hands sink every row live at the snapshot LSN: the heap sweep,
// then the rows that exist only in chains, in RID order. The sweep
// records the heap slots it read in a per-page bitset, so the chained
// rows it has already covered are skipped at one bit per row.
func (sn *Snap) sweep(table string, sink rowSink) error {
	if err := sn.ctxErr(); err != nil {
		return err
	}
	t, err := sn.table(table)
	if err != nil {
		return err
	}
	var seen slotSet
	stopped, err := scanHeap(t.Heap, sn.visibility(table), sn.ctxErr, &seen, sink)
	if err != nil || stopped {
		return err
	}
	// Rows that are dead (or reused) in the heap now but were live at
	// the snapshot exist only in chains.
	for _, rid := range sn.db.vs.chainRIDs(table) {
		if seen.has(rid) {
			continue
		}
		vt, ok := sn.visibleTup(t, table, rid)
		if !ok {
			continue
		}
		err := sink.take(rid, vt, nil)
		if !sink.flush() || err != nil {
			return err
		}
	}
	return nil
}

// IndexLookup returns candidate row ids for column = key at the
// snapshot. The result over-approximates: it adds every chained row of
// the table whose visible tuple matches, and callers must re-check both
// liveness and the predicate against the visible tuple — exactly what
// the SELECT executor's fetchRun already does. A table without chains
// returns the index's posting list as is.
func (sn *Snap) IndexLookup(table, column string, key Value) ([]RID, error) {
	if err := sn.ctxErr(); err != nil {
		return nil, err
	}
	t, err := sn.table(table)
	if err != nil {
		return nil, err
	}
	idx := t.Indexes[column]
	if idx == nil {
		return nil, fmt.Errorf("rdbms: no index on %s.%s", table, column)
	}
	ci := t.Schema.ColIndex(column)
	rids := idx.Lookup(key)
	chained := sn.db.vs.chainRIDs(table)
	if len(chained) == 0 {
		return rids, nil
	}
	listed := chainedListed(chained, rids)
	for _, rid := range chained {
		if listed[rid] {
			continue
		}
		vt, ok := sn.visibleTup(t, table, rid)
		if !ok {
			continue
		}
		if c, ok := Compare(vt[ci], key); ok && c == 0 {
			rids = append(rids, rid)
		}
	}
	return rids, nil
}

// chainedListed maps each chained rid to whether the index candidates
// already name it — the dedupe the snapshot index paths need, sized by
// the (usually tiny) chain list rather than by the candidates.
func chainedListed(chained, candidates []RID) map[RID]bool {
	listed := make(map[RID]bool, len(chained))
	for _, rid := range chained {
		listed[rid] = false
	}
	for _, rid := range candidates {
		if _, ok := listed[rid]; ok {
			listed[rid] = true
		}
	}
	return listed
}

// IndexRange streams candidate row ids for lo <= column <= hi (nil = an
// open bound) at the snapshot: first the index entries in key order,
// then chained rows whose visible tuple falls in range (RID order).
// Like IndexLookup, candidates over-approximate and callers re-verify
// against the visible tuple. The chain list is read after the index walk
// (a row a writer moves out of the index mid-walk is chained by then).
func (sn *Snap) IndexRange(table, column string, lo, hi *Value, fn func(key Value, rid RID) bool) error {
	if err := sn.ctxErr(); err != nil {
		return err
	}
	t, err := sn.table(table)
	if err != nil {
		return err
	}
	idx := t.Indexes[column]
	if idx == nil {
		return fmt.Errorf("rdbms: no index on %s.%s", table, column)
	}
	ci := t.Schema.ColIndex(column)
	var streamed []RID
	var rangeErr error
	stopped := false
	idx.Range(lo, hi, func(key Value, rid RID) bool {
		streamed = append(streamed, rid)
		if len(streamed)%ctxCheckInterval == 0 {
			if rangeErr = sn.ctxErr(); rangeErr != nil {
				return false
			}
		}
		if !fn(key, rid) {
			stopped = true
			return false
		}
		return true
	})
	if rangeErr != nil {
		return rangeErr
	}
	chained := sn.db.vs.chainRIDs(table)
	if stopped || len(chained) == 0 {
		return nil
	}
	inRange := func(v Value) bool {
		if lo != nil {
			if c, ok := Compare(v, *lo); !ok || c < 0 {
				return false
			}
		}
		if hi != nil {
			if c, ok := Compare(v, *hi); !ok || c > 0 {
				return false
			}
		}
		return true
	}
	listed := chainedListed(chained, streamed)
	for _, rid := range chained {
		if listed[rid] {
			continue
		}
		vt, ok := sn.visibleTup(t, table, rid)
		if !ok {
			continue
		}
		if inRange(vt[ci]) {
			if !fn(vt[ci], rid) {
				return nil
			}
		}
	}
	return nil
}

// fetchRun implements readSource: rows resolve through the version store.
func (sn *Snap) fetchRun(t *Table, table string, run []RID, f *rowFilter, rows []Tuple, limit int) ([]Tuple, error) {
	return resolveRun(t.Heap, sn.visibility(table), run, f, rows, limit)
}

// orderRows implements readSource. A snapshot cannot stream rows in
// index order without holding the snapshot's visibility set against the
// B-tree's current shape, so it declines and the executor falls back to
// the sort-based paths (same output, explicit sort).
func (sn *Snap) orderRows(SelectStmt, *Table, *orderPath, *rowFilter, int) ([]Tuple, bool, error) {
	return nil, false, nil
}

// Query parses and executes one SELECT at the snapshot LSN. Mutating
// statements and DDL are rejected: a Snap is read-only by construction.
func (sn *Snap) Query(sql string) (*ResultSet, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(SelectStmt)
	if !ok {
		return nil, fmt.Errorf("rdbms: snapshot transactions are read-only (got %T)", stmt)
	}
	return sn.ExecSelect(s)
}

// ExecSelect runs a parsed SELECT against the snapshot.
func (sn *Snap) ExecSelect(s SelectStmt) (*ResultSet, error) {
	if err := sn.ctxErr(); err != nil {
		return nil, err
	}
	return execSelectSrc(sn, s)
}

// AggregatePartial runs a grouped SELECT's partial step against the
// snapshot; FinishAggregate turns partials into the answer.
func (sn *Snap) AggregatePartial(s SelectStmt) (*AggPartial, error) {
	if err := sn.ctxErr(); err != nil {
		return nil, err
	}
	return aggregatePartial(sn, s)
}
