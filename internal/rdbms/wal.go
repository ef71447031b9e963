package rdbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

// LSN is a log sequence number: the logical byte offset of a record in
// the log. LSNs are monotonic across the whole life of a database — the
// WAL manifest records the logical offset at which each segment file
// starts, and truncating the log's prefix at a checkpoint deletes whole
// segments instead of restarting LSNs at zero. Page LSNs stay
// comparable with log records forever, which is what makes recovery's
// redo gating (pageLSN < rec.LSN) sound.
type LSN uint64

// TxnID identifies a transaction.
type TxnID uint64

// LogKind enumerates WAL record types.
type LogKind uint8

const (
	LogBegin LogKind = iota + 1
	LogCommit
	LogAbort
	LogInsert
	LogDelete
	LogUpdate
	// LogCheckpointBegin and LogCheckpointEnd bracket a fuzzy checkpoint:
	// Begin carries the dirty-page table and active-transaction list in
	// Data (diagnostics and property tests; recovery's replay origin is
	// the catalog's checkpointLSN, not these records), End marks that
	// every step up to the catalog write completed.
	LogCheckpointBegin
	LogCheckpointEnd
	// LogBatchInsert and LogBatchDelete are the COPY-style bulk-load
	// records: one record covers a whole chunk of rows, carried in Data as
	// a count-prefixed sequence of (RID, encoded tuple) pairs (see
	// encodeBatchRows). BatchInsert rows are after-images, BatchDelete rows
	// before-images (the compensation record a failed batch logs while
	// rolling back). Recovery normalizes both into per-row Insert/Delete
	// records stamped with the batch record's LSN (expandBatchRecords), so
	// redo gating, undo, and the derived-state delta walk treat a batch
	// exactly like the equivalent row-at-a-time sequence.
	LogBatchInsert
	LogBatchDelete
)

func (k LogKind) String() string {
	switch k {
	case LogBegin:
		return "BEGIN"
	case LogCommit:
		return "COMMIT"
	case LogAbort:
		return "ABORT"
	case LogInsert:
		return "INSERT"
	case LogDelete:
		return "DELETE"
	case LogUpdate:
		return "UPDATE"
	case LogCheckpointBegin:
		return "CKPT-BEGIN"
	case LogCheckpointEnd:
		return "CKPT-END"
	case LogBatchInsert:
		return "BATCH-INSERT"
	case LogBatchDelete:
		return "BATCH-DELETE"
	}
	return fmt.Sprintf("LogKind(%d)", uint8(k))
}

// LogRecord is one WAL entry. Insert carries After; Delete carries Before;
// Update carries both. Table names the affected table. Data is an opaque
// payload used by checkpoint records (the serialized dirty-page table).
type LogRecord struct {
	LSN    LSN
	Kind   LogKind
	Txn    TxnID
	Table  string
	Row    RID
	Before Tuple
	After  Tuple
	Data   []byte
}

func encodeLogRecord(r *LogRecord) []byte {
	var body []byte
	body = append(body, byte(r.Kind))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(r.Txn))
	body = append(body, tmp[:]...)
	body = appendString(body, r.Table)
	var rid [8]byte
	binary.LittleEndian.PutUint32(rid[0:4], uint32(r.Row.Page))
	binary.LittleEndian.PutUint16(rid[4:6], r.Row.Slot)
	body = append(body, rid[:6]...)
	body = appendBytes(body, encodeMaybeTuple(r.Before))
	body = appendBytes(body, encodeMaybeTuple(r.After))
	body = appendBytes(body, r.Data)
	// Frame: len + crc + body.
	out := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

func decodeLogRecord(body []byte) (*LogRecord, error) {
	if len(body) < 9 {
		return nil, fmt.Errorf("rdbms: short log body")
	}
	r := &LogRecord{Kind: LogKind(body[0])}
	r.Txn = TxnID(binary.LittleEndian.Uint64(body[1:9]))
	off := 9
	tbl, n, err := readString(body[off:])
	if err != nil {
		return nil, err
	}
	r.Table = tbl
	off += n
	if len(body) < off+6 {
		return nil, fmt.Errorf("rdbms: short log rid")
	}
	r.Row.Page = PageID(binary.LittleEndian.Uint32(body[off : off+4]))
	r.Row.Slot = binary.LittleEndian.Uint16(body[off+4 : off+6])
	off += 6
	beforeRaw, n, err := readBytes(body[off:])
	if err != nil {
		return nil, err
	}
	off += n
	afterRaw, n, err := readBytes(body[off:])
	if err != nil {
		return nil, err
	}
	off += n
	dataRaw, _, err := readBytes(body[off:])
	if err != nil {
		return nil, err
	}
	if len(dataRaw) > 0 {
		r.Data = append([]byte(nil), dataRaw...)
	}
	if r.Before, err = decodeMaybeTuple(beforeRaw); err != nil {
		return nil, err
	}
	if r.After, err = decodeMaybeTuple(afterRaw); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeMaybeTuple(t Tuple) []byte {
	if t == nil {
		return nil
	}
	return EncodeTuple(t)
}

func decodeMaybeTuple(b []byte) (Tuple, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return DecodeTuple(b)
}

func appendString(buf []byte, s string) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

func readString(buf []byte) (string, int, error) {
	b, n, err := readBytes(buf)
	return string(b), n, err
}

func appendBytes(buf, b []byte) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b)))
	buf = append(buf, tmp[:]...)
	return append(buf, b...)
}

func readBytes(buf []byte) ([]byte, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("rdbms: short length prefix")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if len(buf) < 4+n {
		return nil, 0, fmt.Errorf("rdbms: short payload")
	}
	return buf[4 : 4+n], 4 + n, nil
}

// ErrWALPoisoned is returned to committers whose flush target was in
// flight when a simulated crash (CrashSignal panic) interrupted the
// group-commit leader: the log's durable boundary is unknowable from
// inside the dying process, so the WAL refuses all further work. Only
// reopening the store (a fresh WAL) resolves the in-doubt commits.
var ErrWALPoisoned = errors.New("rdbms: wal unusable after crash during flush")

// DefaultGroupCommitWindow is the group-commit leader's straggler-wait
// budget in scheduler-yield iterations when Options does not override it.
const DefaultGroupCommitWindow = 512

// DefaultWALSegmentBytes is the rotation threshold for WAL segment
// files when Options does not override it: once the active segment's
// flushed size reaches this, the next flush seals it and opens a fresh
// segment. Small enough that a checkpoint usually finds whole prefix
// segments to delete, large enough that rotation (one manifest swap +
// directory sync) is rare next to commit fsyncs.
const DefaultWALSegmentBytes = 1 << 20

// walSegment is one log segment: a device whose byte 0 carries LSN
// start. Segments are append-only and immutable once sealed (a newer
// segment exists); the last segment is the active append target.
type walSegment struct {
	seq   uint64
	start LSN
	dev   Device
}

// WAL is an append-only write-ahead log over a WALStore — a chain of
// fixed-target-size segment files described by a manifest. Append
// buffers the record; Flush forces buffered records to stable storage
// (device write + sync). Commit durability is achieved by flushing
// before acknowledging.
//
// Segmentation (PR10) is what makes log-space reclamation O(1) and
// long-transaction-proof: TruncateTo deletes whole prefix segments and
// swaps the manifest, never copying surviving records, so a pinned live
// tail — a long-running transaction, an old open View — delays
// reclamation of at most the segments it actually occupies. The old
// single-file copy-down protocol (double-slot header, COPYING state,
// terminator frames) is retired; crash safety now rests on the
// manifest swap being atomic and directory metadata committing in
// order (see WALStore).
//
// Flushing uses a group-commit sequencer (leader/follower): the first
// committer to need durability becomes the leader, takes ownership of
// every buffered record — its own and any that concurrent committers
// appended before it won the role — and performs one device write + sync
// for the whole batch outside the WAL lock. Committers arriving while
// that I/O is in flight append their records and wait; when the leader
// finishes, one of them becomes the next leader and flushes the entire
// accumulated batch with a single fsync. A lone committer pays exactly
// the old one-fsync latency; N concurrent committers pay ~2 fsyncs total
// (the in-flight one plus one batch), amortizing the dominant cost of
// durable commit.
//
// A whole flush batch always lands in one segment: rotation happens
// between flushes (after a successful sync, while the leader still
// holds the flush role), so a segment may overshoot its target by the
// final batch's size but the logical-to-physical mapping stays a single
// subtraction.
//
// Opening a WAL reads the manifest for the segment chain, removes
// orphan segments a crash left unnamed, then scans the active (last)
// segment for a torn tail — a frame whose length prefix overruns the
// device or whose checksum fails, left by a crash mid-flush — and
// truncates it back to the last whole record, so post-crash appends
// never land after garbage bytes that a recovery scan would refuse to
// read past. Sealed segments need no scan: they were synced to their
// full extent before the rotation that sealed them became durable.
type WAL struct {
	mu      sync.Mutex
	cond    *sync.Cond    // signals flush completion to waiting committers
	buf     []byte        // unflushed tail, starts at LSN `flushed`
	base    LSN           // logical LSN of the oldest byte still on the store
	flushed LSN           // bytes durably stored (logical)
	next    LSN           // next LSN to assign (= flushed + len(inflight) + len(buf))
	nextA   atomic.Uint64 // lock-free mirror of next (buffer-pool recLSN capture)

	store     WALStore
	segs      []walSegment // ascending by start; last is the active append target
	nextSeq   uint64       // sequence number the next rotation will use
	segTarget int64        // active-segment size that triggers rotation

	flushing   bool   // a leader's write+sync is in flight (outside mu)
	poisoned   bool   // a crash panic escaped mid-flush; see ErrWALPoisoned
	syncs      int64  // completed device syncs (group-commit diagnostics)
	spare      []byte // a flushed batch's buffer, recycled for appends (cap <= walSpareMaxBytes)
	committers int    // commits between AppendEnd and durable: potential batch-mates

	window      int   // straggler-wait budget (yields); 0 = solo-commit
	windowOpens int64 // times a leader opened the group window (tests)
	rotations   int64 // completed segment rotations (tests and diagnostics)
}

// walSpareMaxBytes caps the flushed batch buffer the WAL keeps for reuse.
// Steady-state group-commit batches fit well under it; a bulk set-up
// transaction's batch (hundreds of KB) would otherwise stay live for the
// life of the process.
const walSpareMaxBytes = 64 << 10

// NewMemWAL returns a WAL over an in-memory store; Flush makes records
// durable against the simulated crash model (the tests'
// MemWALStore.Crash keeps only synced bytes and a prefix of unsynced
// directory metadata).
func NewMemWAL() *WAL {
	w, err := NewWALOn(NewMemWALStore())
	if err != nil {
		// A fresh MemWALStore cannot fail to open.
		panic(err)
	}
	return w
}

// OpenFileWAL opens or creates a directory-backed WAL at dir.
func OpenFileWAL(dir string) (*WAL, error) {
	store, err := OpenFileWALStore(dir)
	if err != nil {
		return nil, err
	}
	w, err := NewWALOn(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	return w, nil
}

// NewWALOn opens a WAL over store: reads (or initializes) the manifest,
// garbage-collects orphan segments, and truncates any torn tail in the
// active segment left by a crash.
func NewWALOn(store WALStore) (*WAL, error) {
	w := &WAL{store: store, window: DefaultGroupCommitWindow, segTarget: DefaultWALSegmentBytes}
	w.cond = sync.NewCond(&w.mu)
	raw, err := store.ReadManifest()
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return w, w.initFresh()
	}
	entries, err := decodeWALManifest(raw)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("rdbms: wal manifest names no segments")
	}
	present, err := store.Segments()
	if err != nil {
		return nil, err
	}
	presentSet := make(map[uint64]bool, len(present))
	for _, seq := range present {
		presentSet[seq] = true
	}
	named := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		if !presentSet[e.seq] {
			return nil, fmt.Errorf("rdbms: wal manifest names missing segment %d", e.seq)
		}
		named[e.seq] = true
	}
	// Orphans — segments on the store the manifest does not name — are
	// either a rotation whose manifest swap never became durable (they
	// hold no acknowledged record) or a truncation's dropped prefix whose
	// file removal was interrupted (their records are below the durable
	// catalog's replay origin). Both are garbage; collect them.
	gc := false
	for _, seq := range present {
		if !named[seq] {
			if err := store.RemoveSegment(seq); err != nil {
				return nil, err
			}
			gc = true
		}
	}
	for i, e := range entries {
		dev, err := store.OpenSegment(e.seq)
		if err != nil {
			return nil, err
		}
		w.segs = append(w.segs, walSegment{seq: e.seq, start: e.start, dev: dev})
		if i+1 < len(entries) {
			// Sealed segment: rotation became durable only after the
			// segment was synced to its full extent, so it must span
			// exactly up to its successor's start.
			want := int64(entries[i+1].start - e.start)
			size, err := dev.Size()
			if err != nil {
				return nil, err
			}
			if size < want {
				return nil, fmt.Errorf("rdbms: wal segment %d holds %d bytes, want %d", e.seq, size, want)
			}
		}
	}
	w.base = entries[0].start
	w.nextSeq = entries[len(entries)-1].seq + 1
	// Torn-tail scan of the active segment only.
	active := w.segs[len(w.segs)-1]
	size, err := active.dev.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := active.dev.ReadAt(data, 0); err != nil {
			return nil, err
		}
	}
	end := int64(walkLogFrames(data, 0, nil))
	if end < size {
		if err := active.dev.Truncate(end); err != nil {
			return nil, err
		}
	}
	if gc {
		if err := store.SyncDir(); err != nil {
			return nil, err
		}
	}
	w.flushed = active.start + LSN(end)
	w.next = w.flushed
	w.nextA.Store(uint64(w.next))
	return w, nil
}

// initFresh sets up a brand-new log: one empty segment starting at LSN 0
// and a manifest naming it. Stray segment files (a previous fresh init
// that crashed before its manifest became durable — so nothing was ever
// acknowledged) are removed first.
func (w *WAL) initFresh() error {
	present, err := w.store.Segments()
	if err != nil {
		return err
	}
	for _, seq := range present {
		if err := w.store.RemoveSegment(seq); err != nil {
			return err
		}
	}
	dev, err := w.store.OpenSegment(1)
	if err != nil {
		return err
	}
	if err := w.store.WriteManifest(encodeWALManifest([]walManifestEntry{{seq: 1, start: 0}})); err != nil {
		return err
	}
	if err := w.store.SyncDir(); err != nil {
		return err
	}
	w.segs = []walSegment{{seq: 1, start: 0, dev: dev}}
	w.nextSeq = 2
	return nil
}

// walkLogFrames iterates the whole, checksum-clean frames in data
// starting at off, calling fn (when non-nil; a false return stops early)
// with each frame's offset and body, and returns the offset where the
// last valid frame ends. It is the single definition of the torn-tail
// boundary: open-time truncation and Records both use it, so the bytes
// truncation keeps are exactly the bytes a recovery scan will read.
func walkLogFrames(data []byte, off int, fn func(off int, body []byte) bool) int {
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if off+8+n > len(data) || crc32.ChecksumIEEE(data[off+8:off+8+n]) != want {
			break
		}
		if fn != nil && !fn(off, data[off+8:off+8+n]) {
			return off
		}
		off += 8 + n
	}
	return off
}

// Append adds a record, assigning and returning its LSN.
func (w *WAL) Append(r *LogRecord) LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(r)
	return r.LSN
}

// AppendEnd adds a commit record and returns the LSN just past it — the
// FlushCommit target that makes the record durable. Commit uses it so
// that each committer waits only for the batch containing its own
// record, not for records appended after it. The caller is counted as a
// committer in flight until its FlushCommit returns; that count is what
// decides whether a flush leader opens the group window.
func (w *WAL) AppendEnd(r *LogRecord) LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(r)
	w.committers++
	return w.next
}

func (w *WAL) appendLocked(r *LogRecord) {
	r.LSN = w.next
	enc := encodeLogRecord(r)
	if w.buf == nil && w.spare != nil {
		w.buf, w.spare = w.spare[:0], nil
	}
	w.buf = append(w.buf, enc...)
	w.next += LSN(len(enc))
	w.nextA.Store(uint64(w.next))
}

// Flush forces every record appended so far to stable storage.
func (w *WAL) Flush() error {
	w.mu.Lock()
	return w.flushToLocked(w.next, false)
}

// FlushTo forces the log up to target to stable storage without opening
// the group-commit window. The buffer pool uses it before writing a dirty
// page back: flushing to the page's LSN (plus one byte, so the record
// starting there is covered whole) is the precise WAL rule — later
// records need not be forced. Targets beyond the append horizon clamp to
// it.
func (w *WAL) FlushTo(target LSN) error {
	w.mu.Lock()
	return w.flushToLocked(target, false)
}

// NextLSN returns the next LSN the WAL will assign, without taking the
// WAL lock (an atomic mirror). The buffer pool samples it at pin time to
// derive a conservative recLSN for pages that pin dirties.
func (w *WAL) NextLSN() LSN { return LSN(w.nextA.Load()) }

// FlushCommit forces the log up to target (an AppendEnd result) to
// stable storage, participating in group commit: if another committer's
// flush is already in flight, the caller waits for it (and, if that
// batch did not cover target, one waiter becomes the next leader and
// flushes everything accumulated since — one fsync for the whole
// group). When more than one committer is in flight, the leader briefly
// yields before capturing the batch, so stragglers a few microseconds
// behind join this fsync instead of founding the next one; a lone
// committer — regardless of how many idle transactions are open —
// flushes immediately at single-commit latency.
func (w *WAL) FlushCommit(target LSN) error {
	w.mu.Lock()
	err := w.flushToLocked(target, true)
	w.mu.Lock()
	w.committers--
	w.mu.Unlock()
	return err
}

// flushToLocked implements the leader/follower protocol. The caller must
// hold w.mu; it is released on return. window permits the leader's
// group wait, which still only happens when other committers are in
// flight (w.committers > 1).
func (w *WAL) flushToLocked(target LSN, window bool) error {
	if target > w.next {
		target = w.next
	}
	for {
		if w.poisoned {
			w.mu.Unlock()
			return ErrWALPoisoned
		}
		if w.flushed >= target {
			w.mu.Unlock()
			return nil
		}
		if !w.flushing {
			break // become the leader
		}
		w.cond.Wait()
	}
	// Leader: flushing blocks rival leaders, but the buffer stays open —
	// the batch is captured only after the (optional) group window, so
	// everything appended up to that moment rides this fsync.
	w.flushing = true
	window = window && w.committers > 1 && w.window > 0
	if window {
		w.windowOpens++
	}
	w.mu.Unlock()
	if window {
		w.awaitStragglers()
	}
	w.mu.Lock()
	chunk := w.buf
	base := w.flushed
	// The active segment is stable for the whole leader I/O: only a
	// leader rotates, and TruncateTo quiesces leaders and never touches
	// the last segment.
	active := w.segs[len(w.segs)-1]
	w.buf = nil
	w.mu.Unlock()

	var err error
	completed := false
	synced := false
	poisonRotate := false
	defer func() {
		w.mu.Lock()
		w.flushing = false
		if synced {
			w.syncs++
		}
		switch {
		case !completed:
			// A panic (the fault harness's simulated crash) interrupted the
			// I/O: the durable boundary is unknowable, so poison the WAL; every
			// waiter and future committer gets ErrWALPoisoned and the
			// in-doubt records are resolved by post-crash recovery.
			w.poisoned = true
		case err != nil && !synced:
			// The device reported the failure cleanly before the batch was
			// durable: restore the batch at the front of the buffer so a
			// later flush (or a follower retrying as leader) rewrites the
			// same bytes at the same offsets. flushed is unchanged —
			// nothing was acknowledged.
			w.buf = append(chunk, w.buf...)
		default:
			w.flushed = base + LSN(len(chunk))
			if cap(chunk) <= walSpareMaxBytes && (w.spare == nil || cap(chunk) > cap(w.spare)) {
				w.spare = chunk[:0] // recycle the batch buffer
			}
			if poisonRotate {
				// The rotation's manifest swap failed after it may have been
				// announced: where future durable bytes belong is ambiguous,
				// so no further append may be acknowledged (see rotate).
				w.poisoned = true
			}
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}()
	if len(chunk) > 0 {
		if _, werr := active.dev.WriteAt(chunk, int64(base-active.start)); werr != nil {
			err = werr
		} else if serr := active.dev.Sync(); serr != nil {
			err = serr
		} else {
			synced = true
		}
	}
	if err == nil && int64(base+LSN(len(chunk))-active.start) >= w.segTarget {
		// Seal the active segment and open the next one. The batch is
		// already durable, so a rotation error must not claw it back:
		// rotate reports whether the failure leaves the manifest state
		// ambiguous (poison) or the rotation simply didn't happen (the
		// active segment keeps growing past its target — retried after
		// the next flush).
		poisonRotate, err = w.rotate(base + LSN(len(chunk)))
	}
	completed = true
	// On success the batch covered target (the chunk held everything
	// buffered at leader election, and target predates it).
	return err
}

// rotate seals the active segment at end and installs a fresh one: open
// the next segment device, swap in a manifest naming it with start LSN
// end, sync the directory, then adopt it as the append target. Called
// only by a flush leader (w.flushing held), so w.segs is stable.
//
// Error contract: a failure before the manifest swap leaves the old
// manifest authoritative — the rotation is simply skipped (no poison, the
// oversized active segment keeps working). A failure at or after the
// swap is poisonous: the new manifest declares that no acknowledged byte
// may land in the old segment past end, but whether that declaration is
// (or will become) durable is unknowable, so continuing to append
// anywhere risks either losing acked records (they landed in a segment a
// durable manifest never names) or truncating them (they landed past a
// sealed segment's recorded end).
func (w *WAL) rotate(end LSN) (poison bool, err error) {
	dev, err := w.store.OpenSegment(w.nextSeq)
	if err != nil {
		return false, err
	}
	entries := make([]walManifestEntry, 0, len(w.segs)+1)
	for _, s := range w.segs {
		entries = append(entries, walManifestEntry{seq: s.seq, start: s.start})
	}
	entries = append(entries, walManifestEntry{seq: w.nextSeq, start: end})
	if err := w.store.WriteManifest(encodeWALManifest(entries)); err != nil {
		return true, err
	}
	if err := w.store.SyncDir(); err != nil {
		return true, err
	}
	w.mu.Lock()
	w.segs = append(w.segs, walSegment{seq: w.nextSeq, start: end, dev: dev})
	w.nextSeq++
	w.rotations++
	w.mu.Unlock()
	return false, nil
}

// awaitStragglers is the group-commit window: a bounded busy-yield that
// ends as soon as appends quiesce (two consecutive checks with no growth)
// or the iteration budget (Options.GroupCommitWindow, default
// DefaultGroupCommitWindow) runs out. Concurrent committers run in real
// time on other cores during the yield, so a few microseconds is enough
// for a committer already past its WAL append to land in this batch; the
// cost is orders of magnitude below the fsync it saves. The leader only
// opens the window when other committers are in flight (commit records
// appended but not yet durable) and the budget is nonzero — a zero
// budget degenerates to solo-commit flushing: each leader captures only
// what is already buffered.
func (w *WAL) awaitStragglers() {
	last := w.peekNext()
	stable := 0
	for i := 0; i < w.window && stable < 2; i++ {
		runtime.Gosched()
		if i%16 == 15 {
			cur := w.peekNext()
			if cur == last {
				stable++
			} else {
				stable = 0
				last = cur
			}
		}
	}
}

func (w *WAL) peekNext() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// Syncs returns the number of completed WAL device syncs — the measure of
// how well group commit amortizes fsyncs across concurrent committers.
func (w *WAL) Syncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Rotations returns the number of completed segment rotations.
func (w *WAL) Rotations() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotations
}

// SegmentCount returns how many segments the log currently spans.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// SetSegmentTarget overrides the rotation threshold (tests use small
// targets to force rotation; Options.WALSegmentBytes is the public
// knob).
func (w *WAL) SetSegmentTarget(bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if bytes > 0 {
		w.segTarget = bytes
	}
}

// DiskBytes sums the current sizes of every segment on the store — the
// log's on-disk footprint (the space-bound the long-transaction suite
// asserts on).
func (w *WAL) DiskBytes() (int64, error) {
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segs...)
	w.mu.Unlock()
	var total int64
	for _, s := range segs {
		n, err := s.dev.Size()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// quiesceLocked waits until no flush is in flight. Callers that mutate
// flushed/next/buf/segs wholesale (TruncateTo, DropUnflushed) must not
// interleave with a leader's I/O.
func (w *WAL) quiesceLocked() {
	for w.flushing {
		w.cond.Wait()
	}
}

// TruncateTo discards the durable log before horizon by deleting whole
// prefix segments — O(1) per segment, no record ever moves. A
// checkpoint calls it with the min(recLSN, first LSN of any active
// transaction) horizon: everything before it is redundant (durably in
// the data pages and owned by resolved transactions), everything at or
// after it must survive for redo and undo.
//
// Only segments that end at or before the horizon are deleted, so the
// log's base advances in segment-sized steps; a long-running
// transaction pinning an old horizon delays reclamation of exactly the
// segments its records occupy — never of the unbounded whole log, which
// is what the old copy-down protocol degenerated to (it skipped
// truncation entirely whenever the live tail outweighed the prefix).
//
// Protocol, crash-safe against the caller's catalog (which must already
// record horizon as the replay origin BEFORE TruncateTo runs): swap in
// a manifest naming only the surviving segments, sync the directory,
// then remove the dropped segment files and sync again. A crash after
// the swap leaves orphan files that open-time GC removes; a crash
// before it leaves the old manifest over intact files — recovery reads
// from the catalog's horizon either way. Clean errors are non-poisoning:
// the in-memory chain only adopts the new shape after the swap is
// durable, and until then both manifests describe a consistent log.
//
// The manifest swap runs under w.mu; the removals and their directory
// sync run after it is released. By then no segment list names the
// dropped files, so appends and flushes no longer wait on the WAL lock
// while the file system unlinks them (hundreds of milliseconds per
// segment on some) — TestTruncateBlockedRemoveLetsAppendsFlush holds this.
func (w *WAL) TruncateTo(horizon LSN) error {
	dropped, err := w.swapOutPrefix(horizon)
	if err != nil || len(dropped) == 0 {
		return err
	}
	for _, s := range dropped {
		s.dev.Close()
		if err := w.store.RemoveSegment(s.seq); err != nil {
			// The manifest no longer names the segment, so a lingering
			// file is an orphan the next open collects; space reclaim is
			// merely delayed.
			return nil
		}
	}
	// Removal durability is best-effort for the same reason: orphans are
	// collected at open.
	w.store.SyncDir()
	return nil
}

// swapOutPrefix is TruncateTo's part under w.mu: it makes the manifest
// name only the segments the horizon keeps, adopts that chain, and
// returns the segments it dropped.
func (w *WAL) swapOutPrefix(horizon LSN) ([]walSegment, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	if w.poisoned {
		return nil, ErrWALPoisoned
	}
	if horizon > w.flushed {
		horizon = w.flushed
	}
	drop := 0
	for drop < len(w.segs)-1 && w.segs[drop+1].start <= horizon {
		drop++
	}
	if drop == 0 {
		return nil, nil
	}
	survivors := w.segs[drop:]
	entries := make([]walManifestEntry, 0, len(survivors))
	for _, s := range survivors {
		entries = append(entries, walManifestEntry{seq: s.seq, start: s.start})
	}
	if err := w.store.WriteManifest(encodeWALManifest(entries)); err != nil {
		return nil, err
	}
	if err := w.store.SyncDir(); err != nil {
		return nil, err
	}
	dropped := append([]walSegment(nil), w.segs[:drop]...)
	w.segs = append([]walSegment(nil), survivors...)
	w.base = w.segs[0].start
	return dropped, nil
}

// Base returns the logical LSN of the log's oldest byte still on the
// store — the start of the first segment (diagnostics and tests).
func (w *WAL) Base() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// EmptySince reports whether no record — durable or buffered — exists
// at or after lsn. A checkpoint whose previous horizon satisfies this
// has nothing new to make durable: segment-granular truncation keeps
// already-checkpointed bytes of the active segment on disk (deleting
// only whole sealed segments), so "the log's tail since the last
// checkpoint is empty" is the no-op test, not "the log is physically
// empty".
func (w *WAL) EmptySince(lsn LSN) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushed <= lsn && w.next == w.flushed
}

// FlushedLSN returns the durable boundary.
func (w *WAL) FlushedLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushed
}

// DropUnflushed discards buffered records, simulating a crash where only
// flushed bytes survive. Test/experiment hook.
func (w *WAL) DropUnflushed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	w.next = w.flushed
	w.nextA.Store(uint64(w.next))
	w.buf = w.buf[:0]
}

// Records reads all durable records starting at from (clamped to the
// log's base), walking the segment chain in order. Records with bad
// checksums or truncated frames terminate the scan (torn tail).
func (w *WAL) Records(from LSN) ([]*LogRecord, error) {
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segs...)
	flushed := w.flushed
	w.mu.Unlock()

	if from < segs[0].start {
		from = segs[0].start
	}
	var out []*LogRecord
	var decodeErr error
	for i, s := range segs {
		end := flushed
		if i+1 < len(segs) {
			end = segs[i+1].start
		}
		if end <= from || end == s.start {
			continue
		}
		// Bytes below `flushed` are stable: appends only land at or past
		// it, so this read cannot race the flush leader's WriteAt.
		data := make([]byte, end-s.start)
		if _, err := s.dev.ReadAt(data, 0); err != nil {
			return nil, err
		}
		off := 0
		if from > s.start {
			off = int(from - s.start)
		}
		walkLogFrames(data, off, func(off int, body []byte) bool {
			r, err := decodeLogRecord(body)
			if err != nil {
				decodeErr = err
				return false
			}
			r.LSN = s.start + LSN(off)
			out = append(out, r)
			return true
		})
		if decodeErr != nil {
			return nil, decodeErr
		}
	}
	return out, nil
}

// Close releases the segment devices and the underlying store.
func (w *WAL) Close() error {
	w.mu.Lock()
	segs := w.segs
	w.mu.Unlock()
	for _, s := range segs {
		s.dev.Close()
	}
	return w.store.Close()
}
