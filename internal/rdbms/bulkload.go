package rdbms

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
)

// COPY-style bulk load.
//
// The row-at-a-time insert path pays, per row: a WAL record, two lock
// acquisitions, a version-chain hold, and O(log n) comparison-driven
// index inserts. A bulk load amortizes all four. Rows are placed into
// freshly allocated heap pages that stay PINNED and UNLINKED while one
// LogBatchInsert record covering the whole chunk is appended (the pages
// cannot be written back before the record exists — the WAL rule by
// construction — and no reader can reach rows on pages outside the heap
// chain), then the pages are stamped with the batch LSN, unpinned, and
// linked. Each chunk commits as its own transaction: one batch marker
// covering the chunk's pages is registered in one lock acquisition
// (beginBatch) before the link — O(pages) state standing in for what
// used to be O(rows) per-row version chains — the commit record is
// group-flushed, and publication (publishBatch) stamps the marker with
// the commit LSN in O(1). Crash anywhere before the chunk's commit record
// is durable and recovery rolls the WHOLE chunk back
// (all-or-nothing batch semantics); after, redo replays it whole —
// recovery normalizes batch records into per-row records stamped with
// the batch LSN, so the existing gated-redo/undo machinery applies
// unchanged (expandBatchRecords).
//
// Index maintenance: when every index of the target table is empty at
// BeginBulkLoad (the fresh-ingest case), index builds are DEFERRED — the
// load accumulates (key, rid) runs per column and Commit sorts them once
// and feeds them to newBTreeFromSorted, an O(n) bottom-up construction,
// swapping the result in under the index's own latch (ReplaceContents).
// Snapshot readers stay correct throughout: the loader holds a snapshot
// pin below every batch LSN, so the chains survive sweeps, and the Snap
// index paths compensate empty indexes through chainRIDs. Non-empty
// indexes are maintained incrementally per chunk instead.
//
// The fence: each chunk is durable in the WAL at its commit; Commit ends
// with a full checkpoint, making the load durable in the data pages and
// truncating the log the load grew.

// maxBulkChunkPages bounds how many freshly allocated pages one batch
// record covers — all of them are pinned simultaneously, so the bound
// must leave the buffer pool room to breathe.
const maxBulkChunkPages = 32

// batchRow is one (RID, tuple) pair of a decoded batch record.
type batchRow struct {
	rid RID
	tup Tuple
}

// encodeBatchRows serializes a chunk's row placements for a
// LogBatchInsert/LogBatchDelete record's Data: a row count, then per row
// the 6-byte RID and the length-prefixed encoded tuple. recs carries the
// tuples already encoded (the heap placement encoded them once).
func encodeBatchRows(rids []RID, recs [][]byte) []byte {
	size := 4
	for _, rec := range recs {
		size += 6 + 4 + len(rec)
	}
	buf := make([]byte, 0, size)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(rids)))
	buf = append(buf, tmp[:4]...)
	for i, rid := range rids {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(rid.Page))
		binary.LittleEndian.PutUint16(tmp[4:6], rid.Slot)
		buf = append(buf, tmp[:6]...)
		buf = appendBytes(buf, recs[i])
	}
	return buf
}

// decodeBatchRows parses a batch record's Data back into rows.
func decodeBatchRows(data []byte) ([]batchRow, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("rdbms: short batch payload")
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	data = data[4:]
	rows := make([]batchRow, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 6 {
			return nil, fmt.Errorf("rdbms: short batch rid")
		}
		var rid RID
		rid.Page = PageID(binary.LittleEndian.Uint32(data[0:4]))
		rid.Slot = binary.LittleEndian.Uint16(data[4:6])
		data = data[6:]
		raw, consumed, err := readBytes(data)
		if err != nil {
			return nil, fmt.Errorf("rdbms: batch row %d: %w", i, err)
		}
		data = data[consumed:]
		tup, err := DecodeTuple(raw)
		if err != nil {
			return nil, fmt.Errorf("rdbms: batch row %d: %w", i, err)
		}
		rows = append(rows, batchRow{rid: rid, tup: tup})
	}
	return rows, nil
}

// expandBatchRecords normalizes a recovery tail: each batch record
// becomes one per-row Insert/Delete record per covered row, all stamped
// with the batch record's LSN. Redo gating, undo, and the slot-outcome
// walk then treat a batch exactly like the row-at-a-time sequence it
// replaced — batch pages were stamped with the batch LSN, so the
// page-LSN gate skips already-flushed chunks whole, and an unresolved
// chunk's rows are all forced dead (all-or-nothing on reopen).
func expandBatchRecords(records []*LogRecord) ([]*LogRecord, error) {
	hasBatch := false
	for _, r := range records {
		if r.Kind == LogBatchInsert || r.Kind == LogBatchDelete {
			hasBatch = true
			break
		}
	}
	if !hasBatch {
		return records, nil
	}
	out := make([]*LogRecord, 0, len(records))
	for _, r := range records {
		if r.Kind != LogBatchInsert && r.Kind != LogBatchDelete {
			out = append(out, r)
			continue
		}
		rows, err := decodeBatchRows(r.Data)
		if err != nil {
			return nil, err
		}
		for _, br := range rows {
			rec := &LogRecord{LSN: r.LSN, Txn: r.Txn, Table: r.Table, Row: br.rid}
			if r.Kind == LogBatchInsert {
				rec.Kind = LogInsert
				rec.After = br.tup
			} else {
				rec.Kind = LogDelete
				rec.Before = br.tup
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// AppendChunk places up to maxPages pages' worth of tups into freshly
// allocated pages that stay pinned and OUTSIDE the heap chain while
// onPinned runs — the window in which the caller registers version
// chains and appends the batch WAL record (pinned pages cannot be
// evicted, so the record precedes any write-back of the new bytes; an
// unlinked page is invisible to every reader). The pages are then
// stamped with the returned LSN, unpinned, and linked to the chain in
// one step. Returns the assigned RIDs and how many tuples were consumed;
// the caller loops for the remainder.
//
// If onPinned fails, the pages are abandoned unlinked (never reachable,
// never logged) and the error returned. An error after onPinned (a link
// I/O failure) returns the RIDs and LSN so the caller can compensate.
func (h *HeapFile) AppendChunk(tups []Tuple, maxPages int, onPinned func(rids []RID, recs [][]byte) (LSN, error)) (rids []RID, consumed int, lsn LSN, err error) {
	if maxPages < 1 {
		maxPages = 1
	}
	var pages []PageGuard
	unpinAll := func() {
		for _, g := range pages {
			g.Release(true)
		}
	}

	var recs [][]byte
	var curP *slottedPage
	var curID PageID
	for consumed = 0; consumed < len(tups); consumed++ {
		rec := EncodeTuple(tups[consumed])
		if len(rec)+slotSize > PageSize-pageHeaderSize {
			if len(pages) == 0 {
				return nil, 0, 0, fmt.Errorf("rdbms: tuple of %d bytes exceeds page capacity", len(rec))
			}
			break // commit what fits; the caller will fail on the retry
		}
		if curP != nil {
			if slot, ok := curP.insert(rec, reservations{}); ok {
				rids = append(rids, RID{Page: curID, Slot: slot})
				recs = append(recs, rec)
				continue
			}
			curP = nil
			if len(pages) >= maxPages {
				break
			}
		}
		g, err := h.bp.NewPage()
		if err != nil {
			unpinAll()
			return nil, 0, 0, err
		}
		id, p := g.ID(), newSlottedPage(g.Data())
		p.setNext(InvalidPage)
		pages = append(pages, g)
		curID, curP = id, p
		slot, ok := p.insert(rec, reservations{})
		if !ok {
			unpinAll()
			return nil, 0, 0, fmt.Errorf("rdbms: tuple does not fit in a fresh page")
		}
		rids = append(rids, RID{Page: id, Slot: slot})
		recs = append(recs, rec)
	}
	if len(rids) == 0 {
		return nil, 0, 0, nil
	}

	lsn, err = onPinned(rids, recs)
	if err != nil {
		unpinAll()
		return nil, 0, 0, err
	}
	// Chain the chunk's pages to each other, stamp, and release the pins;
	// only then expose everything at once by linking the old tail.
	for i, g := range pages {
		p := newSlottedPage(g.Data())
		if i+1 < len(pages) {
			p.setNext(pages[i+1].ID())
		}
		if lsn != 0 {
			p.setPageLSN(lsn)
		}
	}
	unpinAll()
	ids := make([]PageID, len(pages))
	for i, g := range pages {
		ids[i] = g.ID()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.linkLocked(ids...); err != nil {
		return rids, consumed, lsn, err
	}
	return rids, consumed, lsn, nil
}

// BulkLoadStats summarizes one bulk load.
type BulkLoadStats struct {
	Rows    int
	Batches int
	// Deferred reports whether index builds were deferred to Commit
	// (sorted runs into newBTreeFromSorted) or maintained per chunk.
	Deferred bool
}

// BulkLoader is a COPY-style load session on one table. Begin with
// DB.BeginBulkLoad, feed rows with Append (each full chunk commits
// durably as its own all-or-nothing batch), then Commit — which builds
// any deferred indexes and checkpoints (the fence) — or Abort, which
// keeps the already-committed chunks (they are committed) but still
// repairs the deferred indexes to cover them. Not safe for concurrent
// use; the session holds the table's exclusive lock throughout.
type BulkLoader struct {
	db    *DB
	t     *Table
	table string
	// tx is the umbrella transaction: it owns the exclusive table lock
	// and, being registered in db.active, holds the WAL-truncation
	// horizon at the load's start for crash-time rollback of the newest
	// chunk. Each chunk commits under its own transaction id.
	tx     *Txn
	pin    LSN    // snapshot pin: keeps batch chains alive for deferred index reads
	pinSeq uint64 // the pin's snapshot sequence number

	deferred bool
	entries  map[string][]idxEntry // per indexed column, deferred mode

	stats BulkLoadStats
	done  bool
}

type idxEntry struct {
	key Value
	rid RID
}

// BeginBulkLoad opens a bulk-load session on table, taking its exclusive
// lock (readers via snapshots are unaffected; locking readers and other
// writers wait until Commit/Abort).
func (db *DB) BeginBulkLoad(table string) (*BulkLoader, error) {
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("rdbms: table %s does not exist", table)
	}
	tx := db.Begin()
	if err := db.lm.Acquire(tx.id, TableLock(table), LockExclusive); err != nil {
		tx.Abort()
		return nil, err
	}
	bl := &BulkLoader{db: db, t: t, table: table, tx: tx}
	bl.pin, bl.pinSeq = db.vs.acquireSnapshot()
	bl.deferred = true
	for _, idx := range t.Indexes {
		if idx.Len() > 0 {
			bl.deferred = false
			break
		}
	}
	bl.stats.Deferred = bl.deferred
	if bl.deferred {
		bl.entries = make(map[string][]idxEntry, len(t.Indexes))
	}
	return bl, nil
}

// Append validates, coerces, and loads rows in durable all-or-nothing
// chunks. On error the rows of fully committed chunks remain committed;
// the failed chunk leaves nothing visible. The caller should Abort the
// session after an error (Abort keeps committed chunks and repairs
// deferred indexes).
func (bl *BulkLoader) Append(ctx context.Context, rows []Tuple) error {
	if bl.done {
		return ErrTxnDone
	}
	for i, row := range rows {
		row = bl.t.Schema.Coerce(row)
		if err := bl.t.Schema.Validate(row); err != nil {
			return fmt.Errorf("rdbms: bulk row %d: %w", i, err)
		}
		rows[i] = row
	}
	for len(rows) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n, err := bl.loadChunk(rows)
		if err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// loadChunk places, logs, and durably commits one batch.
func (bl *BulkLoader) loadChunk(rows []Tuple) (int, error) {
	db, t := bl.db, bl.t
	maxPages := maxBulkChunkPages
	if c := db.bp.capacity / 4; c < maxPages {
		maxPages = c
	}
	chunk := db.Begin()
	t.noteMutation()
	var chunkRecs [][]byte
	var marker *batchMarker
	rids, consumed, lsn, err := t.Heap.AppendChunk(rows, maxPages, func(rids []RID, recs [][]byte) (LSN, error) {
		chunkRecs = recs
		marker = db.vs.beginBatch(bl.table, rids)
		return db.wal.Append(&LogRecord{
			Kind:  LogBatchInsert,
			Txn:   chunk.id,
			Table: bl.table,
			Data:  encodeBatchRows(rids, recs),
		}), nil
	})
	if err != nil {
		if lsn != 0 {
			// Logged and placed, but the chain link failed: compensate.
			bl.rollbackChunk(chunk, marker, rids, chunkRecs)
			return 0, err
		}
		db.wal.Append(&LogRecord{Kind: LogAbort, Txn: chunk.id})
		chunk.finish()
		return 0, err
	}
	if consumed == 0 {
		db.wal.Append(&LogRecord{Kind: LogAbort, Txn: chunk.id})
		chunk.finish()
		return 0, fmt.Errorf("rdbms: bulk chunk made no progress")
	}

	rec := &LogRecord{Kind: LogCommit, Txn: chunk.id}
	target := db.vs.withPending(func() LSN { return db.wal.AppendEnd(rec) })
	chunk.commitLogged = true
	if err := db.wal.FlushCommit(target); err != nil {
		db.vs.cancelPending(target)
		bl.rollbackChunk(chunk, marker, rids, chunkRecs)
		return 0, err
	}
	// Durable: index, then publish — entries must exist before a
	// snapshot can see the rows live.
	for col, idx := range t.Indexes {
		ci := t.Schema.ColIndex(col)
		if bl.deferred {
			ents := bl.entries[col]
			for i, rid := range rids {
				ents = append(ents, idxEntry{key: rows[i][ci], rid: rid})
			}
			bl.entries[col] = ents
		} else {
			for i, rid := range rids {
				idx.Insert(rows[i][ci], rid)
			}
		}
	}
	db.vs.publishBatch(target, marker)
	chunk.finish()
	bl.stats.Rows += consumed
	bl.stats.Batches++
	return consumed, nil
}

// rollbackChunk compensates a placed-but-uncommitted (or in-doubt) chunk
// in-process: one LogBatchDelete carrying the before-images, tombstones
// at each RID, the chunk's marker fenced back to its pending ("no row")
// state, then the abort verdict — flushed when a commit record might
// already be durable, so the last verdict wins.
func (bl *BulkLoader) rollbackChunk(chunk *Txn, marker *batchMarker, rids []RID, recs [][]byte) {
	db := bl.db
	lsn := db.wal.Append(&LogRecord{
		Kind:  LogBatchDelete,
		Txn:   chunk.id,
		Table: bl.table,
		Data:  encodeBatchRows(rids, recs),
	})
	for _, rid := range rids {
		bl.t.Heap.DeleteWith(rid, func(RID) LSN { return lsn })
	}
	db.vs.abortBatch(marker)
	db.wal.Append(&LogRecord{Kind: LogAbort, Txn: chunk.id})
	if chunk.commitLogged {
		db.wal.Flush()
	}
	chunk.finish()
}

// finishIndexes installs the deferred indexes: per column, sort the
// accumulated run once and build the tree bottom-up. Input the sorted
// builder rejects (incomparable adjacent keys) falls back to
// comparison-driven inserts — same contents, just slower.
func (bl *BulkLoader) finishIndexes() {
	if !bl.deferred {
		return
	}
	for col, idx := range bl.t.Indexes {
		ents := bl.entries[col]
		sort.Slice(ents, func(i, j int) bool {
			if c, ok := Compare(ents[i].key, ents[j].key); ok {
				if c != 0 {
					return c < 0
				}
				return ridLess(ents[i].rid, ents[j].rid)
			}
			return ents[i].key.Type < ents[j].key.Type
		})
		var keys []Value
		var postings [][]RID
		for _, e := range ents {
			if n := len(keys); n > 0 && eqKey(keys[n-1], e.key) {
				postings[n-1] = append(postings[n-1], e.rid)
				continue
			}
			keys = append(keys, e.key)
			postings = append(postings, []RID{e.rid})
		}
		nt, err := newBTreeFromSorted(defaultBTreeOrder, keys, postings)
		if err != nil {
			nt = NewBTree()
			for _, e := range ents {
				nt.Insert(e.key, e.rid)
			}
		}
		idx.ReplaceContents(nt)
		delete(bl.entries, col)
	}
}

// Commit installs deferred indexes, ends the session, and fences the
// load with a full checkpoint: every batch becomes durable in the data
// pages, the catalog captures the new derived state (indexes), and the
// WAL the load grew truncates away.
func (bl *BulkLoader) Commit(ctx context.Context) (BulkLoadStats, error) {
	if bl.done {
		return bl.stats, ErrTxnDone
	}
	bl.finishIndexes()
	bl.db.vs.releaseSnapshot(bl.pin, bl.pinSeq)
	bl.done = true
	if err := bl.tx.Commit(); err != nil {
		return bl.stats, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return bl.stats, err
		}
	}
	if err := bl.db.Checkpoint(); err != nil {
		return bl.stats, err
	}
	return bl.stats, nil
}

// Abort ends the session without the fence. Chunks that committed stay
// committed (each was acknowledged durable); deferred indexes are still
// installed so they cover those chunks — the table is left consistent,
// just shorter than intended.
func (bl *BulkLoader) Abort() error {
	if bl.done {
		return nil
	}
	bl.finishIndexes()
	bl.db.vs.releaseSnapshot(bl.pin, bl.pinSeq)
	bl.done = true
	return bl.tx.Abort()
}

// BulkLoad loads rows into table through a complete bulk-load session:
// chunked batch commits, deferred or incremental index maintenance, and
// the closing checkpoint fence. On error, committed chunks remain (see
// BulkLoader.Abort).
func (db *DB) BulkLoad(ctx context.Context, table string, rows []Tuple) (BulkLoadStats, error) {
	bl, err := db.BeginBulkLoad(table)
	if err != nil {
		return BulkLoadStats{}, err
	}
	if err := bl.Append(ctx, rows); err != nil {
		stats := bl.stats
		bl.Abort()
		return stats, err
	}
	return bl.Commit(ctx)
}
