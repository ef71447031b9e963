package rdbms

import (
	"context"
	"errors"
	"fmt"
)

// ErrTxnDone is returned when using a committed or aborted transaction.
var ErrTxnDone = errors.New("rdbms: transaction already finished")

// ctxCheckInterval is how many rows a scan-shaped loop processes between
// context-cancellation checks. Checking every row would put a ctx.Err()
// call (an atomic load plus an interface comparison) on the hottest loop
// in the engine; every 64th row bounds a canceled request's overshoot to
// a few microseconds of extra decoding while keeping the common
// uncancelled path effectively free.
const ctxCheckInterval = 64

// Txn is a strict-2PL transaction. All reads and writes go through a Txn;
// locks are held until Commit or Abort. Txn methods are not safe for
// concurrent use by multiple goroutines (one goroutine per transaction,
// many concurrent transactions).
type Txn struct {
	id       TxnID
	db       *DB
	ctx      context.Context // nil = never canceled; see WithContext
	done     bool
	firstLSN LSN // LSN of this transaction's BEGIN record: while the txn is
	// active, no WAL truncation horizon may pass it (its records are the
	// undo information a crash-time rollback needs)
	// commitLogged is set once a COMMIT record has been appended. If that
	// commit's flush fails and the caller aborts instead, the abort must
	// be flushed too: otherwise a crash could durably keep the commit
	// record but lose the abort, resurrecting a transaction the caller
	// was told did not commit.
	commitLogged bool
	// undo is this transaction's data records, in log order.
	undo []*LogRecord
	// touched tracks the rows whose version chains and heap slot
	// reservations this transaction holds (one of each per row, taken on
	// first mutation), with the heap holding the reservation. At commit the
	// chain holds convert into published versions; at abort they are
	// released (undo restored the heap to each chain's base image). Either
	// way the reservations go at finish.
	touched map[chainRef]*HeapFile
}

// noteVersion records the committed pre-image of a row in the version
// store, and reserves its slot in the heap, the first time this
// transaction mutates it. It must run before the row's heap bytes can
// change (the mutation paths call it either ahead of the heap call or
// inside the onApply hook, which runs under the page's write latch), so
// snapshot readers that find no chain know the heap bytes they read were
// committed, and no insert spends the bytes undo needs back.
func (tx *Txn) noteVersion(t *Table, table string, rid RID, before Tuple, beforeLive bool) {
	ref := chainRef{table: table, rid: rid}
	if _, ok := tx.touched[ref]; ok {
		return
	}
	if tx.touched == nil {
		tx.touched = make(map[chainRef]*HeapFile)
	}
	tx.touched[ref] = t.Heap
	tx.db.vs.noteWrite(table, rid, before, beforeLive)
	n := 0
	if beforeLive {
		n = encodedLen(before)
	}
	t.Heap.reserve(rid, n)
}

func (tx *Txn) touchedRefs() []chainRef {
	refs := make([]chainRef, 0, len(tx.touched))
	for r := range tx.touched {
		refs = append(refs, r)
	}
	return refs
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	db.txnMu.Lock()
	db.nextTxn++
	tx := &Txn{id: db.nextTxn, db: db}
	db.active[tx.id] = tx
	// The BEGIN record is appended while the txn is already registered in
	// db.active, so a concurrent checkpoint either sees the txn (and
	// bounds its truncation horizon by firstLSN) or runs entirely before
	// any of its records exist.
	tx.firstLSN = db.wal.Append(&LogRecord{Kind: LogBegin, Txn: tx.id})
	db.txnMu.Unlock()
	return tx
}

// ID returns the transaction id.
func (tx *Txn) ID() TxnID { return tx.id }

// WithContext attaches a cancellation context to the transaction and
// returns it. Long row-producing loops (heap scans, index iteration, the
// SELECT fetch paths) poll the context at scan-loop granularity and fail
// with its error once it is done — the mechanism that bounds how long a
// request with a deadline can hold the engine's locks. A nil or
// background context keeps the pre-context behavior: the transaction
// runs to completion. The caller still owns the transaction's outcome:
// a canceled operation returns the context error and the transaction
// must be aborted (or committed, for the work that did finish) as usual.
func (tx *Txn) WithContext(ctx context.Context) *Txn {
	tx.ctx = ctx
	return tx
}

// ctxErr reports the transaction context's error, nil when no context is
// attached.
func (tx *Txn) ctxErr() error {
	if tx.ctx == nil {
		return nil
	}
	return tx.ctx.Err()
}

func (tx *Txn) table(name string) (*Table, error) {
	t := tx.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("rdbms: table %s does not exist", name)
	}
	return t, nil
}

// Insert adds a tuple, returning its RID.
func (tx *Txn) Insert(table string, tup Tuple) (RID, error) {
	if tx.done {
		return RID{}, ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return RID{}, err
	}
	tup = t.Schema.Coerce(tup)
	if err := t.Schema.Validate(tup); err != nil {
		return RID{}, err
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockIX); err != nil {
		return RID{}, err
	}
	t.noteMutation()
	rec := &LogRecord{Kind: LogInsert, Txn: tx.id, Table: table, After: tup}
	rid, err := t.Heap.InsertWhere(tup, func(rid RID) LSN {
		// The chosen slot is only known here; this runs under the page's
		// write latch, so the chain and the reservation exist before any
		// reader or inserter can observe the new bytes. The pre-image is
		// "no row".
		tx.noteVersion(t, table, rid, nil, false)
		rec.Row = rid
		return tx.db.wal.Append(rec)
	})
	if err != nil {
		return RID{}, err
	}
	// Record the undo entry before anything below can fail: a logged,
	// applied operation with no undo entry would go uncompensated by
	// Abort, and recovery would replay it as this transaction's final
	// verdict on the slot.
	tx.undo = append(tx.undo, rec)
	// Lock the new row exclusively (no other txn can see it anyway until
	// commit, but readers scanning the heap must block on it).
	if err := tx.db.lm.Acquire(tx.id, RowLock(table, rid), LockExclusive); err != nil {
		return RID{}, err
	}
	for col, idx := range t.Indexes {
		ci := t.Schema.ColIndex(col)
		idx.Insert(tup[ci], rid)
	}
	return rid, nil
}

// Get reads the tuple at rid under a shared lock.
func (tx *Txn) Get(table string, rid RID) (Tuple, bool, error) {
	if tx.done {
		return nil, false, ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return nil, false, err
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockIS); err != nil {
		return nil, false, err
	}
	if err := tx.db.lm.Acquire(tx.id, RowLock(table, rid), LockShared); err != nil {
		return nil, false, err
	}
	return t.Heap.Get(rid)
}

// Delete removes the tuple at rid.
func (tx *Txn) Delete(table string, rid RID) error {
	if tx.done {
		return ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockIX); err != nil {
		return err
	}
	if err := tx.db.lm.Acquire(tx.id, RowLock(table, rid), LockExclusive); err != nil {
		return err
	}
	before, live, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	if !live {
		return fmt.Errorf("rdbms: delete of missing row %v", rid)
	}
	t.noteMutation()
	tx.noteVersion(t, table, rid, before, true)
	rec := &LogRecord{Kind: LogDelete, Txn: tx.id, Table: table, Row: rid, Before: before}
	ok, err := t.Heap.DeleteWith(rid, func(RID) LSN { return tx.db.wal.Append(rec) })
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("rdbms: delete of missing row %v", rid)
	}
	for col, idx := range t.Indexes {
		ci := t.Schema.ColIndex(col)
		idx.Delete(before[ci], rid)
	}
	tx.undo = append(tx.undo, rec)
	return nil
}

// Update replaces the tuple at rid, returning its (possibly new) RID.
func (tx *Txn) Update(table string, rid RID, tup Tuple) (RID, error) {
	if tx.done {
		return RID{}, ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return RID{}, err
	}
	tup = t.Schema.Coerce(tup)
	if err := t.Schema.Validate(tup); err != nil {
		return RID{}, err
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockIX); err != nil {
		return RID{}, err
	}
	if err := tx.db.lm.Acquire(tx.id, RowLock(table, rid), LockExclusive); err != nil {
		return RID{}, err
	}
	before, live, err := t.Heap.Get(rid)
	if err != nil {
		return RID{}, err
	}
	if !live {
		return RID{}, fmt.Errorf("rdbms: update of missing row %v", rid)
	}
	t.noteMutation()
	tx.noteVersion(t, table, rid, before, true)
	rec := &LogRecord{Kind: LogUpdate, Txn: tx.id, Table: table, Row: rid, Before: before, After: tup}
	newRID, ok, err := t.Heap.TryUpdateInPlace(rid, tup, func(RID) LSN { return tx.db.wal.Append(rec) })
	if err != nil {
		return RID{}, err
	}
	if ok {
		tx.fixIndexes(t, rid, newRID, before, tup)
		tx.undo = append(tx.undo, rec)
		return newRID, nil
	}
	// Tuple moves: logged as delete + insert so each page mutation has its
	// own record while pinned.
	del := &LogRecord{Kind: LogDelete, Txn: tx.id, Table: table, Row: rid, Before: before}
	if _, err := t.Heap.DeleteWith(rid, func(RID) LSN { return tx.db.wal.Append(del) }); err != nil {
		return RID{}, err
	}
	tx.undo = append(tx.undo, del)
	ins := &LogRecord{Kind: LogInsert, Txn: tx.id, Table: table, After: tup}
	newRID, err = t.Heap.InsertWhere(tup, func(r RID) LSN {
		tx.noteVersion(t, table, r, nil, false)
		ins.Row = r
		return tx.db.wal.Append(ins)
	})
	if err != nil {
		return RID{}, err
	}
	// Undo entry first, for the same reason as in Insert: the logged
	// insert must be compensatable even if the lock acquire fails.
	tx.undo = append(tx.undo, ins)
	if err := tx.db.lm.Acquire(tx.id, RowLock(table, newRID), LockExclusive); err != nil {
		return RID{}, err
	}
	tx.fixIndexes(t, rid, newRID, before, tup)
	return newRID, nil
}

// fixIndexes moves a row's index entries from (before, oldRID) to (after,
// newRID), skipping the ones that do not change. The new entry goes in
// before the old one comes out, so an index lookup never finds the row
// missing mid-update: LockRowsByIndex answers "no such row" from that.
func (tx *Txn) fixIndexes(t *Table, oldRID, newRID RID, before, after Tuple) {
	for col, idx := range t.Indexes {
		ci := t.Schema.ColIndex(col)
		if oldRID == newRID && eqKey(before[ci], after[ci]) {
			continue
		}
		idx.Insert(after[ci], newRID)
		idx.Delete(before[ci], oldRID)
	}
}

// Scan iterates every live tuple in the table under a shared table lock.
// With a context attached (WithContext), cancellation is polled before
// each heap page and the scan stops with the context's error — the
// deadline check that keeps a slow or abandoned SELECT from holding its
// shared lock forever.
func (tx *Txn) Scan(table string, fn func(rid RID, t Tuple) bool) error {
	return tx.scanWhere(table, nil, fn)
}

// scanWhere implements readSource: Scan with f applied in the page loop.
func (tx *Txn) scanWhere(table string, f *rowFilter, fn func(rid RID, t Tuple) bool) error {
	if tx.done {
		return ErrTxnDone
	}
	if err := tx.ctxErr(); err != nil {
		return err
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockShared); err != nil {
		return err
	}
	_, err = scanHeap(t.Heap, visibility{}, tx.ctxErr, nil, &tupleSink{f: f, fn: fn})
	return err
}

// IndexLookup returns RIDs with key in the named column's index, under a
// shared table lock.
func (tx *Txn) IndexLookup(table, column string, key Value) ([]RID, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	idx := t.Indexes[column]
	if idx == nil {
		return nil, fmt.Errorf("rdbms: no index on %s.%s", table, column)
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockShared); err != nil {
		return nil, err
	}
	return idx.Lookup(key), nil
}

// LockRowsByIndex finds every row whose indexed column equals key and
// which match accepts, and locks them for writing: IX on the table (never
// S, so writers of distinct rows stay compatible and cannot form an S→X
// upgrade cycle), then X on each row, from one index lookup. Each index
// candidate is read under its heap page's read latch and offered to
// match; an accepted one is X-locked, then re-read and re-checked, since
// it was chosen without the lock. If meanwhile a row died, stopped
// matching, or moved (an Update that does not fit in place gives the row
// a new RID), the lookup runs again. An index entry whose heap slot is
// dead belongs to a writer in the middle of moving or deleting that row,
// which may be one of the matches: the lookup waits for that writer
// through the entry's X lock and runs again. Rows come back in index
// order, each with the tuple read under its lock.
//
// Candidates are chosen from the newest heap bytes, committed or not, and
// the re-check under X decides. "No such row" (no rids, err nil) is
// answered without a predicate lock: a row that another transaction is
// inserting, or has deleted or rewritten out of the match without
// committing, is not waited on.
func (tx *Txn) LockRowsByIndex(table, column string, key Value, match func(Tuple) bool) (rids []RID, tups []Tuple, err error) {
	if tx.done {
		return nil, nil, ErrTxnDone
	}
	t, err := tx.table(table)
	if err != nil {
		return nil, nil, err
	}
	idx := t.Indexes[column]
	if idx == nil {
		return nil, nil, fmt.Errorf("rdbms: no index on %s.%s", table, column)
	}
	ci := t.Schema.ColIndex(column)
	accept := func(got Tuple, live bool) bool { return live && eqKey(got[ci], key) && match(got) }
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockIX); err != nil {
		return nil, nil, err
	}
	for {
		if err := tx.ctxErr(); err != nil {
			return nil, nil, err
		}
		rids, tups = rids[:0], tups[:0]
		var busy RID
		var inFlight, again bool
		for _, r := range idx.Lookup(key) {
			got, live, err := t.Heap.Get(r)
			if err != nil {
				return nil, nil, err
			}
			if accept(got, live) {
				if err := tx.db.lm.Acquire(tx.id, RowLock(table, r), LockExclusive); err != nil {
					return nil, nil, err
				}
				if got, live, err = t.Heap.Get(r); err != nil {
					return nil, nil, err
				}
				if accept(got, live) {
					rids, tups = append(rids, r), append(tups, got)
				} else {
					again = true
				}
				continue
			}
			// A dead slot this transaction already holds X on has no writer
			// in flight: it is not worth waiting on again.
			if !live && !inFlight && !tx.db.lm.Held(tx.id, RowLock(table, r), LockExclusive) {
				busy, inFlight = r, true
			}
		}
		if inFlight {
			if err := tx.db.lm.Acquire(tx.id, RowLock(table, busy), LockExclusive); err != nil {
				return nil, nil, err
			}
		} else if !again {
			return rids, tups, nil
		}
	}
}

// IndexRange iterates index entries in [lo, hi] (nil = unbounded),
// polling an attached context every ctxCheckInterval entries like Scan.
func (tx *Txn) IndexRange(table, column string, lo, hi *Value, fn func(key Value, rid RID) bool) error {
	if tx.done {
		return ErrTxnDone
	}
	if err := tx.ctxErr(); err != nil {
		return err
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	idx := t.Indexes[column]
	if idx == nil {
		return fmt.Errorf("rdbms: no index on %s.%s", table, column)
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(table), LockShared); err != nil {
		return err
	}
	if tx.ctx == nil {
		idx.Range(lo, hi, fn)
		return nil
	}
	var n int
	var ctxErr error
	idx.Range(lo, hi, func(key Value, rid RID) bool {
		n++
		if n%ctxCheckInterval == 0 {
			if ctxErr = tx.ctx.Err(); ctxErr != nil {
				return false
			}
		}
		return fn(key, rid)
	})
	return ctxErr
}

// Commit forces the log and releases locks. After Commit the transaction's
// effects are durable (they survive a crash). Durability is bought through
// the WAL's group-commit sequencer: the committer waits only until the
// flush batch containing its own commit record is durable, so N
// concurrent committers share O(1) fsyncs instead of paying one each.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	rec := &LogRecord{Kind: LogCommit, Txn: tx.id}
	versioned := len(tx.touched) > 0
	var target LSN
	if versioned {
		// Register the commit LSN as pending atomically with its WAL
		// append: group commit lets a later commit publish first, and
		// without this a snapshot pinned in the gap could miss an earlier,
		// already-appended commit and break repeatable read.
		target = tx.db.vs.withPending(func() LSN { return tx.db.wal.AppendEnd(rec) })
	} else {
		target = tx.db.wal.AppendEnd(rec)
	}
	tx.commitLogged = true
	if err := tx.db.wal.FlushCommit(target); err != nil {
		// The commit record may or may not be durable; the transaction is
		// in doubt until the caller aborts (which forces the abort record
		// out) or a crash lets recovery decide from what survived. Either
		// way this process will not publish the transaction's versions, so
		// stop gating snapshots and GC on the pending LSN.
		if versioned {
			tx.db.vs.cancelPending(target)
		}
		return err
	}
	if versioned {
		// Durable: publish the per-row committed states at the commit LSN
		// so snapshots at or past it resolve to this transaction's writes.
		tx.db.vs.publish(target, slotChanges(tx.undo), tx.touchedRefs())
	}
	tx.finish()
	if versioned {
		// Read your writes: an earlier commit of the same flush batch may
		// still be pending, and a snapshot pins below min(pending). Return
		// only once none below target is, so a snapshot begun after this
		// acknowledgement sees it. Locks are already released: the wait
		// blocks no other transaction.
		tx.db.vs.awaitPublished(target)
	}
	return nil
}

// Abort rolls back all changes with the undo routine recovery uses
// (DB.undoSlots): each touched slot is forced once, at its own RID, to the
// before-image this transaction first found there — its reservation kept
// the bytes for it. Every forced slot is logged as a compensation record
// attributed to this transaction: recovery replays aborted transactions
// like winners (the operations and their compensations net to nothing, in
// global log order), which is what keeps an aborted transaction's undo
// from firing twice when a later committed transaction reuses the same
// RID. Then Abort logs the abort and releases locks and reservations.
func (tx *Txn) Abort() error {
	if tx.done {
		return ErrTxnDone
	}
	slots, err := tx.db.undoSlots(tx.undo, func(c slotChange) LSN {
		return tx.db.wal.Append(c.compensation(tx.id))
	})
	if err != nil {
		return fmt.Errorf("rdbms: abort: %w", err)
	}
	// Every slot's restored index entries go in before any undone entry
	// comes out: undoing a moving update restores the old RID and empties
	// the new one, and an index lookup in between must not find the row
	// missing (see fixIndexes).
	for pass := range 2 {
		for _, c := range slots {
			t := tx.db.Table(c.table)
			if t == nil {
				continue
			}
			for col, idx := range t.Indexes {
				ci := t.Schema.ColIndex(col)
				if c.before.Live && c.after.Live && eqKey(c.before.Tup[ci], c.after.Tup[ci]) {
					continue
				}
				if pass == 0 && c.before.Live {
					idx.Insert(c.before.Tup[ci], c.rid)
				}
				if pass == 1 && c.after.Live {
					idx.Delete(c.after.Tup[ci], c.rid)
				}
			}
		}
	}
	// Undo restored every touched row to its chain's base image; release
	// the writer holds without publishing anything.
	if len(tx.touched) > 0 {
		tx.db.vs.release(tx.touchedRefs())
	}
	tx.db.wal.Append(&LogRecord{Kind: LogAbort, Txn: tx.id})
	if tx.commitLogged {
		// Aborting a failed commit: the abort verdict must reach stable
		// storage before it is acknowledged, so the earlier commit record
		// can never outlive it in the log (recovery takes the last
		// verdict).
		if err := tx.db.wal.Flush(); err != nil {
			return err
		}
	}
	tx.finish()
	return nil
}

func (tx *Txn) finish() {
	tx.done = true
	for ref, h := range tx.touched {
		h.unreserve(ref.rid)
	}
	tx.db.lm.ReleaseAll(tx.id)
	tx.db.txnMu.Lock()
	delete(tx.db.active, tx.id)
	tx.db.txnMu.Unlock()
}
