package rdbms

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DB is the database engine facade: catalog, storage, WAL, lock manager,
// and transaction lifecycle. The durability protocol is steal/no-force
// with physiological logging and page LSNs: dirty pages may be written
// back at any time (the buffer pool flushes the WAL up to the page's LSN
// first, honouring the WAL rule), commits force only the log, aborts
// write compensation records for their physical restores, and recovery
// is ARIES-style — physical redo of every logged record gated on
// pageLSN < rec.LSN (idempotent), then state-idempotent undo of loser
// transactions (see recover).
//
// Checkpoints are fuzzy: they run while transactions commit (no quiesce
// stall), bracket themselves with begin/end records carrying the
// dirty-page table, flush what they can (pinned pages simply stay
// dirty), and truncate the WAL at the min(recLSN, active-transaction
// firstLSN) horizon rather than resetting it — LSNs are monotonic for
// the life of the database. Derived state (index checkpoint chains) is
// persisted consistently only when the system is momentarily idle; a checkpoint taken mid-traffic marks it invalid
// instead, and recovery rebuilds by scan (see Table.catMut).
//
// DDL (CREATE TABLE / CREATE INDEX / DROP TABLE) is not logged: each DDL
// statement performs a checkpoint, so the catalog is always consistent
// with a checkpoint boundary.
type DB struct {
	mu     sync.RWMutex // guards the tables map
	pager  Pager
	bp     *BufferPool
	wal    *WAL
	lm     *LockManager
	vs     *VersionStore
	tables map[string]*Table

	// ckptMu serializes checkpoints and DDL (the only mutators of the
	// tables map and of per-table persistence bookkeeping). It is never
	// held while waiting on transaction progress, so committers keep
	// running under an in-flight checkpoint.
	ckptMu sync.Mutex

	// ownsStorage marks databases built by OpenDir, whose Close also
	// closes the pager and WAL it opened. dirLock is OpenDir's exclusive
	// flock on the directory, released by Close.
	ownsStorage bool
	dirLock     *os.File

	txnMu   sync.Mutex
	nextTxn TxnID
	active  map[TxnID]*Txn

	// checkpointLSN is the recovery replay origin: the WAL-truncation
	// horizon of the last completed checkpoint (persisted in the catalog).
	checkpointLSN LSN
	// checkpointID is a monotonically increasing checkpoint generation
	// counter (persisted in the catalog). Index checkpoint chains are
	// stamped with it; a chain whose stamp disagrees with the catalog
	// belongs to another generation and is rejected at load.
	checkpointID uint64

	rebuildIndexes bool      // Options.RebuildIndexes: skip checkpoint loads
	openStats      OpenStats // what the last recover() did with indexes

	checkpoints int64 // completed checkpoints (diagnostics and tests)
}

// Options configures Open.
type Options struct {
	BufferPages int // buffer pool capacity (default 256)
	// RebuildIndexes disables loading indexes from their checkpoint
	// chains, forcing the legacy full rebuild from the heap (benchmarks
	// and tests of the fallback path).
	RebuildIndexes bool
	// GroupCommitWindow overrides the group-commit leader's straggler
	// wait budget, in scheduler-yield iterations. nil selects
	// DefaultGroupCommitWindow; a pointer to 0 disables the window
	// entirely, degenerating to solo-commit flushing — each leader
	// captures only the records already buffered when it takes over.
	GroupCommitWindow *int
	// WALSegmentBytes overrides the WAL segment rotation threshold
	// (default DefaultWALSegmentBytes). Smaller segments reclaim log
	// space at finer granularity under long-running transactions, at the
	// cost of more frequent rotations (one manifest swap + directory
	// sync each).
	WALSegmentBytes int64
}

// OpenStats reports how recovery reconstructed secondary structures.
type OpenStats struct {
	// IndexesLoaded counts indexes restored from a valid checkpoint chain
	// (bulk load + WAL-tail delta); IndexesRebuilt counts fallbacks to
	// the full heap-scan rebuild (missing, stale, torn, or
	// fuzzy-invalidated chains).
	IndexesLoaded  int
	IndexesRebuilt int
}

// LastOpenStats returns the index-reconstruction stats of the recovery
// that opened this database (zero for a freshly created one).
func (db *DB) LastOpenStats() OpenStats { return db.openStats }

// Checkpoints returns how many checkpoints have completed on this handle
// (diagnostics; the non-quiesce bench uses it to prove overlap).
func (db *DB) Checkpoints() int64 {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpoints
}

// DataFileName and WALDirName are the entries OpenDir manages inside its
// directory: the checksummed page file and the WAL segment directory
// (numbered segment files plus their manifest).
const (
	DataFileName = "data.udb"
	WALDirName   = "wal"
)

// OpenDir opens (creating if needed) an on-disk database rooted at dir:
// checksummed pages in dir/data.udb, the segmented write-ahead log under
// dir/wal/. An existing directory is recovered — orphan WAL segments
// collected, torn WAL tail truncated, committed work redone, losers
// undone — and Close checkpoints and releases both, so OpenDir → work →
// Close → OpenDir is the full crash-safe lifecycle.
func OpenDir(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDBDir(dir)
	if err != nil {
		return nil, err
	}
	pager, err := OpenFilePager(filepath.Join(dir, DataFileName))
	if err != nil {
		lock.Close()
		return nil, err
	}
	wal, err := OpenFileWAL(filepath.Join(dir, WALDirName))
	if err != nil {
		pager.Close()
		lock.Close()
		return nil, err
	}
	db, err := Open(pager, wal, opts)
	if err != nil {
		pager.Close()
		wal.Close()
		lock.Close()
		return nil, err
	}
	db.ownsStorage = true
	db.dirLock = lock
	return db, nil
}

// Open initializes a database over pager and wal. A fresh pager gets a new
// catalog; an existing one is recovered (catalog load, WAL redo/undo,
// index restore). The buffer pool enforces the WAL rule for every dirty
// page it writes back.
func Open(pager Pager, wal *WAL, opts Options) (*DB, error) {
	if opts.BufferPages == 0 {
		opts.BufferPages = 256
	}
	if opts.GroupCommitWindow != nil {
		wal.window = *opts.GroupCommitWindow
	}
	if opts.WALSegmentBytes > 0 {
		wal.SetSegmentTarget(opts.WALSegmentBytes)
	}
	db := &DB{
		pager:          pager,
		wal:            wal,
		bp:             NewBufferPool(pager, wal, opts.BufferPages),
		lm:             NewLockManager(),
		vs:             newVersionStore(),
		tables:         make(map[string]*Table),
		active:         make(map[TxnID]*Txn),
		rebuildIndexes: opts.RebuildIndexes,
	}
	if pager.NumPages() == 0 {
		// Fresh database: allocate and write the catalog page.
		id, err := pager.Allocate()
		if err != nil {
			return nil, err
		}
		if id != 0 {
			return nil, fmt.Errorf("rdbms: catalog page allocated as %d, want 0", id)
		}
		if err := db.writeCatalog(); err != nil {
			return nil, err
		}
		return db, nil
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	return db, nil
}

// writeCatalog persists the catalog page. Per-table derived-state
// metadata (snapLSN, validity) is written from the values the last
// capture froze (Table.snapLSN / derivedValid). Callers hold ckptMu (checkpoints, DDL) or are single-threaded (fresh
// open, recovery).
func (db *DB) writeCatalog() error {
	db.mu.RLock()
	cat := catalogData{checkpointLSN: db.checkpointLSN, checkpointID: db.checkpointID}
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := db.tables[n]
		ct := catalogTable{
			schema:       t.Schema,
			firstPage:    t.Heap.FirstPage(),
			snapLSN:      t.snapLSN,
			bornLSN:      t.bornLSN,
			derivedValid: t.derivedValid,
		}
		for col := range t.Indexes {
			ci := catalogIndex{col: col, firstPage: InvalidPage}
			if ip := t.idx[col]; ip != nil {
				ci.firstPage = ip.firstPage
				ci.stamp = ip.stamp
			}
			ct.indexes = append(ct.indexes, ci)
		}
		cat.tables = append(cat.tables, ct)
	}
	db.mu.RUnlock()
	page, err := encodeCatalog(&cat)
	if err != nil {
		return err
	}
	if err := db.pager.WritePage(0, page); err != nil {
		return err
	}
	return db.pager.Sync()
}

// Checkpoint makes everything committed so far durable in the data pages
// and truncates the WAL to the surviving horizon. It is fuzzy — it runs
// while transactions are active and committing, never quiescing them:
//
//  1. a begin-checkpoint record (with the dirty-page table and the
//     active-transaction list) is logged and flushed;
//  2. dirty pages flush incrementally — the pool lock is taken per page
//     and pinned pages are skipped (they stay dirty and simply hold the
//     truncation horizon back), so committers keep pinning, mutating and
//     committing throughout;
//  3. derived state (index chains) is captured
//     consistently if the system happens to be idle, or marked invalid
//     for mid-change tables otherwise (recovery then rebuilds by scan);
//  4. an end-checkpoint record is logged and flushed;
//  5. the horizon H = min(flushed end, min recLSN of pages still not
//     durably written, min firstLSN of still-active transactions) is
//     computed: every record below H describes changes that are durably
//     in the pages and belong to resolved transactions;
//  6. the catalog is written with checkpointLSN = H — the new replay
//     origin, valid against the still-untruncated log;
//  7. the WAL prefix before H is discarded (WAL.TruncateTo), bounding
//     log growth without ever resetting LSNs.
//
// A crash between any two steps recovers from the last durable catalog:
// its origin is always at or below every record the surviving pages and
// transactions still need, and redo's page-LSN gating makes replaying
// already-flushed work a no-op.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked is Checkpoint under ckptMu (DDL and recovery call it
// directly).
func (db *DB) checkpointLocked() error {
	// Opportunistic version GC: prune chain history no current or future
	// snapshot can pin (cheap, and keeps an idle system's chains empty).
	db.vs.Sweep()
	if db.checkpointIsNoopLocked() {
		// Nothing to make durable, nothing to truncate, nothing derived to
		// re-capture: the on-disk state already IS the checkpoint. This is
		// the clean reopen→close cycle (and an idle periodic checkpointer),
		// which must not pay a single fsync.
		db.checkpoints++
		return nil
	}
	dpt := db.bp.DirtyPageTable()
	// The begin record needs no flush of its own: the first page
	// write-back (or the end record's flush) forces it out, and recovery
	// never depends on it — the catalog's checkpointLSN is the origin.
	db.wal.Append(&LogRecord{Kind: LogCheckpointBegin, Data: encodeCheckpointInfo(dpt, db.activeTxnInfo())})
	if err := db.bp.Flush(); err != nil {
		return err
	}
	if err := db.captureDerivedState(); err != nil {
		return err
	}
	db.wal.Append(&LogRecord{Kind: LogCheckpointEnd})
	if err := db.wal.Flush(); err != nil {
		return err
	}
	// Horizon sampling order matters: active transactions BEFORE page
	// recLSNs. A transaction always unpins (marking its page dirty)
	// before it leaves db.active, so a committer racing this code is
	// caught by at least one of the two scans — seen as active (its
	// firstLSN bounds h), or already finished with its dirty page (or
	// unsynced write-back) visible to MinRecLSN. Scanning recLSNs first
	// would open a window where a transaction unpins, commits, and
	// leaves db.active between the scans, protected by neither.
	h := db.wal.FlushedLSN()
	if m, ok := db.minActiveFirstLSN(); ok && m < h {
		h = m
	}
	if m, ok := db.bp.MinRecLSN(); ok && m < h {
		h = m
	}
	db.checkpointLSN = h
	if err := db.writeCatalog(); err != nil {
		return err
	}
	if err := db.wal.TruncateTo(h); err != nil {
		return err
	}
	db.checkpoints++
	return nil
}

// checkpointIsNoopLocked reports whether a checkpoint would change
// nothing: the log holds no record past the last checkpoint's horizon
// (segment-granular truncation keeps already-checkpointed bytes of the
// active segment on disk, so "physically empty" is the wrong test), no
// page write is pending or unsynced, no transaction is active, and
// every table's persisted derived state is still a consistent capture
// of its current contents.
func (db *DB) checkpointIsNoopLocked() bool {
	if !db.wal.EmptySince(db.checkpointLSN) || db.bp.HasPendingWrites() {
		return false
	}
	db.txnMu.Lock()
	active := len(db.active)
	db.txnMu.Unlock()
	if active > 0 {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.mut.Load() != t.catMut || !t.derivedValid {
			return false
		}
	}
	return true
}

// activeTxnInfo snapshots (txn, firstLSN) for every active transaction.
func (db *DB) activeTxnInfo() map[TxnID]LSN {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	out := make(map[TxnID]LSN, len(db.active))
	for id, tx := range db.active {
		out[id] = tx.firstLSN
	}
	return out
}

// minActiveFirstLSN returns the smallest BEGIN-record LSN among active
// transactions: the oldest record a crash-time rollback could still need.
func (db *DB) minActiveFirstLSN() (LSN, bool) {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	var m LSN
	found := false
	for _, tx := range db.active {
		if !found || tx.firstLSN < m {
			m, found = tx.firstLSN, true
		}
	}
	return m, found
}

// captureDerivedState persists each table's index chains — consistently
// when it can prove consistency, invalidating them when it cannot:
//
//   - If no transaction is active, it holds the admission gate (txnMu)
//     while serializing the in-memory trees: new transactions cannot begin and committers cannot
//     finish during the (in-memory, brief) serialization, so the capture
//     is a single consistent cut of all committed state, stamped with
//     the current log position (snapLSN). Chain page I/O happens after
//     the gate releases.
//
//   - Otherwise, tables untouched since their last consistent capture
//     (mut == catMut) keep their chains and snapLSN — still exactly
//     right, and every later record for them is above snapLSN.
//     Mid-change tables get their derived state marked invalid: chain
//     stamps are bumped away from what the chains carry, so a load after
//     a crash is rejected and the index rebuilt from the heap. No
//     committer ever waits.
func (db *DB) captureDerivedState() error {
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for n, t := range db.tables {
		tables[n] = t
	}
	db.mu.RUnlock()

	db.checkpointID++
	stamp := db.checkpointID

	type chainJob struct {
		t       *Table
		col     string
		payload []byte
		mut     int64
	}
	var jobs []chainJob
	// tableCapture is a table's consistency metadata frozen under the
	// gate. It is applied only after every chain write lands: marking a
	// table consistent before its chain I/O succeeded would let a later
	// checkpoint skip it as "unchanged" and persist a catalog whose stamp
	// still matches the old on-disk chain — a post-crash recovery would
	// then bulk-load a stale index as trusted.
	type tableCapture struct {
		t *Table
		m int64
	}
	var captures []tableCapture

	db.txnMu.Lock()
	idle := len(db.active) == 0
	snap := db.wal.NextLSN()
	if idle {
		for _, name := range sortedKeys(tables) {
			t := tables[name]
			m := t.mut.Load()
			if m == t.catMut && t.derivedValid {
				continue // chains already describe snapLSN exactly
			}
			for _, col := range sortedKeys(t.Indexes) {
				bt := t.Indexes[col]
				ip := t.idxState(col)
				mut := bt.Mutations()
				if ip.firstPage != InvalidPage && ip.savedMut == mut {
					continue // tree content unchanged since its chain was written
				}
				jobs = append(jobs, chainJob{t: t, col: col, payload: serializeIndex(bt), mut: mut})
			}
			captures = append(captures, tableCapture{t: t, m: m})
		}
	}
	db.txnMu.Unlock()

	if !idle {
		for _, name := range sortedKeys(tables) {
			t := tables[name]
			m := t.mut.Load()
			if m == t.catMut && t.derivedValid {
				continue // untouched since its last consistent capture: keep it
			}
			t.derivedValid = false
			for _, col := range sortedKeys(t.Indexes) {
				ip := t.idxState(col)
				if ip.firstPage != InvalidPage {
					// The chain bytes stay (their pages are reused by the next
					// consistent capture) but the catalog now expects a stamp
					// they do not carry: a post-crash load is rejected.
					ip.stamp = stamp
					ip.savedMut = -1
				}
			}
		}
		return nil
	}
	// Chain page I/O, outside the gate: committers admitted meanwhile
	// cannot touch these pages (chain pages belong to no heap), and the
	// catalog write that makes the chains reachable follows in
	// checkpointLocked. A failed write aborts the checkpoint with every
	// table's capture unapplied (catMut unchanged), so the next
	// checkpoint re-serializes from scratch; chains already rewritten
	// carry a stamp the durable catalog does not name and are simply
	// rejected at a crash-load.
	for _, job := range jobs {
		ip := job.t.idxState(job.col)
		first, err := db.writeIndexChain(ip.firstPage, stamp, job.payload)
		if err != nil {
			return err
		}
		ip.firstPage = first
		ip.stamp = stamp
		ip.savedMut = job.mut
	}
	for _, c := range captures {
		c.t.catMut = c.m
		c.t.snapLSN = snap
		c.t.derivedValid = true
	}
	return nil
}

// CreateTable adds a table and checkpoints.
func (db *DB) CreateTable(schema TableSchema) error {
	if len(schema.Columns) == 0 {
		return fmt.Errorf("rdbms: table %s needs at least one column", schema.Name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Columns {
		if seen[c.Name] {
			return fmt.Errorf("rdbms: duplicate column %s", c.Name)
		}
		seen[c.Name] = true
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	if _, ok := db.tables[schema.Name]; ok {
		db.mu.Unlock()
		return fmt.Errorf("rdbms: table %s already exists", schema.Name)
	}
	heap, err := CreateHeapFile(db.bp)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	t := &Table{Schema: schema, Heap: heap, Indexes: map[string]*BTree{}}
	t.snapLSN = db.wal.NextLSN()
	t.bornLSN = t.snapLSN
	t.derivedValid = true
	db.tables[schema.Name] = t
	db.mu.Unlock()
	return db.checkpointLocked()
}

// DropTable removes a table. Its pages are abandoned (no free-list reuse).
func (db *DB) DropTable(name string) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	if _, ok := db.tables[name]; !ok {
		db.mu.Unlock()
		return fmt.Errorf("rdbms: table %s does not exist", name)
	}
	delete(db.tables, name)
	db.mu.Unlock()
	db.vs.dropTable(name)
	return db.checkpointLocked()
}

// CreateIndex builds a B+tree index on a column and checkpoints.
func (db *DB) CreateIndex(table, column string) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	t, ok := db.tables[table]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("rdbms: table %s does not exist", table)
	}
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("rdbms: no column %s in %s", column, table)
	}
	if _, ok := t.Indexes[column]; ok {
		return fmt.Errorf("rdbms: index on %s.%s already exists", table, column)
	}
	idx := NewBTree()
	err := t.Heap.Scan(func(rid RID, tup Tuple) bool {
		idx.Insert(tup[ci], rid)
		return true
	})
	if err != nil {
		return err
	}
	db.mu.Lock()
	t.Indexes[column] = idx
	// The new index has no chain yet; force the next consistent capture
	// to serialize it even if the table's rows never move again.
	t.noteMutation()
	db.mu.Unlock()
	return db.checkpointLocked()
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// LockManager exposes the lock manager (for tests and diagnostics).
func (db *DB) LockManager() *LockManager { return db.lm }

// Versions exposes the MVCC version store (for tests and diagnostics).
func (db *DB) Versions() *VersionStore { return db.vs }

// BufferStats returns a snapshot of the buffer pool's counters and
// occupancy (hit/miss/eviction/scan-bypass; threaded up to unidbd
// health).
func (db *DB) BufferStats() BufferStats { return db.bp.Stats() }

// WALSyncs returns the number of WAL device syncs performed so far: the
// group-commit amortization diagnostic (commits per sync).
func (db *DB) WALSyncs() int64 { return db.wal.Syncs() }

// WALSegments returns the number of live WAL segments: the log a restart
// would walk, which only a checkpoint shortens.
func (db *DB) WALSegments() int { return db.wal.SegmentCount() }

// Close checkpoints (flushing the WAL and all dirty pages, truncating
// the log to its end) and releases the storage this DB owns. The
// database must be quiesced — Close is the one checkpoint entry point
// that still requires it, because releasing the files under live
// transactions would be a caller bug, not a checkpoint concern. After
// Close, OpenDir on the same directory reopens the database from its
// data file alone.
func (db *DB) Close() error {
	db.txnMu.Lock()
	n := len(db.active)
	db.txnMu.Unlock()
	if n > 0 {
		return fmt.Errorf("rdbms: close with %d active transactions", n)
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if err := db.pager.Close(); err != nil {
		return err
	}
	if db.ownsStorage {
		if err := db.wal.Close(); err != nil {
			return err
		}
	}
	if db.dirLock != nil {
		return db.dirLock.Close()
	}
	return nil
}

// Abandon leaves the database as a killed process would: nothing is
// flushed, checkpointed or closed, and only OpenDir's directory lock is
// released, as the operating system releases a dead process's flock. It
// is the crash hook for tests that reopen the same directory within one
// process; the handle must not be used afterwards.
func (db *DB) Abandon() error {
	if db.dirLock == nil {
		return nil
	}
	return db.dirLock.Close()
}

// recover loads the catalog and replays the WAL ARIES-style:
//
//   - Redo: every data record from the catalog's replay origin is
//     re-applied physically, gated on the page LSN — a page already
//     stamped at or past the record's LSN provably reflects it (per-page
//     mutation order is LSN order), so the record is skipped. Fuzzy
//     checkpoints flush pages mid-traffic, so any mix of "page ahead of
//     the log position" and "page behind it" is normal; the gate makes
//     both cases converge, and replaying the same tail twice is a no-op.
//
//   - Undo: transactions with no verdict record lost the crash; undoSlots
//     (the routine Abort uses) forces each slot they touched back to the
//     before-image of its oldest loser record. "Set slot to X" is
//     state-idempotent, so recovery crashing mid-undo and re-running
//     converges too. (Transactions aborted before the crash need no undo:
//     their compensation records replayed as part of redo.)
//
//   - Derived state: an index whose catalog entry is marked consistent
//     (captured at snapLSN with no transaction active) bulk-loads from
//     its chain and applies just the tail's per-slot prior→final deltas
//     (prior from the slot's first tail record, final from the heap);
//     anything else — stale, torn, or fuzzy-invalidated — rebuilds from
//     the heap.
//
// A reopen that finds an empty tail with every index loaded skips the
// closing checkpoint entirely — the on-disk state
// already is the checkpoint.
func (db *DB) recover() error {
	page := make([]byte, PageSize)
	if err := db.pager.ReadPage(0, page); err != nil {
		return err
	}
	if allZero(page) {
		// The catalog page was allocated but its first write never became
		// durable: the database died before completing initialization, so
		// nothing can have committed. Reinitialize in place, discarding
		// whatever the orphaned WAL holds.
		if err := db.wal.TruncateTo(db.wal.FlushedLSN()); err != nil {
			return err
		}
		return db.writeCatalog()
	}
	cat, err := decodeCatalog(page)
	if err != nil {
		return err
	}
	db.checkpointLSN = cat.checkpointLSN
	db.checkpointID = cat.checkpointID

	records, err := db.wal.Records(db.checkpointLSN)
	if err != nil {
		return err
	}
	// Normalize bulk-load batch records into the per-row records they
	// stand for (stamped with the batch LSN) so the redo/undo/outcome
	// walks below need no batch awareness.
	records, err = expandBatchRecords(records)
	if err != nil {
		return err
	}
	// Per-table tail facts: whether any record touches the table, and the
	// smallest record LSN (the defensive consistency check below).
	touchedMin := map[string]LSN{}
	bornByName := map[string]LSN{}
	for _, ct := range cat.tables {
		bornByName[ct.schema.Name] = ct.bornLSN
	}
	for _, r := range records {
		if r.Kind != LogInsert && r.Kind != LogDelete && r.Kind != LogUpdate {
			continue
		}
		if r.LSN < bornByName[r.Table] {
			continue // a dropped previous incarnation's record; ignored throughout
		}
		if cur, ok := touchedMin[r.Table]; !ok || r.LSN < cur {
			touchedMin[r.Table] = r.LSN
		}
	}

	// Build tables; decide per table whether its persisted derived state
	// is usable: the catalog must mark it consistent, and no tail record
	// for the table may predate its snapshot LSN (defense in depth — the
	// capture protocol should make that impossible).
	loadedIdx := map[*Table]map[string]bool{}
	for _, ct := range cat.tables {
		heap, err := OpenHeapFile(db.bp, ct.firstPage)
		if err != nil {
			return err
		}
		t := &Table{Schema: ct.schema, Heap: heap, Indexes: map[string]*BTree{}}
		t.snapLSN = ct.snapLSN
		t.bornLSN = ct.bornLSN
		t.derivedValid = ct.derivedValid
		trustDerived := ct.derivedValid
		if minLSN, ok := touchedMin[ct.schema.Name]; ok && minLSN < ct.snapLSN {
			trustDerived = false
		}
		loadedIdx[t] = map[string]bool{}
		for _, ci := range ct.indexes {
			ip := t.idxState(ci.col)
			ip.firstPage = ci.firstPage
			ip.stamp = ci.stamp
			if trustDerived {
				if bt := db.loadIndexCheckpoint(ci); bt != nil {
					t.Indexes[ci.col] = bt
					ip.savedMut = bt.Mutations()
					loadedIdx[t][ci.col] = true
					db.openStats.IndexesLoaded++
					continue
				}
			}
			t.Indexes[ci.col] = NewBTree() // placeholder; rebuilt after replay
			ip.savedMut = -1
			db.openStats.IndexesRebuilt++
		}
		db.tables[ct.schema.Name] = t
	}

	// Analysis: a transaction is resolved if any verdict record survived
	// (an aborted transaction's log carries both its operations and the
	// compensation records Abort wrote while rolling back, so its net
	// outcome is already encoded in its record stream).
	resolved := map[TxnID]bool{}
	for _, r := range records {
		if r.Kind == LogCommit || r.Kind == LogAbort {
			resolved[r.Txn] = true
		}
	}

	// Redo: gated physical replay, in log order, losers included. A
	// record older than its table's bornLSN belongs to a dropped previous
	// incarnation of the name and is skipped everywhere (redo, undo,
	// outcome deltas): replaying it would write ghost rows into — and
	// adopt the old incarnation's pages into — the recreated table.
	// Rows expanded from one batch record share its LSN, and the first
	// row replayed onto a page stamps the page with it — so the page-LSN
	// gate alone would skip every sibling row. The gate decision made for
	// a page at a given LSN therefore carries to the consecutive records
	// with the same (table, page, LSN): siblings of an applied first row
	// are forced in, siblings of a skipped one are skipped (the flush
	// that stamped the page held the whole batch, since batch pages stay
	// pinned until every row is placed).
	type redoPageKey struct {
		table string
		page  PageID
		lsn   LSN
	}
	var lastKey redoPageKey
	var lastApplied bool
	// first holds each touched slot's first tail record: it reveals the
	// slot's snapshot-time content (for a consistency-captured table no
	// record predates the snapshot, so this record's before-image — or,
	// for an insert, the slot's emptiness — is exactly what a loaded chain
	// describes).
	first := map[chainRef]*LogRecord{}
	var losers []*LogRecord
	for _, r := range records {
		if r.Kind != LogInsert && r.Kind != LogDelete && r.Kind != LogUpdate {
			continue
		}
		t := db.tables[r.Table]
		if t == nil || r.LSN < t.bornLSN {
			continue // table dropped (or recreated) after the record was written
		}
		if ref := (chainRef{table: r.Table, rid: r.Row}); first[ref] == nil {
			first[ref] = r
		}
		if !resolved[r.Txn] {
			losers = append(losers, r)
		}
		if err := db.ensureHeapPage(t, r.Row.Page); err != nil {
			return err
		}
		sc := SlotContent{}
		if r.Kind != LogDelete {
			sc = SlotContent{Live: true, Tup: r.After}
		}
		key := redoPageKey{table: r.Table, page: r.Row.Page, lsn: r.LSN}
		if key == lastKey {
			if lastApplied {
				if err := t.Heap.ForceSlot(r.Row, sc, func(RID) LSN { return r.LSN }); err != nil {
					return err
				}
			}
			continue
		}
		applied, err := t.Heap.RedoSlot(r.Row, sc, r.LSN)
		if err != nil {
			return err
		}
		lastKey, lastApplied = key, applied
	}

	// Undo: roll loser transactions back with the routine Abort uses. Undo
	// writes are stamped just below the durable end, so a re-run's redo
	// pass skips everything on those pages (they reflect the whole tail)
	// while records appended after recovery — whose LSNs start at the
	// durable end — still replay.
	undoStamp := db.wal.FlushedLSN()
	if undoStamp > 0 {
		undoStamp--
	}
	if _, err := db.undoSlots(losers, func(slotChange) LSN { return undoStamp }); err != nil {
		return err
	}

	// Index maintenance: loaded chains take the tail deltas, from each
	// touched slot's prior (first tail record) to its final state (the
	// heap, settled by redo+undo above); the rest rebuild from the heap.
	allLoaded := true
	for name, t := range db.tables {
		var touched []slotDelta
		for ref, r := range first {
			if ref.table != name {
				continue
			}
			d := slotDelta{rid: ref.rid, priorLive: r.Kind != LogInsert, prior: r.Before}
			var err error
			if d.final, d.live, err = t.Heap.Get(ref.rid); err != nil {
				return err
			}
			touched = append(touched, d)
		}
		sort.Slice(touched, func(i, j int) bool { return ridLess(touched[i].rid, touched[j].rid) })
		needScan := false
		for col := range t.Indexes {
			ci := t.Schema.ColIndex(col)
			if loadedIdx[t][col] {
				idx := t.Indexes[col]
				for _, d := range touched {
					if d.priorLive {
						idx.Delete(d.prior[ci], d.rid)
					}
					if d.live {
						idx.Insert(d.final[ci], d.rid)
					}
				}
				continue
			}
			allLoaded = false
			needScan = true
		}
		if needScan {
			if err := db.rebuildDerived(t, loadedIdx[t]); err != nil {
				return err
			}
		}
		if len(touched) > 0 || needScan {
			// The in-memory state has moved past the persisted snapshot;
			// force the closing checkpoint to re-capture this table.
			t.noteMutation()
		}
	}
	if len(records) == 0 && allLoaded {
		// Warm reopen: the log is empty, every index came off its chain,
		// and nothing was replayed — the on-disk
		// files already are the checkpoint this recovery would write.
		// Skipping it makes the happy reopen O(live data read), with zero
		// writes.
		//
		// allLoaded is also a safety condition, not just an optimization:
		// after ANY failed chain load the closing checkpoint below must
		// run, so the stale chain (whose links may dangle) is rewritten
		// before new allocations can reuse the page ids it points at —
		// see the reuse-safety invariant on chainPages.
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked()
}

// rebuildDerived rescans t's heap once, rebuilding every index that did
// not load from a chain.
func (db *DB) rebuildDerived(t *Table, loaded map[string]bool) error {
	type rebuild struct {
		name string
		col  int
		bt   *BTree
	}
	var rebuilds []rebuild
	for col := range t.Indexes {
		if loaded[col] {
			continue
		}
		rebuilds = append(rebuilds, rebuild{name: col, col: t.Schema.ColIndex(col), bt: NewBTree()})
	}
	err := t.Heap.Scan(func(rid RID, tup Tuple) bool {
		for i := range rebuilds {
			rebuilds[i].bt.Insert(tup[rebuilds[i].col], rid)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, rb := range rebuilds {
		t.Indexes[rb.name] = rb.bt
	}
	return nil
}

// slotDelta is one touched slot's change across the WAL tail — the delta
// feed for loaded index chains: its
// snapshot-time content (prior, the "remove" side) and its post-recovery
// content (final, the "add" side).
type slotDelta struct {
	rid       RID
	prior     Tuple
	priorLive bool
	final     Tuple
	live      bool
}

// slotChange is the net effect of a run of records on one slot: before is
// the state the oldest found, after the state the newest left.
type slotChange struct {
	table         string
	rid           RID
	before, after SlotContent
}

// slotChanges folds data records, in log order, into one slotChange per
// slot, in order of first appearance.
func slotChanges(recs []*LogRecord) []slotChange {
	at := make(map[chainRef]int, len(recs))
	var out []slotChange
	for _, r := range recs {
		after := SlotContent{Live: r.Kind != LogDelete, Tup: r.After}
		ref := chainRef{table: r.Table, rid: r.Row}
		if i, ok := at[ref]; ok {
			out[i].after = after
			continue
		}
		at[ref] = len(out)
		before := SlotContent{Live: r.Kind != LogInsert, Tup: r.Before}
		out = append(out, slotChange{table: r.Table, rid: r.Row, before: before, after: after})
	}
	return out
}

// compensation is the record that logs forcing c's slot from after back to
// before, attributed to txn.
func (c slotChange) compensation(txn TxnID) *LogRecord {
	rec := &LogRecord{Kind: LogUpdate, Txn: txn, Table: c.table, Row: c.rid, Before: c.after.Tup, After: c.before.Tup}
	if !c.before.Live {
		rec.Kind = LogDelete
	} else if !c.after.Live {
		rec.Kind = LogInsert
	}
	return rec
}

// undoSlots rolls back the writes recs log, given in log order and made by
// transactions that are still the last writers of every slot they touched
// (strict 2PL and heap reservations see to that). Each slot is forced
// once, straight to the before-image of its oldest record, skipping the
// intermediate states a record-by-record reverse walk would restore; a
// slot dead before and after needs no write. Slots that end dead go
// first, so live targets find the space they free. A live target always
// fits at its own RID: the slot's reservation kept the bytes, and a
// recovering process finds the pages as the reservations left them.
// onApply runs for each forced slot under its page's write latch and
// returns the LSN to stamp. undoSlots returns every slot recs touched.
// Runtime Abort and recovery both undo through it.
func (db *DB) undoSlots(recs []*LogRecord, onApply func(slotChange) LSN) ([]slotChange, error) {
	slots := slotChanges(recs)
	for _, live := range [...]bool{false, true} {
		for _, c := range slots {
			t := db.Table(c.table)
			if t == nil || c.before.Live != live || !c.before.Live && !c.after.Live {
				continue
			}
			t.noteMutation()
			if err := t.Heap.ForceSlot(c.rid, c.before, func(RID) LSN { return onApply(c) }); err != nil {
				return nil, err
			}
		}
	}
	return slots, nil
}

// encodeCheckpointInfo serializes the dirty-page table and active
// transaction list carried by a begin-checkpoint record.
func encodeCheckpointInfo(dpt map[PageID]LSN, active map[TxnID]LSN) []byte {
	buf := make([]byte, 0, 8+12*len(dpt)+16*len(active))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(dpt)))
	buf = append(buf, tmp[:4]...)
	pages := make([]PageID, 0, len(dpt))
	for id := range dpt {
		pages = append(pages, id)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, id := range pages {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(id))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(dpt[id]))
		buf = append(buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(active)))
	buf = append(buf, tmp[:4]...)
	txns := make([]TxnID, 0, len(active))
	for id := range active {
		txns = append(txns, id)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, id := range txns {
		binary.LittleEndian.PutUint64(tmp[:], uint64(id))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(active[id]))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// decodeCheckpointInfo parses a begin-checkpoint record's payload.
func decodeCheckpointInfo(data []byte) (dpt map[PageID]LSN, active map[TxnID]LSN, err error) {
	bad := fmt.Errorf("rdbms: truncated checkpoint info")
	if len(data) < 4 {
		return nil, nil, bad
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	off := 4
	dpt = make(map[PageID]LSN, n)
	for i := 0; i < n; i++ {
		if len(data) < off+12 {
			return nil, nil, bad
		}
		id := PageID(binary.LittleEndian.Uint32(data[off : off+4]))
		dpt[id] = LSN(binary.LittleEndian.Uint64(data[off+4 : off+12]))
		off += 12
	}
	if len(data) < off+4 {
		return nil, nil, bad
	}
	n = int(binary.LittleEndian.Uint32(data[off : off+4]))
	off += 4
	active = make(map[TxnID]LSN, n)
	for i := 0; i < n; i++ {
		if len(data) < off+16 {
			return nil, nil, bad
		}
		id := TxnID(binary.LittleEndian.Uint64(data[off : off+8]))
		active[id] = LSN(binary.LittleEndian.Uint64(data[off+8 : off+16]))
		off += 16
	}
	return dpt, active, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ensureHeapPage makes sure the page referenced by a log record exists in
// the pager and belongs to the table's heap chain. Pages allocated before
// a crash may never have reached disk; recovery recreates them.
func (db *DB) ensureHeapPage(t *Table, id PageID) error {
	for db.pager.NumPages() <= id {
		if _, err := db.pager.Allocate(); err != nil {
			return err
		}
	}
	return t.Heap.Adopt(id)
}

func tupleEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type {
			return false
		}
		if !Equal(a[i], b[i]) && !(a[i].IsNull() && b[i].IsNull()) {
			return false
		}
	}
	return true
}
