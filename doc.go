// Package repro reproduces "The Case for a Structured Approach to
// Managing Unstructured Data" (Doan, Naughton, et al., CIDR 2009) as a
// working Go system: the full Figure 1 architecture — physical layer
// (MapReduce-like cluster), storage layer (versioned snapshot store,
// segment store, relational engine, wiki), processing layer (declarative
// IE+II+HI language with optimizer, schema evolution, uncertainty,
// provenance, semantic debugger), and user layer (keyword search, guided
// structured querying, browsing, alerts, reputation and incentives).
//
// internal/experiments asserts the paper's claims E1-E10 as tests;
// bench/ (`go run ./bench`) measures the served system end to end and
// layer by layer; examples/ holds runnable walkthroughs.
//
// # Query-path architecture (PR1)
//
// The exploitation modes (keyword → guided reformulation → SQL → browse)
// are the serving hot path, rebuilt around three structures:
//
// Catalog cache. core.System maintains the reformulation catalog (distinct
// entities, attributes, per-attribute qualifier vocabulary) incrementally
// instead of scanning the extracted table per query. Write paths that go
// through core (materialize, CorrectValue) fold their committed rows into
// the cache under System.mu, strictly after their transaction commits;
// write paths that bypass core's row bookkeeping (UQL STORE inside
// Generate, non-SELECT statements through System.SQL) invalidate it, and
// the next Catalog()/AskGuided call rebuilds it with one full scan while
// holding System.mu across scan + install. The assembled catalog and the
// reformulator derived from it are memoized between writes, so a
// read-only streak of AskGuided calls does no per-query catalog work.
// Writes driven at the rdbms.DB handle directly are outside this
// contract; all extracted-table writes must go through System.
//
// Streaming scans. rdbms SELECT pushes the WHERE clause into the scan's
// page loop for single-table queries: rejected tuples are never retained
// or cloned, and unordered, ungrouped, non-distinct LIMIT queries stop
// the scan as soon as OFFSET+LIMIT rows qualify. Access paths are chosen
// cost-based — among several usable equality predicates, the index
// matching the fewest entries (exact B+tree posting counts) wins; strict
// bounds (>, <) widen to inclusive index ranges and rely on the residual
// filter, which is always evaluated over fetched rows, to drop boundary
// rows. Join, distinct, and group keys use a prefix-free byte encoding
// (length-prefixed strings, numeric values via their float64 image) so
// key building is allocation-free and collision-free.
//
// Task queue. Pending incremental-extraction tasks live in a
// priority-indexed queue (container/heap) with a per-attribute index:
// Demand boosts touch only the demanded attribute's tasks, ExtractPending
// pops highest-priority-first in O(log n), and equal priorities drain
// FIFO in plan order — the same order the previous stable sort produced.
//
// In bench/, guided_hot watches the catalog cache (ask_p50_us,
// core.self_us.ask) and scan_cold the streaming scans (sql_agg_p50_us,
// proc.allocs_per_op).
//
// # Sorted queries and warm start (PR2)
//
// The sorted-query path was rebuilt end to end, and the warm structures
// PR1 introduced now survive process restarts:
//
// Top-k ORDER BY. An ORDER BY with a LIMIT no longer materializes,
// projects, and stable-sorts every row. Projection keeps a bounded
// max-heap of the OFFSET+LIMIT best rows (O(n log k)): per row it
// evaluates only the ORDER BY keys (select-list aliases resolve to their
// underlying expressions), rows that cannot beat the current worst are
// dropped without cloning, and only survivors are projected. Tie order is
// exactly the stable sort's — key ties break by the row's original
// sequence. Grouped queries reuse the same collector over their groups.
// DISTINCT disqualifies the bound (dedup after truncation could underfill
// the limit) and falls back to the full sort.
//
// Index-order scans. When the single ORDER BY key is an indexed column of
// a single-table, ungrouped, non-distinct LIMIT query, the executor walks
// the B+tree in key order (BTree.GroupedRange, ascending via the leaf
// chain, descending via a pruned reverse descent) and stops after
// OFFSET+LIMIT qualifying rows: no sort runs at all, and the full WHERE
// is evaluated as a residual during the walk. Rows with equal keys are
// fetched in ascending RID order, matching what a heap scan feeds the
// stable sort, so output is byte-identical to full-sort. A usable
// equality access path still wins (a selective posting fetch plus top-k
// beats walking the whole index); a range predicate on the sort column
// folds into the scan bounds. The plan string reports "index order scan".
//
// Warm start. SaveWarmState persists the catalog cache (entities,
// attributes, qualifier vocabularies) and the pending task queue
// (priorities, partitions, documents by title) as one checksummed JSON
// record in the filestore segment store; repeated saves append. Open /
// LoadWarmState restores the newest snapshot so a reopened system serves
// AskGuided with zero table scans and resumes incremental extraction
// where it left off. Staleness is decided by two cheap checks: the
// snapshot's extracted-table row count must match the live table (read
// O(1) from the entity index), and the snapshot's invalidation epoch —
// advanced by every cache change or invalidation — must not be older than
// the live cache's. A refused snapshot just means a cold open: the next
// Catalog() rebuilds by scan.
//
// Incremental reformulator. The reformulator's entity-token index is no
// longer rebuilt whenever the catalog changes: materialized rows feed it
// deltas (AddEntity tokenizes just the new entity; AddAttribute and
// AddQualifier append), and candidate ranking breaks all ties by name
// rather than catalog position, so an incrementally grown reformulator
// answers identically to one rebuilt from the same catalog.
//
// In bench/, scan_cold's sql_topk_p50_us watches the top-k path and
// restart_s, on every workload, the warm start.
//
// # Crash-safe durability and recovery (PR3)
//
// The rdbms is now a reopenable on-disk database with a fault-injection
// harness proving its crash safety.
//
// Storage stack. A Device is the durable byte store (file-backed
// FileDevice; crash-simulating MemDevice that separates synced from
// unsynced bytes). DevicePager frames every page on its device as
// [crc32(payload), pageID, payload]: checksums catch corruption and
// misdirected writes at read time, an all-zero frame reads as a valid
// blank page (what an allocated-but-never-synced page becomes after a
// crash), and page-sized writes are assumed power-fail atomic — the
// classic sector-atomicity assumption; the checksum exists to detect
// that assumption breaking, loudly, not to silently repair it. The WAL
// also runs over a Device, and opening one truncates any torn tail
// (half-written frame) back to the last whole record so post-crash
// appends never land after garbage.
//
// Lifecycle. rdbms.OpenDir(dir) wires pager + WAL + buffer pool +
// recovery over dir/data.udb and dir/wal.udb; Close checkpoints and
// releases both. The buffer pool itself enforces the WAL rule (no dirty
// page is written back before the log records describing it are
// durable), and every checkpoint — quiesced by construction — flushes
// pages, then truncates the WAL entirely (Device.Truncate is durable by
// itself, so old-generation records can never resurface), then rewrites
// the catalog; each intermediate crash point is analyzed in
// checkpointLocked. Abort writes one compensation record per slot it
// forces back (see "One undo" below), so recovery replays aborted
// transactions like winners (net zero, in global log order) and a commit
// whose flush failed can be durably superseded by its abort.
//
// Recovery by logical materialization. Rather than replaying records
// one at a time against pages whose on-disk state may already reflect
// later operations (which creates hybrid page states that never existed,
// transiently overflows pages, and forces rows off their logged RIDs),
// recovery computes each touched slot's final content directly from the
// log — last resolved (committed or aborted) record's outcome per slot;
// verdict-less in-flight transactions freeze their slots at the state
// just before their first touch — and then writes each page once,
// slot-pinned, compacting as needed. Slotted pages compact in place
// (slot numbers, hence RIDs, never change), so undo can place a
// before-image at its own RID on a churn-fragmented page as long as the
// page still has the bytes for it; slot reservations (below) make sure
// it does.
//
// Fault harness. FaultInjector + FaultDevice (exposed as NewFaultPager /
// NewFaultWAL) schedule an error, a dropped (lying) fsync, a torn write,
// or a process kill at the Nth mutating I/O, counted globally across the
// pager and WAL. The crash-recovery property suite dry-runs a seeded
// workload to enumerate its injection points, then re-runs it once per
// point — 200+ runs asserted — killing it there, discarding a random
// subset of unsynced writes (MemDevice.Crash), reopening, and checking
// an in-memory oracle: all acknowledged commits visible byte for byte,
// no aborted or in-flight data, in-doubt commits all-or-nothing, page
// checksums clean, state stable across a further close/reopen; every
// fourth point also crashes recovery itself mid-flight first. core
// builds on the same machinery: Config.Dir / core.OpenDir root the
// database and the warm-state snapshots (now guarded by an
// order-independent (entity, attribute, qualifier) content checksum that
// refuses same-row-count divergence) under one directory, and
// System.Close checkpoints both — see examples/quickstart for the full
// close→reopen walkthrough.
//
// In bench/, restart_s and disk_bytes_per_row watch the on-disk
// lifecycle on every workload.
//
// # Disk-path performance: group commit, index checkpoints, O(1) warm verify (PR4)
//
// PR3 made the disk path safe; PR4 makes it fast without weakening any
// of its guarantees — the fault harness re-proves every one of them at
// every new kill point.
//
// Group commit. The WAL flush is a commit sequencer (leader/follower):
// the first committer needing durability becomes the leader, and —
// when other transactions are in flight — holds a bounded group window
// (a busy-yield that ends as soon as appends quiesce) before capturing
// the whole buffered tail and performing one write+fsync for the batch.
// Committers arriving during that I/O append and wait; one of them
// leads the next batch. Each committer blocks only until the batch
// containing its own record is durable (Commit targets the LSN just
// past its commit record), a lone committer skips the window and pays
// the old single-fsync latency, and concurrent committers amortize to
// one fsync per batch (feedback_mixed's rdbms.wal.syncs_per_commit
// watches it). A simulated crash during a leader's I/O poisons the WAL —
// every waiter gets ErrWALPoisoned instead of a fabricated durability
// verdict, and recovery decides the in-doubt commits from what actually
// reached the device.
//
// Persistent index checkpoints. Checkpoints serialize each changed
// B+tree (keys in order, posting lists verbatim) into a chain of pages
// through the ordinary pager, framed as [magic, checkpoint stamp,
// length, crc32, entries]; the catalog records each chain's head and
// expected stamp. Open bulk-builds the tree from the sorted stream in
// O(n) with zero key comparisons and applies only the WAL tail — the
// per-slot prior→final deltas recovery already computes — instead of
// rebuilding from a full heap scan. Validation replaces write ordering:
// any mismatch (torn page, broken link, stamp from another checkpoint
// generation, checksum failure) falls back to the old full rebuild, so
// a stale or torn chain can never surface through a query; the reopen
// matrix tests (fresh / checkpointed / stale / torn / truncated) and the
// property suite's new kill points inside chain writes prove it.
// Unchanged indexes skip re-serialization (a BTree mutation counter),
// and a reopen that finds an empty log and loads every index skips the
// closing checkpoint entirely (restart_s and rdbms.open.indexes_loaded /
// indexes_rebuilt watch it).
//
// Checkpoints now write the catalog twice: once before the WAL reset
// (pointing checkpointLSN at the old log's end, with the fresh stamps
// and content hashes) and once after (LSN 0). The fault harness caught
// the gap this closes: a crash between the reset and the single
// post-reset catalog write left the previous catalog's derived metadata
// (content hash, chain stamps) describing an older state, with the log
// that would have reconciled them already empty.
//
// O(1) warm verification. A table can carry an order-independent
// multiset content hash over chosen columns (EnableContentHash):
// committed transactions fold per-row digests in with wrapping
// addition after their commit record is durable (aborts discard their
// delta; physical restores make that exact), checkpoints persist the
// accumulator in the catalog, and recovery adjusts it from the WAL
// tail's before/after images. core enables it over (entity, attribute,
// qualifier), so a fresh process validates a warm-start snapshot
// against the live table in O(1) — LoadWarmState no longer rescans the
// extracted table on disk reopen.
//
// Also in PR4: the ORDER BY + LIMIT bounded top-k heap now runs inside
// the sequential scan callback (rows it rejects are never retained —
// O(k) live memory, verified byte-identical by the 3-path equivalence
// fuzz); inserts never reuse a tombstoned slot a live transaction still
// reserves (the deleting transaction's abort restores its row at that
// exact RID — a latent collision that group commit's real concurrency
// made urgent; see "One undo" below).
//
// # Non-quiescing checkpoints via page LSNs (PR5)
//
// PR5 removes the last stop-the-world stall on the disk path: a
// checkpoint used to refuse active transactions outright, so a database
// under sustained traffic could never bound its log or tighten its
// recovery window. Checkpoints are now fuzzy — commits proceed while one
// is in flight — built on three structural changes.
//
// Page LSNs. The slotted-page header carries the LSN of the last logged
// mutation applied to the page, stamped under the same pin and heap
// mutex that serialize the mutation, so per-page stamps are monotonic
// and a page's content is always exactly "every record with LSN <=
// pageLSN applied" (TestPageLSNTracksLog asserts the stamp equals the
// last record per page). The buffer pool's WAL rule is now precise —
// write-back flushes the log only up to the page's LSN — and each dirty
// frame tracks a conservative recLSN (the first record since it was
// last clean), with written-but-unsynced recLSNs retained until a pager
// sync actually covers them.
//
// Monotonic LSNs and WAL prefix truncation. The WAL carries a
// double-slot header (valid-CRC, higher-sequence slot wins) recording
// the log's base — the logical LSN of its first physical byte — so LSNs
// never reset for the life of the database and page stamps stay
// comparable with log records across every checkpoint. TruncateTo
// replaces the old full reset: the checkpoint computes the horizon
// min(recLSN of pages not yet durably written, firstLSN of active
// transactions, durable end) and discards only the prefix below it. A
// live tail is preserved by a crash-safe copy-down protocol — the move
// is announced in the header (COPYING state, with the previous base)
// before any byte moves, the copy only runs when it cannot overlap its
// source, a terminator frame stops stale bytes from parsing as records,
// and an interrupted copy is redone idempotently at open.
// TestWALPrefixTruncationCrashSafety kills the protocol at every one of
// its I/O steps and checks the surviving records keep their LSNs.
//
// ARIES-style recovery. Redo is physical and gated on pageLSN <
// rec.LSN: every data record from the catalog's replay origin is
// re-applied slot-pinned exactly when the page has not seen it, then
// the page is stamped. Fuzzy checkpoints flush pages mid-traffic, so
// recovery routinely meets pages ahead of the replay origin — the gate
// makes those a no-op instead of the hybrid states that forced PR3's
// logical materialization, and replaying the same tail twice changes
// nothing (TestRedoIdempotent). Losers (no verdict record) are then
// undone by forcing each slot they touched back to its oldest
// before-image — state-idempotent, so recovery crashing mid-undo and
// re-running converges. The delta feed for loaded index chains and
// persisted content hashes comes from the same walk: redo records each
// slot's first tail record as its prior, and after undo the heap holds
// each touched slot's final state.
//
// One undo. Runtime Abort and recovery undo through one routine,
// DB.undoSlots: per (table, RID) the oldest record's before-image is the
// target, and slots are forced tombstones first, then live rows, each
// exactly once and always at its own RID. Abort logs one compensation
// record per forced slot and puts every restored index entry in before it
// takes any undone one out. What makes "at its own RID" always possible
// is a heap rule in the style of ARIES's space reservation: a slot a live
// transaction has touched belongs to it until it ends. The writer
// reserves the slot with its before-image's size when it first mutates
// the row; inserts skip reserved slots, and inserts and in-place growth
// see each page's capacity minus every reserved slot's shortfall,
// max(0, reserved − current length). A heap with no reservations pays
// one atomic load per insert for the rule. TestUndoOnRefilledPage (three
// write shapes × runtime abort or crash, each on a page another
// transaction refilled) and the aborting writers in
// TestHeapPageLatchReadersVsWriters hold it.
//
// Fuzzy checkpoint protocol. A checkpoint brackets itself with
// begin/end WAL records (the begin record carries the dirty-page table
// and active-transaction list), flushes dirty pages with the pool lock
// taken per frame — pinned pages are simply skipped and keep holding
// the horizon back — and writes the catalog with the horizon as the new
// replay origin BEFORE truncating, so every crash window recovers from
// a catalog whose origin the surviving log still covers. Derived state
// is the subtle part: index checkpoint chains and content hashes are
// only trustworthy if captured at a moment no transaction was active,
// so each table tracks a mutation counter against its last consistent
// capture (catMut/snapLSN). An idle checkpoint holds the transaction
// admission gate for the brief in-memory serialization and re-captures
// changed tables; a mid-traffic checkpoint instead marks changed
// tables' derived state invalid (chain stamps bumped away from their
// chains, hash flagged) — recovery then rebuilds those by scan, while
// untouched tables keep their loadable chains and O(1)-verifiable
// hashes. The clean close path is unchanged: Close still quiesces, so
// the indexed bulk-load reopen and LoadWarmState's O(1) verify keep
// working as PR4 left them. core exposes System.Checkpoint so a
// long-running system can bound its log mid-traffic
// (TestCheckpointDoesNotStallWriters drives corrections and catalog
// reads under a continuous checkpointer).
//
// Proof. The fault harness grew a concurrency-aware suite
// (TestFuzzyCheckpointCrashSuite): three committer goroutines and a
// background checkpointer run against fault-injected devices, and the
// process is killed at every mutating I/O index — landing inside page
// flushes, chain writes, catalog writes, and each WAL-truncation step
// while commits are genuinely in flight. Once a kill fires, every other
// goroutine's next I/O dies too (the injector models the whole process
// dying), then a clean reopen is checked against a per-transaction
// oracle (acked commits fully visible; unacked transactions atomic;
// deleted rows never resurface; no invented rows) plus the
// index-vs-heap and content-hash oracles, under -race. Together with
// the single-threaded property suite (now 776 enumerated kill points,
// >= 700 asserted) the fault suites run 1040+ injection runs. A
// seed-reproducible soak (TestSoakCheckpointerReopen) runs a randomized
// workload against an in-memory shadow model with a live checkpointer
// and periodic close/reopen, asserting byte-identical ORDER BY results
// each phase. The CI coverage gate on internal/rdbms rose from 80% to
// 84% (85.9% measured), and the crash-recovery job's regex includes the
// new suites.
//
// Also in PR5: Options.GroupCommitWindow exposes the group-commit
// straggler window (nil = default 512 yields; explicit zero degenerates
// to solo-commit flushing, asserted by TestGroupCommitZeroWindowSoloCommit).
//
// # A crash- and overload-proof serving front end (PR6)
//
// PR6 puts the user layer on the network: cmd/unidbd serves every
// exploitation mode (keyword search, guided queries, SQL, browsing,
// subscriptions, corrections, provenance) over a length-prefixed JSON
// protocol on TCP (internal/server), and cmd/unidb gained -remote to
// drive a daemon with the same subcommands it runs locally. The front
// end is built around four robustness guarantees:
//
//   - Admission control. At most Options.MaxInFlight requests execute
//     concurrently (a non-blocking semaphore: excess requests are shed
//     immediately with a typed "overloaded" error rather than queued),
//     and connections beyond MaxConns are refused at accept with a
//     final overloaded frame. Health requests bypass admission so the
//     daemon stays observable while saturated.
//
//   - Deadlines. context.Context now threads through every public
//     System method, and the storage engine polls it at scan-loop
//     granularity (every 64 rows; Txn.WithContext, DB.ExecCtx), so a
//     request deadline aborts a SELECT mid-scan instead of after it.
//     Each server request runs under a deadline (request-supplied,
//     clamped by MaxRequestTimeout); the unidb -timeout flag feeds the
//     same context locally.
//
//   - Graceful drain. SIGTERM stops accepting, sheds new requests,
//     finishes in-flight ones under DrainTimeout, then System.Close() —
//     now idempotent and concurrent-safe: the first closer drains
//     in-flight operations (late arrivals get core.ErrClosed) and
//     tears down; every other caller shares its verdict. The close
//     checkpoints and snapshots, so the daemon's next life on the same
//     -data directory is the PR5 zero-write warm start — proven by
//     TestDaemonSIGTERMDrain, which SIGTERMs a real re-exec'd daemon
//     process mid-traffic and asserts exit 0 plus byte-identical
//     database files across the warm second life.
//
//   - Connection robustness. Per-connection read/write deadlines, a
//     frame size cap (oversized frames get a typed refusal, then the
//     poisoned stream closes), malformed-JSON rejection that keeps the
//     connection, and per-connection panic recovery. The network fault
//     harness (FaultConn) injects slowloris byte-trickles, mid-frame
//     disconnects, garbage prefixes, half-closes, and mixed attacker
//     swarms — each test asserting a concurrent healthy client keeps
//     being served and no connection leaks.
//
// The durability contract extends to the wire: TestDaemonKill9Durability
// streams acked INSERTs at a daemon, kills it with SIGKILL mid-traffic,
// reopens the directory, and audits that every acked response survived.
// A correction is an index-point write with no retry: IX on the table,
// an entity-index lookup, X on the one row (Txn.LockRowByIndex), so
// racing corrections cannot deadlock each other. The alert center's
// delivery ledger (Center.History) proves exactly-once notification per
// correction identity under concurrent corrections. bench/ drives every
// workload through this front end (server.wire_self_us.<op>,
// server.shed), and CI runs a server smoke job: real binaries, mixed
// remote workload, SIGTERM, clean-drain and warm-reopen assertions.
//
// # MVCC snapshot reads behind the View API (PR7)
//
// PR6 left the engine as the bottleneck: every read funneled through
// System.mu and strict-2PL row locks, so reader throughput was flat no
// matter how many cores or connections showed up. PR7 removes the
// blocking from the read path end to end.
//
// Version storage. The engine keeps an LSN-keyed version store
// (internal/rdbms/mvcc.go): the same logged-mutation hooks that feed
// the WAL also append each overwritten or deleted row state to a
// per-RID version chain, stamped with the LSN range it was visible in.
// Writers pay one chain append per mutation; nothing changes in their
// locking or logging. Pending commits register with the WAL append so a
// version becomes visible if and only if its commit record made it to
// the log (publish after group-commit flush, cancel on flush error,
// release on abort).
//
// Visibility rule. DB.BeginSnapshot() pins a snapshot LSN — the highest
// LSN at which every smaller-LSN transaction has either committed or
// aborted (min(pending)-1, else the max committed LSN). A row version
// is visible to the snapshot iff it was committed at or before that
// LSN and not superseded by it. SELECT, index lookups, IndexRange, and
// scans all resolve through the same rule, so a snapshot read takes
// zero LockManager acquisitions (counter-asserted in both the rdbms
// and core test suites) and never waits on writers or other readers.
// One deliberate trade: a snapshot declines the index-order ORDER BY
// streaming path (it cannot hold its visibility set against the live
// B-tree's shape without latching out writers), so ORDER BY + LIMIT on
// the snapshot route falls back to the top-k pushdown scan — identical
// bytes out, no early stop; ROADMAP item 1 tracks restoring it.
//
// GC horizon. Version chains are swept at each checkpoint up to the
// horizon = min(active snapshot LSNs, min(pending)-1): the oldest state
// any live or future snapshot can still demand. An open View therefore
// pins garbage collection but never blocks writers; closing it releases
// the horizon.
//
// The View API (internal/core/view.go) surfaces the snapshot as the
// read contract: System.View(ctx) returns a handle exposing AskGuided,
// KeywordSearch, SQL, Browse, and ExplainFact all answering at one
// LSN (View.LSN()), so a multi-query exploitation session is
// repeatable-read by construction — proven by content-hash oracles and
// a readers-vs-writers-vs-checkpointer race suite. The one-shot System
// read methods are now thin wrappers over a throwaway View, and the
// rest of the public surface went ctx-first and error-returning
// (Generate, PlanIncremental, Demand, ExtractPending,
// MaterializeRelation); Catalog()/CatalogScan() collapsed into
// Catalog(ctx) plus an explicit RefreshCatalog(ctx).
//
// The serving layer sharded to match. The catalog cache and memoized
// reformulator live behind an atomic pointer with RCU-style
// copy-on-invalidate publication: readers take one atomic load on the
// fast path and share a single rebuild per writer invalidation instead
// of paying one each, and System.mu shrank to writer-side coordination.
// The wire protocol gained request IDs: a nonzero ID dispatches the
// request on its own server goroutine and responses are correlated by
// ID, so one connection pipelines without head-of-line blocking (ID 0
// keeps the legacy ordered mode); Client multiplexes concurrent calls
// over one connection via a single reader goroutine routing responses
// by ID.
//
// In bench/, feedback_mixed runs guided reads beside durable corrections
// (ask_p50_us, read_p99_us, rdbms.mvcc.versions_retained), and
// guided_hot's rdbms.lock.acquisitions_per_op stays 0.
//
// # Parallel bulk ingest: cluster fan-out into a COPY-style batch load (PR8)
//
// Generation at corpus scale previously paid the row-at-a-time price:
// per-row WAL records, per-row lock traffic, and O(log n) index inserts.
// PR8 adds System.BulkIngest (internal/core/bulkingest.go): extraction
// fans out over the MapReduce cluster — one map task per document,
// shuffled by entity so each reduce partition delivers entity-contiguous
// runs — and the extracted rows load through a COPY-style batch path in
// the engine (internal/rdbms/bulkload.go).
//
// Batch WAL record format. Two record kinds, LogBatchInsert and
// LogBatchDelete, carry a whole chunk in one record: a row count, then
// per row the 6-byte RID (page u32 | slot u16, little-endian) and the
// length-prefixed encoded tuple. A chunk of up to 32 freshly allocated
// heap pages is filled while the pages stay PINNED and UNLINKED — no
// reader can reach bytes outside the heap chain, and a pinned page
// cannot be flushed before its batch record exists — then one
// LogBatchInsert is appended, the pages are stamped with the batch LSN,
// unpinned, and linked. Each chunk commits as its own transaction
// (group-commit flushed), so a load is a sequence of durable
// all-or-nothing batches. Recovery normalizes batch records into per-row
// records stamped with the batch LSN (expandBatchRecords), so the
// gated-redo/undo machinery applies unchanged — with one addition: rows
// of a batch share an LSN, so the redo gate's decision for a page is
// carried across the batch's sibling rows instead of being re-derived
// from the now-stamped page LSN. A LogBatchDelete with before-images is
// the compensation a failed chunk logs before rolling its rows back.
//
// Atomic visibility. Before a chunk links, its rows register in the
// version store in one lock acquisition (noteBatch) with a dead base
// version; publication appends HEAP-RESIDENT versions (nil tuple — "the
// heap bytes, unchanged since the batch LSN"), so the store retains no
// copy of the loaded rows and a million-row load keeps O(1) version
// memory. A later writer materializes the version from its pre-image
// before first touching the row (noteWrite). Snapshots therefore see
// each batch atomically: invisible below its commit LSN, whole at or
// above it — proven by a mid-load snapshot oracle and a crash suite that
// kills the pipeline at every mutating I/O.
//
// Index build and fence. When every index of the target table is empty
// at BeginBulkLoad, index maintenance is deferred: the load accumulates
// (key, rid) runs, Commit sorts them once and feeds newBTreeFromSorted
// (the PR4 bottom-up builder), and the result swaps in under the index
// latch. Snap readers compensate the not-yet-built indexes through the
// version chains, which the loader's own snapshot pin keeps alive.
// Non-empty indexes are maintained incrementally per chunk. The per-batch
// content-hash delta folds once per chunk (O(1) warm-start verification
// holds), and Commit ends with a checkpoint fence. Also in PR8: the
// precise version-chain retention sweep gained a size trigger
// (sweepTriggerVersions) with geometric re-arm, bounding hot-chain growth
// between checkpoints; cmd/unidb grew an `ingest` subcommand.
//
// In bench/, sharded_mixed's setup_s prices bulk ingest and scan_cold's
// the row-at-a-time path (core.ingest_rows_per_s on both).
// BenchmarkBulkLoad in internal/rdbms compares the two load paths on a
// 1M-row load of the extracted-table schema.
//
// # Sharded dataspace: entity-hash partitioning with fan-out/merge serving (PR9)
//
// One engine owns one core's worth of read throughput; PR9 splits the
// dataspace across several. shard.ShardedSystem (internal/shard) runs N
// full engines, each owning the entities that hash to it — the same
// FNV-64a cluster.Partition function that shuffles the PR8 bulk-ingest
// fan-out, so a reduce partition lands on exactly one shard and one
// entity never spans two.
//
// Routing and merge. Requests route by what they touch. A query with a
// top-level entity equality runs verbatim on the owning shard. Everything
// else fans out to all shards in parallel and merges:
//
//   - ORDER BY queries push OFFSET+LIMIT to each shard and k-way merge
//     the sorted streams (ties keep the lowest shard index).
//   - Aggregates recombine exactly from per-shard partials (COUNT/SUM
//     add, MIN/MAX fold, AVG from sum+count), mirroring the engine's own
//     aggregate state machine; GROUP BY groups merge by key.
//   - Unordered scans and DISTINCT over the extracted table exploit a
//     structural invariant: the bulk-ingest stream is entity-sorted
//     (cluster output is globally key-sorted, and core.ExtractAll now
//     total-sorts rows — (entity, attribute, qualifier, value, conf) —
//     so the stream is deterministic for any worker count or shuffle
//     width), hence each shard holds an entity-ascending subsequence of
//     the single-engine table. Tagging each shard's stream with its
//     entity and k-way merging on it reconstructs the single-engine scan
//     order byte-exactly; DISTINCT dedups first-seen on the merged
//     stream.
//
// The equivalence oracle (internal/shard/shard_test.go) proves the
// contract the merges exist for: for 1-, 2-, and 4-shard layouts over
// the same corpus, AskGuided, KeywordSearch, Browse, and a 21-query SQL
// matrix (ORDER BY with LIMIT/OFFSET/DESC, aggregates, GROUP BY,
// DISTINCT, unordered scans, entity-routed queries) render byte-identical
// to a single engine. Writes through SQL are typed ErrReadOnly;
// cross-shard JOINs and HAVING are typed ErrUnsupported.
//
// Vector snapshots. ShardedSystem.View pins one PR7 MVCC snapshot per
// shard — a vector of LSNs — so a cross-shard read session is
// repeatable-read on every shard at once: the same query re-run inside
// the view returns the same bytes while concurrent corrections land, and
// a fresh read afterwards sees them.
//
// Degraded serving. A dead shard (engine closed, simulated by
// KillShard) does not take the dataspace down. Fan-out paths return the
// healthy shards' complete answer ALONGSIDE a typed *DegradedError
// naming the dead partitions — provenance of the gap, not silent
// truncation; the partial result is proven to be exactly the full result
// minus the dead shard's rows. Entity-routed requests to a dead shard
// fail typed; keyword search falls to the lowest healthy shard and stays
// complete (every shard indexes the full corpus text).
//
// The wire protocol carries the same contract (internal/server): the
// Server now fronts any Backend (single System or ShardedSystem —
// `unidbd -shards N`), partial results arrive as OK responses with a
// Degraded{down, shards} marker, result-less shard loss maps to the
// typed "degraded" code (client sentinel ErrDegraded), and health
// reports shard topology. The sharded daemon bulk-ingests on first open
// and warm-reopens per-shard subdirectories; a manifest refuses a reopen
// with a different shard count, since entity ownership would silently
// move. The fault suite drives all of it over real sockets with
// concurrent healthy traffic under admission-control deadlines.
//
// In bench/, sharded_mixed replays scan_cold's exact op stream over two
// shards, so the difference between the two workloads is the shard
// layer (shard.call_us.<op>, shard.row_skew, shard.min_buffer_hit_rate).
//
// # Larger-than-RAM serving: scan-resistant buffer pool + segmented WAL (PR10)
//
// Before PR10 the engine's frame cap was advisory in practice — steady
// workloads fit in the pool — and the WAL was one flat device whose
// truncation copied the live tail down. PR10 makes "table much bigger
// than memory" a served configuration with proofs.
//
// Scan-resistant replacement (internal/rdbms/buffer.go). The pool's
// single LRU became a segmented LRU: frames enter a probation queue and
// earn the protected queue (3/4 of capacity) only on resident
// re-reference. Scan paths (heap Scan, recovery, SQL table scans)
// declare themselves via PinScan: scan misses are admitted at probation's
// eviction end and never promote, so a full-table sweep recycles a
// handful of frames instead of flushing the working set. A 2Q-style
// ghost list remembers recently evicted non-scan pages; a miss on a
// remembered page is proven reuse the frame cap hid, and is admitted
// straight to protected — without it, a hot set wider than probation
// cycles forever while stale early promotions squat in protected.
// ErrPoolExhausted (every frame pinned) is a typed capacity refusal the
// server maps to the overloaded wire code, not a 500. BufferStats
// (hits, misses, evictions, scan-bypass, ghost hits, residency) threads
// through core.EngineStats — summed across shards — to unidbd health.
//
// Page concurrency. The buffer pool is the one owner of page
// concurrency: every frame has a read/write latch, and page bytes are
// reachable only through the PageGuard that Pin, PinScan and NewPage
// return, holding the pin and the latch (shared for reads, exclusive for
// writes) until Release. Data is dead after Release: the frame's buffer
// may next hold another page. A heap holds at most one chain page's latch
// at a time and never latches under the pool mutex; HeapFile.mu guards
// only the page chain. Row locks protect rows, the latch protects the
// page header they share. TestHeapPageLatchReadersVsWriters holds the
// rule (readers and writers on shared pages, clean under -race), and CI
// runs `go test -race -cpu 1,2,4 ./...` plus the benchmark under -race.
// The pool does no I/O under its mutex (Flush's per-frame write of an
// unpinned frame aside). A miss installs its frame in the table pinned
// and exclusively latched (reading), then reads without the mutex; a
// second pinner of the page waits on that latch, and a failed read takes
// the frame out and hands its error to every waiter. A dirty victim is
// written back (writing back) under a pool pin and its shared latch, and
// reclaimed only if still clean and unpinned afterwards. Evicted frames
// are recycled, buffer included, and frames are allocated lazily up to
// capacity (free frames wait for the next miss), so a steady-state miss
// allocates nothing. TestHitDuringBlockedMiss and
// TestHitDuringBlockedWriteBack hold the rule; TestMissAllocatesNothing
// and TestPoolAllocatesLazily the allocation budget.
//
// Segmented WAL (internal/rdbms/wal.go, walstore.go). The log is now a
// sequence of fixed-size segments under a manifest (temp + fsync +
// rename + directory fsync). Rotation happens in the group-commit flush
// leader; TruncateTo drops whole prefix segments O(1) — no copy-down,
// no stop-the-world — and recovery walks the manifest's segments in
// order. The checkpoint horizon math is unchanged: a long-running
// transaction pins the horizon, and the space-bound test proves garbage
// below the horizon stays within two segments of slack. Prefix segments
// free only when a checkpoint truncates the log, not as commits advance.
// Core used to checkpoint at Close alone (or when a caller invoked
// System.Checkpoint), so a long-lived writer's whole log waited for
// Close, whose TruncateTo then unlinked every segment while holding the
// WAL lock. Now a committed core write starts one background checkpoint
// once the log spans four segments (System.maybeCheckpoint;
// TestCorrectionsKeepWALShort), and TruncateTo swaps the manifest under
// the lock but unlinks the dropped files after releasing it
// (TestTruncateBlockedRemoveLetsAppendsFlush).
//
// The proof harness (largerthanram_test.go, segrotate_test.go): an
// oracle run with the heap ~15x the pool must render byte-identical
// results to an uncapped run across point reads, scans, and ORDER BY,
// with residency never exceeding capacity and post-GC heap growth flat
// across repeated sweeps; the scan-resistance A/B pits the SLRU against
// a flat-LRU build of the same pool (newBufferPool's flat mode) and
// requires the hot set to survive sweeps only under SLRU; the rotation
// crash suite kills the segment/manifest protocol at every mutating I/O
// (crash and torn-write) and requires every acked commit after reopen; a
// concurrent pin/evict storm hammers a capacity-2 pool with 8 goroutines
// under -race and write faults. CI adds a GOMEMLIMIT=128MiB job — the
// runtime itself enforces the memory bound the oracle claims.
//
// In bench/, scan_cold watches the pool under eviction
// (rdbms.buffer.hit_rate, misses_per_op, ghost_hits_per_op) and
// guided_hot must show none of it (hit rate 1.0).
// BenchmarkHotPointReadUnderScan in internal/rdbms reports the hit rate
// of hot point reads between full-heap sweeps.
//
// # Read path: page runs and encoded predicates
//
// A SELECT reads its FROM table through one path shared by Txn and Snap
// (internal/rdbms/readpath.go); the two differ only in their visibility
// rule. An index access walks its candidates in index order, and each
// maximal run of consecutive candidates on one heap page shares one pin
// and one shared latch (readSource.fetchRun); a sequential scan pins each
// page once. Under the latch each row is resolved: the heap bytes are
// read first and then, for a Snap, vs.visible is probed — the lock order
// is page latch, then vs.mu, the order writers already use, since
// Txn.noteVersion runs inside the heap mutation's onApply under the
// page's write latch. Before any decode, the encoded matcher
// (internal/rdbms/sqlmatch.go), compiled once per statement from the
// WHERE's top-level `column op literal` conjuncts, reads those columns
// straight out of the record bytes and rejects a record only when decode
// would succeed and the WHERE would evaluate to a non-true value without
// error: conjuncts are decided in evaluation order under Compare's rules,
// the first false one rejects, and a residual or mismatched-type conjunct
// lets the record through to decode and evalExpr. A chained row's
// visible tuple skips the matcher. Survivors are decoded and the full
// WHERE is evaluated on them as before, so results and row order are
// unchanged. Snapshot reads of a chain-free table build no per-row maps:
// IndexLookup and IndexRange dedupe only against a non-empty chain list,
// and Scan records the rows it read as one slot bitset per page.
// TestIndexReadMatchesRowAtATime holds page runs and the matcher to the
// row-at-a-time path (kept in readpath_test.go) under concurrent writers,
// version chains and batch markers; FuzzEncodedPredicate holds the
// matcher's equivalence rule on arbitrary, malformed records included;
// TestSQLAggReadBudget and TestSQLPointReadBudget hold the pin and
// allocation counts on the served corpus.
//
// One page loop and one visibility rule serve every sweep: scanHeap asks
// visibility.row whether the reader sees each row, and gets back either
// the heap record or a chained row's visible tuple, which it hands to a
// rowSink. tupleSink filters and decodes for Scan and SELECT; recordSink
// serves Snap.ScanRecords, which passes each visible row on as its
// encoded record. A chained tuple is re-encoded, records are copied out
// of the page into one reused buffer, and the consumer runs after the
// latch is released. Row order is Scan's: heap order, then chain-only
// rows in RID order. The encoding has one reader, SplitRecord, which
// validates a record exactly as DecodeTuple does (same errors) and
// slices it into Fields read in place: DecodeTuple decodes them, the
// matcher decides its conjuncts on them, and ScanRecords' consumers read
// strings and floats from them without a decode. FuzzRecordColumns holds
// SplitRecord and DecodeTuple to the old decoder (kept in
// columns_test.go).
//
// # Browse
//
// internal/browse keeps a Browser's rows by column: one string
// dictionary, a uint32 code per row for each of entity, attribute,
// qualifier and value, and a []float64 for conf. A Builder interns the
// string columns; a value already in the dictionary allocates nothing,
// and a column that repeats the previous row's value (an entity's run)
// skips the lookup. Refine resolves its value to a code once (an unknown
// value selects nothing); the rows matching the refinement stack are
// selected once per refinement state by comparing codes; Count is the
// selection's size; Rows materializes Row values for the selected rows
// only; Facets counts codes in a dense per-code array and reads back the
// codes it touched, ordered by count descending, then value, with ""
// left out. core.View.Browse builds its Browser straight from
// Snap.ScanRecords, so no row is decoded or copied into a Row: a
// non-string column 0–3 reads as "" and a non-float conf as 0, as a
// decoded row's t[i].S and t[5].F do. ShardedView.Browse merges the
// shards' Browsers with browse.Merge: a k-way merge on entity (a tie
// goes to the lower shard) that remaps each shard's codes through the
// merged dictionary. TestBrowseMatchesReference (core and shard, 1, 2
// and 4 shards) holds both to the decode-and-copy browse and the []Row
// merge they replaced, under version chains and a concurrent writer;
// TestBrowserMatchesReference and TestMergeMatchesReference hold the
// Browser to the re-filtering reference browser; TestBrowseReadBudget
// holds one browse to one pin per heap page and 20,000 allocations. On
// scan_cold, core.call_us.browse, server.handler_self_us.browse and
// proc.allocs_per_op watch it.
//
// # Keyword index
//
// internal/search keeps the inverted index as flat arrays: a term
// dictionary (term → term ID), one posting list per term sorted by dense
// document ordinal (ordinal, tf, offset), every posting's token positions
// in one shared arena, and per-document tables (DocID, title, indexed
// text, length, sentence spans with the position of each sentence's first
// token) indexed by ordinal. Building it walks each text once with
// internal/doc's allocation-free tokenizer (NextToken, AppendTerm), the
// same one Tokenize wraps for the extractors and the reformulator;
// TestTokenizeMatchesReference and FuzzTokenize hold it to the old
// rune-slice tokenizer.
//
// Scores are bit-identical to a per-document sum in query-term order:
// Search adds into a pooled dense accumulator in that order, keeps the
// same float64 expressions, and breaks ties by the lower DocID.
// A snippet is the first sentence holding the most occurrences of the
// query's distinct terms, counted from the stored positions (a binary
// search over the sentence starts), never by re-tokenizing; a sentence
// over 200 bytes is cut at the last rune boundary within them.
// TestSearchMatchesReference compares hits, scores (==), titles and
// snippets with the old map-based index, kept in reference_test.go, over
// every city × month query of the served shapes; FuzzSnippet does the same
// for arbitrary text. TestSearchAllocBudget, TestBuildIndexAllocBudget and
// TestIndexHeapBudget hold the cost. RefreshChanged rebuilds the index off
// to the side and swaps it in under the index's lock (Index.Rebuild), so
// core.System.Index never changes (TestKeywordSearchBesideRefresh).
package repro
