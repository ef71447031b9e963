// Package core is the end-to-end system of the paper: it wires every
// substrate into the data generation and exploitation (DGE) model of
// Section 3. Generation runs declarative UQL programs (IE + II + HI) or an
// incremental best-effort extraction planner; exploitation offers keyword
// search, guided reformulation into structured queries, SQL, browsing,
// and alerts — with seamless movement between the modes.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alert"
	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/debugger"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/hi"
	"repro/internal/monitor"
	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/uql"
	"repro/internal/users"
	"repro/internal/vstore"
	"repro/internal/wiki"
)

// TableName is the EAV table holding the final extracted structure.
const TableName = "extracted"

// ErrClosed is returned by every serving operation once Close has begun:
// the typed signal a draining server relays to late requests instead of
// letting them race the engine teardown. It is also what a second,
// concurrent Close waits behind — Close itself is idempotent and returns
// the first close's result to every caller.
var ErrClosed = errors.New("core: system is closed")

// ErrNotFound is the typed miss of an entity-addressed operation: no
// stored fact to correct, or no stored fact that a document re-derives to
// explain.
var ErrNotFound = errors.New("core: not found")

// Config assembles a System.
type Config struct {
	Corpus  *doc.Corpus
	Workers int       // cluster workers (0 = sequential extraction)
	Crowd   *hi.Crowd // optional: enables HI statements and feedback
	// Dir, when set, backs the database with crash-safe on-disk storage
	// (rdbms.OpenDir under this directory) instead of in-memory pager and
	// WAL: the extracted structure survives Close and process death, and
	// reopening the same Dir recovers it. Empty keeps the in-memory
	// database (tests, benchmarks, throwaway runs).
	Dir string
	// Index, when set, is a prebuilt keyword index of the documents this
	// engine serves (a shard's partition, search.BuildPartitions); nil
	// builds one over Corpus.
	Index *search.Index
}

// System is the running end-to-end instance.
type System struct {
	Corpus *doc.Corpus
	DB     *rdbms.DB
	Env    *uql.Env
	Index  *search.Index
	Users  *users.Manager
	Wiki   *wiki.Store
	Alerts *alert.Center
	// Schema tracks the evolving logical schema of the extracted
	// structure: attributes register themselves (with inferred types) the
	// first time they are materialized, so the schema history records how
	// the best-effort structure grew.
	Schema *schema.Evolver
	Stats  *monitor.Stats

	// mu is writer-side coordination only: it guards the task queue, the
	// coverage counters, and the catalog cache's mutable bookkeeping. The
	// read hot path (View, AskGuided, KeywordSearch) never takes it — it
	// loads the published catSnap from catPtr with one atomic load.
	mu        sync.Mutex
	queue     taskQueue    // pending incremental extraction tasks
	cat       catalogCache // incrementally maintained reformulation catalog
	done      map[string]int
	total     map[string]int
	snapshots *vstore.Store // lazily initialized by Snapshots()

	// catPtr publishes the serving-side catalog state RCU-style: readers
	// atomically load an immutable *catSnap and use it without locks;
	// invalidating writers swap in nil (copy-on-invalidate) and the next
	// reader rebuilds and republishes under mu. See catalogSnap.
	catPtr atomic.Pointer[catSnap]

	// Lifecycle state: every serving operation is bracketed by
	// beginOp/endOp, and Close (a) flips closing so new operations get
	// ErrClosed, (b) waits for in-flight operations to finish, then (c)
	// tears the storage down — the drain hook the network server builds
	// its graceful shutdown on. lifeMu is strictly leaf-level: nothing
	// under it blocks on s.mu or the engine.
	lifeMu    sync.Mutex
	lifeCond  *sync.Cond
	inflight  int
	closing   bool
	closeDone chan struct{} // closed when the winning Close finishes
	closeErr  error         // its result, readable after closeDone

	// checkpointing is set while the background checkpoint a committed
	// write started (maybeCheckpoint) runs.
	checkpointing atomic.Bool

	diskBacked bool // the DB persists on disk and Close must release it
	// givenIndex is set when Config.Index supplied the keyword index:
	// which documents it covers is the caller's choice, so RefreshChanged
	// cannot rebuild it.
	givenIndex bool
}

// New builds a system over a corpus. With cfg.Dir set the database opens
// from (or creates) crash-safe on-disk storage; an existing directory
// reopens with its extracted table and indexes already in place, and the
// task queue and its progress are rebuilt from the tasks table.
func New(cfg Config) (*System, error) {
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("core: corpus required")
	}
	var db *rdbms.DB
	var err error
	if cfg.Dir != "" {
		db, err = rdbms.OpenDir(cfg.Dir, rdbms.Options{BufferPages: 512})
	} else {
		db, err = rdbms.Open(rdbms.NewMemPager(), rdbms.NewMemWAL(), rdbms.Options{BufferPages: 512})
	}
	if err != nil {
		return nil, err
	}
	for _, schema := range []rdbms.TableSchema{extractedSchema, tasksSchema} {
		if db.Table(schema.Name) == nil {
			if err := db.CreateTable(schema); err != nil {
				return nil, err
			}
		}
	}
	for _, col := range []string{"entity", "attribute"} {
		if db.Table(TableName).Indexes[col] == nil {
			if err := db.CreateIndex(TableName, col); err != nil {
				return nil, err
			}
		}
	}
	index := cfg.Index
	if index == nil {
		index = search.BuildIndex(cfg.Corpus)
	}
	env := uql.NewEnv()
	env.Sources["docs"] = cfg.Corpus
	env.Crowd = cfg.Crowd
	if cfg.Workers > 0 {
		env.Cluster = cluster.New(cluster.Config{Workers: cfg.Workers})
	}
	env.Extractors["city"] = uql.RegisteredExtractor{
		Pipeline: extract.DefaultCityPipeline(),
		Hints: map[string]string{
			"temperature": "average temperature in",
			"population":  "population",
			"founded":     "founded",
		},
	}
	env.Extractors["person"] = uql.RegisteredExtractor{
		Pipeline: extract.DefaultPersonPipeline(),
		Hints: map[string]string{
			"person": " ",
			"born":   "born in",
		},
	}
	s := &System{
		Corpus:     cfg.Corpus,
		DB:         db,
		diskBacked: cfg.Dir != "",
		givenIndex: cfg.Index != nil,
		Env:        env,
		Index:      index,
		Users:      users.NewManager(),
		Wiki:       wiki.NewStore(),
		Alerts:     alert.NewCenter(),
		Schema:     schema.NewEvolver(TableName),
		Stats:      env.Stats,
		done:       map[string]int{},
		total:      map[string]int{},
	}
	s.lifeCond = sync.NewCond(&s.lifeMu)
	env.Store = s.store
	if err := s.loadTasks(); err != nil {
		return nil, err
	}
	return s, nil
}

// beginOp admits one serving operation, or refuses it with ErrClosed once
// Close has begun. Every admitted operation must be paired with endOp
// (deferred), which is what Close's drain waits on.
func (s *System) beginOp() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closing {
		return ErrClosed
	}
	s.inflight++
	return nil
}

func (s *System) endOp() {
	s.lifeMu.Lock()
	s.inflight--
	if s.closing && s.inflight == 0 {
		s.lifeCond.Broadcast()
	}
	s.lifeMu.Unlock()
}

// checkpointSegments is the live WAL segment count at which a committed
// write starts a background checkpoint. Without it the WAL is truncated
// only at Close (or an explicit Checkpoint), which then pays for the
// whole run's log.
const checkpointSegments = 4

// maybeCheckpoint runs after a core write commits: once the WAL spans
// checkpointSegments segments it starts one background DB.Checkpoint,
// counted as an in-flight operation so Close waits for it. At most one
// runs at a time, and a closing System starts none.
func (s *System) maybeCheckpoint() {
	if s.DB.WALSegments() < checkpointSegments || !s.checkpointing.CompareAndSwap(false, true) {
		return
	}
	if err := s.beginOp(); err != nil {
		s.checkpointing.Store(false)
		return
	}
	go func() {
		defer s.checkpointing.Store(false)
		defer s.endOp()
		if err := s.DB.Checkpoint(); err != nil {
			s.Stats.Inc("core.checkpoint_errors", 1)
			return
		}
		s.Stats.Inc("core.background_checkpoints", 1)
	}()
}

// InFlightOps reports the number of serving operations currently between
// beginOp and endOp (diagnostics; the server's health endpoint and the
// drain tests read it).
func (s *System) InFlightOps() int {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.inflight
}

// Closing reports whether Close has begun (new operations are refused).
func (s *System) Closing() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.closing
}

// --- Published catalog snapshot (RCU) -----------------------------------------

// catSnap is one published generation of the serving-side catalog state.
// The struct itself is immutable after publication; the reformulator it
// points at is the cache's live one, which is internally synchronized and
// absorbs incremental addRow deltas in place — so a published snapshot
// stays current across every ingest and only full invalidations (SQL
// DML, RefreshChanged's DELETE, rebuilds) force a new generation.
type catSnap struct {
	reform *reformulate.Reformulator
	epoch  int64 // cache epoch at publication (diagnostics)
}

// dropCatSnapLocked unpublishes the current catalog snapshot. Callers hold
// s.mu and call this whenever the cache is invalidated or its reformulator
// replaced, so no reader can keep serving from a discarded generation's
// delta feed.
func (s *System) dropCatSnapLocked() {
	s.catPtr.Store(nil)
}

// ensureCatalogLocked makes the catalog cache valid, rebuilding it with
// one full scan if an invalidating write discarded it. The rebuild resets
// the cache's reformulator, so any published snapshot (whose reformulator
// would silently stop receiving deltas) is dropped. Caller holds s.mu.
func (s *System) ensureCatalogLocked() error {
	if s.cat.valid {
		return nil
	}
	s.dropCatSnapLocked()
	return s.cat.rebuildFrom(s.DB, TableName)
}

// catalogSnap returns the published catalog snapshot. The fast path is a
// single atomic load — no mutex, no engine locks — which is what lets
// AskGuided and View-based reads scale across cores. When no snapshot is
// live (first read, or the first read after an invalidation), the slow
// path rebuilds the cache if necessary and publishes a new generation
// under s.mu.
func (s *System) catalogSnap() (*catSnap, error) {
	if cs := s.catPtr.Load(); cs != nil {
		return cs, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.catPtr.Load(); cs != nil {
		return cs, nil
	}
	if err := s.ensureCatalogLocked(); err != nil {
		return nil, err
	}
	cs := &catSnap{reform: s.cat.reformulator(TableName), epoch: s.cat.epoch}
	s.catPtr.Store(cs)
	return cs, nil
}

// --- Generation ---------------------------------------------------------------

// Generate runs a UQL program against the system environment. Each STORE
// ingests its relation into the extracted table in its own transaction
// (see ingest), so the stored attributes register in the evolving schema
// and the stored rows fold into the catalog cache and meet the standing
// queries; an error later in the program leaves earlier STOREs in place.
// Only the extracted table can be stored into (ErrStoreTable). The
// program's relations (Env.Relations) are emptied when it returns, on
// success and on error, so no row outlives the program in memory. ctx is
// consulted at entry (program execution itself is not cancellable
// mid-statement).
func (s *System) Generate(ctx context.Context, program string, opts uql.Options) (*uql.Plan, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer clear(s.Env.Relations)
	return uql.Exec(program, s.Env, opts)
}

// PlanIncremental enqueues best-effort extraction tasks for the given
// attributes using the named extractor, partitioning the corpus into
// parts chunks (a partition too large for one task row becomes several
// tasks). The plan is inserted into the tasks table in one transaction.
// Nothing is extracted until ExtractPending runs; queries meanwhile see
// whatever has been materialized (Section 3.2's "incremental,
// best-effort fashion").
func (s *System) PlanIncremental(ctx context.Context, extractor string, attributes []string, parts int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, ok := s.Env.Extractors[extractor]; !ok {
		return fmt.Errorf("core: unknown extractor %q", extractor)
	}
	var plan []task
	for _, attr := range attributes {
		for pi, p := range s.Corpus.Partition(parts) {
			plan = append(plan, planTasks(attr, pi, p)...)
		}
	}
	tx := s.DB.Begin()
	for i := range plan {
		rid, err := tx.Insert(tasksTable, plan[i].row(false))
		if err != nil {
			tx.Abort()
			return err
		}
		plan[i].rid = rid
	}
	if err := tx.Commit(); err != nil {
		tx.Abort()
		return err
	}
	s.maybeCheckpoint()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tk := range plan {
		s.queue.push(tk)
		s.total[tk.attribute]++
	}
	return nil
}

// Demand raises the priority of an attribute's pending tasks — called when
// the query workload touches the attribute, so extraction effort follows
// user demand.
func (s *System) Demand(ctx context.Context, attribute string, boost float64) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue.boost(attribute, boost)
	return nil
}

// PendingTasks returns the number of queued tasks.
func (s *System) PendingTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.len()
}

// Coverage returns the fraction of an attribute's planned tasks that have
// completed, so answers can be qualified ("based on 40% of the corpus").
// An attribute with no incremental plan is fully covered (whatever was
// generated, was generated in full).
func (s *System) Coverage(attribute string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.total[attribute]
	if t == 0 {
		return 1
	}
	return float64(s.done[attribute]) / float64(t)
}

// ExtractPending runs up to budget queued tasks (highest priority first),
// ingesting each task's rows into the extracted table in the transaction
// that marks the task done. It returns the number of tasks
// executed; a task that fails or is not reached (an error or ctx ends
// the run) stays queued.
func (s *System) ExtractPending(ctx context.Context, extractor string, budget int) (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	reg, ok := s.Env.Extractors[extractor]
	if !ok {
		return 0, fmt.Errorf("core: unknown extractor %q", extractor)
	}
	s.mu.Lock()
	n := budget
	if n <= 0 || n > s.queue.len() {
		n = s.queue.len()
	}
	batch := make([]task, 0, n)
	for len(batch) < n {
		tk, ok := s.queue.pop()
		if !ok {
			break
		}
		batch = append(batch, tk)
	}
	s.mu.Unlock()

	ran := 0
	for i, tk := range batch {
		// Honor cancellation between tasks: completed tasks stay
		// materialized (incremental extraction is resumable by design) and
		// the count reports how many ran.
		err := ctx.Err()
		if err == nil {
			err = s.ingest(s.extractTask(reg, tk), "core.materialized.rows", func(tx *rdbms.Txn) error {
				return updateTask(tx, &tk, true)
			})
		}
		if errors.Is(err, errTaskGone) {
			// The plan no longer holds the task: it leaves the queue and
			// the coverage total, as it would at the next open.
			s.mu.Lock()
			s.total[tk.attribute]--
			s.mu.Unlock()
			s.Stats.Inc("core.tasks.dropped", 1)
			continue
		}
		if err != nil {
			s.mu.Lock()
			for _, rest := range batch[i:] {
				s.queue.push(rest)
			}
			s.mu.Unlock()
			return ran, err
		}
		s.mu.Lock()
		s.done[tk.attribute]++
		s.mu.Unlock()
		s.Stats.Inc("core.incremental.tasks", 1)
		ran++
	}
	return ran, nil
}

func (s *System) extractTask(reg uql.RegisteredExtractor, tk task) []uql.Row {
	hint := reg.Hints[tk.attribute]
	// Best-effort extraction runs only the operators that can produce the
	// demanded attribute.
	pipeline := reg.Pipeline.ForAttributes(tk.attribute)
	var rows []uql.Row
	for _, d := range tk.docs {
		if hint != "" && hint != " " && !strings.Contains(d.Text, hint) {
			continue
		}
		for _, f := range pipeline.ExtractDoc(d) {
			if f.Attribute != tk.attribute {
				continue
			}
			rows = append(rows, fieldRow(f))
		}
	}
	return rows
}

// ExplainFact renders the lineage of a stored fact: which operator pulled
// it from which document, and the stored state above that when feedback
// changed it. It is a one-shot View wrapper (see View.ExplainFact).
func (s *System) ExplainFact(ctx context.Context, entity, attribute, qualifier string) (string, error) {
	v, err := s.View(ctx)
	if err != nil {
		return "", err
	}
	defer v.Close()
	return v.ExplainFact(entity, attribute, qualifier)
}

// --- Exploitation ---------------------------------------------------------------

// KeywordSearch is exploitation mode 1: ranked document hits. It is a
// one-shot View wrapper; the error return exists for the lifecycle
// (ErrClosed) and cancellation cases a serving front end must distinguish
// from "no hits".
func (s *System) KeywordSearch(ctx context.Context, query string, k int) ([]search.Hit, error) {
	v, err := s.View(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return v.KeywordSearch(query, k)
}

// Catalog summarizes the extracted structure for the reformulator. It is
// served from the incrementally maintained catalog cache; only the first
// call after an invalidating write (a direct SQL write, RefreshChanged)
// scans the table. The returned catalog shares slices with the cache and
// must be treated as read-only.
func (s *System) Catalog(ctx context.Context) (reformulate.Catalog, error) {
	cat, _, err := s.EpochCatalog(ctx)
	return cat, err
}

// EpochCatalog is Catalog plus the cache's invalidation epoch, both read
// under one hold of s.mu: the epoch advances on every catalog change, so
// it versions caches built over this very catalog (the sharded merge
// keys its reformulator on it).
func (s *System) EpochCatalog(ctx context.Context) (reformulate.Catalog, int64, error) {
	if err := s.beginOp(); err != nil {
		return reformulate.Catalog{Table: TableName}, 0, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return reformulate.Catalog{Table: TableName}, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureCatalogLocked(); err != nil {
		return reformulate.Catalog{Table: TableName}, 0, err
	}
	return s.cat.snapshot(TableName), s.cat.epoch, nil
}

// RefreshCatalog discards the catalog cache and rebuilds it with one full
// table scan, installing and returning the fresh catalog. It collapses the
// old Catalog()/CatalogScan() split into one explicit operation: as the
// verification baseline, comparing a prior Catalog() result against
// RefreshCatalog()'s detects incremental-maintenance drift — and because
// the rebuilt state is installed, a refresh also repairs any drift it
// finds. The rebuild scans through an MVCC snapshot, so it neither takes
// engine locks nor blocks concurrent writers.
func (s *System) RefreshCatalog(ctx context.Context) (reformulate.Catalog, error) {
	if err := s.beginOp(); err != nil {
		return reformulate.Catalog{Table: TableName}, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return reformulate.Catalog{Table: TableName}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropCatSnapLocked()
	if err := s.cat.rebuildFrom(s.DB, TableName); err != nil {
		return reformulate.Catalog{Table: TableName}, err
	}
	return s.cat.snapshot(TableName), nil
}

// GuidedAnswer is the result of the keyword -> structured transition: the
// ranked candidate forms, plus the executed answer of the top candidate
// and the coverage statistics that qualify it.
type GuidedAnswer struct {
	Candidates []reformulate.Candidate
	Answer     *rdbms.ResultSet
	Coverage   float64
}

// AskGuided is exploitation mode 2 (the §3.2 flow): take a keyword query,
// guess candidate structured queries, execute the best one, and report
// extraction coverage for the touched attribute. It is a one-shot View
// wrapper — the candidate executes against an MVCC snapshot with zero
// lock acquisitions — plus the demand signal a pinned View deliberately
// omits: the touched attribute's pending extraction tasks are boosted so
// effort follows the query workload. A ctx deadline cuts the structured
// query off mid-scan.
func (s *System) AskGuided(ctx context.Context, query string, k int) (*GuidedAnswer, error) {
	v, err := s.View(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	out, err := v.AskGuided(query, k)
	if err != nil {
		return nil, err
	}
	if len(out.Candidates) > 0 {
		if err := s.Demand(ctx, out.Candidates[0].Attribute, 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SQL is exploitation mode 3: direct structured querying for sophisticated
// users. The statement is parsed once: a SELECT runs against a one-shot
// View (MVCC snapshot, zero lock acquisitions, no cache invalidation);
// anything else — mutations and DDL — takes the writer path, where any
// mutating statement (the executor sets ResultSet.Mutated) or error,
// conservatively, invalidates the catalog cache. (Writes driven through
// s.DB directly are outside the cache contract: all extracted-table
// writes must go through System.)
func (s *System) SQL(ctx context.Context, query string) (*rdbms.ResultSet, error) {
	stmt, err := rdbms.ParseSQL(query)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(rdbms.SelectStmt); ok {
		v, err := s.View(ctx)
		if err != nil {
			return nil, err
		}
		defer v.Close()
		return v.ExecSelect(sel)
	}
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	s.Stats.Inc("core.queries.sql", 1)
	rs, err := s.DB.ExecStmt(ctx, stmt)
	if err != nil || rs.Mutated {
		s.mu.Lock()
		s.cat.invalidate()
		s.dropCatSnapLocked()
		s.mu.Unlock()
	}
	if err == nil && rs.Mutated {
		s.maybeCheckpoint()
	}
	return rs, err
}

// Browse is exploitation mode 4: a faceted browser over the extracted
// structure, built from a one-shot View's snapshot scan (ctx honored at
// scan-loop granularity).
func (s *System) Browse(ctx context.Context) (*browse.Browser, error) {
	v, err := s.View(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return v.Browse()
}

// Subscribe is exploitation mode 5: standing queries (alerts) over future
// extractions.
func (s *System) Subscribe(sub alert.Subscription) (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	defer s.endOp()
	return s.Alerts.Subscribe(sub)
}

// SweepSuspicious runs the semantic debugger over the materialized
// structure and returns flagged values (the 135-degree check). Each sweep
// learns per-attribute constraints afresh from the stored data itself —
// its trimmed-support fence tolerates a corrupt minority — so the answer
// depends only on the rows at the snapshot, not on which path stored them
// or on earlier sweeps. The rows are read through a snapshot, so the
// sweep takes no locks and never blocks a correction.
func (s *System) SweepSuspicious(ctx context.Context) ([]debugger.Violation, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	var triples [][3]string
	sn := s.DB.BeginSnapshot().WithContext(ctx)
	defer sn.Close()
	if err := sn.Scan(TableName, func(_ rdbms.RID, t rdbms.Tuple) bool {
		triples = append(triples, [3]string{t[0].S, t[1].S, t[3].S})
		return true
	}); err != nil {
		return nil, err
	}
	d := debugger.New()
	for _, tr := range triples {
		d.Observe(tr[1], tr[2])
	}
	return d.Sweep(triples), nil
}

// CorrectValue applies a human correction to the extracted structure: the
// row's value is replaced and its confidence set from the corrector's
// reputation. The contributor is rewarded via the incentive manager, and
// the corrected row is re-evaluated against alert subscriptions (a
// correction is new information arriving, exactly what a standing query
// watches for). Every stored row of the fact is corrected, addressed
// through the entity index under IX on the table and X on those rows
// alone, so corrections of distinct facts run side by side and cannot
// deadlock each other; a deadlock against a multi-row writer surfaces
// once as rdbms.ErrDeadlock for the caller to retry. A correction never
// changes (entity, attribute, qualifier), so the catalog cache is left
// alone.
func (s *System) CorrectValue(ctx context.Context, user, entity, attribute, qualifier, newValue string) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	weight := s.Users.Weight(user)
	if err := s.correctRow(ctx, weight, entity, attribute, qualifier, newValue); err != nil {
		return err
	}
	s.Users.Award(user, 5)
	s.Stats.Inc("core.corrections", 1)
	// Evaluate standing queries against the corrected row. The alert
	// center dedups on (subscription, entity, qualifier, value), so a
	// repeated identical correction notifies once.
	fired := s.Alerts.Evaluate([]alert.Row{{
		Entity: entity, Attribute: attribute, Qualifier: qualifier,
		Value: newValue, Conf: weight,
	}})
	if len(fired) > 0 {
		s.Stats.Inc("core.alerts.fired", int64(len(fired)))
	}
	return nil
}

// correctRow is CorrectValue's transaction: lock every stored row of the
// fact through one entity-index lookup (an extractor may store a fact
// more than once, e.g. from an infobox and from prose), rewrite each
// one's value and confidence, commit.
func (s *System) correctRow(ctx context.Context, weight float64, entity, attribute, qualifier, newValue string) error {
	tx := s.DB.Begin().WithContext(ctx)
	rids, rows, err := tx.LockRowsByIndex(TableName, "entity", rdbms.NewString(entity), func(t rdbms.Tuple) bool {
		return t[1].S == attribute && t[2].S == qualifier
	})
	if err == nil && len(rids) == 0 {
		err = fmt.Errorf("%w: no extracted row for %s.%s[%s]", ErrNotFound, entity, attribute, qualifier)
	}
	for i := 0; i < len(rids) && err == nil; i++ {
		row := rows[i]
		row[3] = rdbms.NewString(newValue)
		row[4] = numValue(newValue)
		row[5] = rdbms.NewFloat(weight)
		_, err = tx.Update(TableName, rids[i], row)
	}
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

// AverageFromRows is a helper for examples/benches: parse-and-average a
// single-column result set of numeric strings or floats.
func AverageFromRows(rs *rdbms.ResultSet) (float64, bool) {
	if rs == nil || len(rs.Rows) == 0 {
		return 0, false
	}
	sum, n := 0.0, 0
	for _, r := range rs.Rows {
		if len(r) == 0 {
			continue
		}
		switch r[0].Type {
		case rdbms.TFloat:
			sum += r[0].F
			n++
		case rdbms.TInt:
			sum += float64(r[0].I)
			n++
		case rdbms.TString:
			if f, err := strconv.ParseFloat(r[0].S, 64); err == nil {
				sum += f
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
