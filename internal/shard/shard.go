// Package shard scales the dataspace out horizontally: one logical
// system served by N independent engine roots (PR9). The extracted
// table is partitioned by entity hash — the same FNV-64a shuffle the
// MapReduce extraction uses (cluster.Partition), so a row reduces into
// partition p and lives on shard p`mod`N with entity-contiguous runs
// intact. The keyword index is partitioned by the same hash of the
// document title, which is the entity: shard i indexes the documents
// with cluster.Partition(title, N) == i, so a city's document lives
// with its rows. Every partition scores against the whole corpus's
// statistics, so keyword search fans out to every healthy shard and
// merges their top-k lists into exactly a single engine's hits. The
// corpus itself stays whole and shared: shard 0 extracts it for ingest.
//
// Serving contract:
//
//   - Keyword search asks every shard for its top k and merges them by
//     (score desc, DocID asc); hits, scores and snippets are
//     byte-identical to a single engine's.
//   - SQL is parsed once, at the router; shards execute the parsed
//     statement. Entity-routed reads (WHERE entity = '...', corrections,
//     fact lineage) go to the single owning shard and behave exactly
//     like a single engine. A routed JOIN must join extracted to itself
//     on entity, the only JOIN whose rows are co-located.
//   - ORDER BY SELECTs push the sort and a tightened LIMIT down to
//     every shard and k-way merge the already-sorted streams. When the
//     sort keys include the partition column (entity), cross-shard key
//     ties are impossible — equal entities live on one shard — so the
//     merged stream is byte-identical to a single engine's, including
//     tie order, LIMIT and OFFSET. For orderings that exclude entity,
//     cross-shard ties break by shard index (same multiset, order may
//     differ from a single engine's scan order).
//   - A grouped statement (GROUP BY or an aggregate) runs the engine's
//     partial step on every shard — each group's key and one exact
//     rdbms.Accumulator per aggregate — and the engine's final step
//     once, at the router, over the shards' partials: merge by key,
//     order by key, HAVING, projection, ORDER BY, DISTINCT, OFFSET and
//     LIMIT. Shards ship accumulator state, never a rounded value, and
//     a SUM rounds once, so a grouped statement answers the same at
//     every shard count. Held by TestShardedSelectEquivalenceOracle;
//     watched by ask_p50_us (every ask runs a single-group AVG).
//     Cross-shard JOINs are refused with a typed error.
//   - Unordered plain SELECTs and DISTINCT over the extracted table
//     merge per-shard streams on ascending entity. The bulk-ingest
//     stream is globally entity-sorted (the cluster sorts its reduce
//     output by key) and one entity never spans shards, so the merge
//     reconstructs the single-engine scan stream byte-exactly for
//     ingest-built tables; after in-place corrections it remains
//     deterministic. Unordered reads of other (replicated/auxiliary)
//     tables concatenate shard-major.
//   - Writes through SQL are refused: a sharded front end is the
//     serving tier; data arrives through BulkIngest (extract once,
//     route partitions to owners) and mutates through CorrectValue.
//
// Snapshot semantics: a ShardedView pins one MVCC snapshot per shard (a
// vector of LSNs). There is no global transaction order across engines,
// so the vector is the sharded analogue of a single LSN: each shard's
// component is internally consistent, and cross-shard skew is bounded
// by the moment the view opened.
//
// Shard loss degrades, it does not fail: fan-outs treat a closed shard
// (core.ErrClosed) as a gap, serve what the healthy shards return, and
// attach a *DegradedError naming the missing shards — partial results
// with provenance-marked gaps, while healthy shards keep serving inside
// their admission-control bounds.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/uql"
)

// ErrReadOnly is returned for SQL statements that would mutate data:
// the sharded tier serves reads; writes go through BulkIngest and
// CorrectValue.
var ErrReadOnly = errors.New("shard: sharded SQL serving is read-only (ingest and corrections mutate)")

// ErrUnsupported is returned for SELECT shapes that cannot be merged
// exactly across shards (cross-shard JOIN, HAVING, aggregate
// arithmetic). Entity-routed queries support every shape except a JOIN
// whose joined side is not co-located with the entity.
var ErrUnsupported = errors.New("shard: unsupported cross-shard query shape")

// DegradedError reports that one or more shards could not serve. It is
// returned ALONGSIDE a non-nil partial result when healthy shards
// produced one (callers that care about completeness must check the
// error; callers that prefer availability use the result), and alone
// when no shard could serve.
type DegradedError struct {
	Down   []int // shard indexes that did not answer
	Shards int   // total shards in the layout
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard: %d/%d shards unavailable (down: %v); results are partial", len(e.Down), e.Shards, e.Down)
}

// Config describes a sharded layout.
type Config struct {
	// Shards is the number of engine roots; <= 0 means 1.
	Shards int
	// Dir, when set, is the layout root: shard i opens (and persists)
	// under Dir/shard-i via core.OpenDir, and a manifest pins the shard
	// count — reopening with a different count is refused, since rows
	// would be on the wrong shards. Empty Dir runs every shard in
	// memory.
	Dir string
	// System is the per-shard system template (corpus, workers, crowd).
	// Its Dir and Index fields are ignored: the layout Dir governs
	// placement, and each shard is given its partition of the index.
	System core.Config
}

type manifest struct {
	Shards int `json:"shards"`
}

// ShardCountMismatchError is the typed refusal for reopening a durable
// layout with a different shard count than its manifest pins: rows were
// placed by entity hash mod the pinned count, so serving under another
// count would silently route reads to the wrong shards. Callers (the
// daemon's startup path, operators' tooling) detect it with errors.As
// and report "reshard requires re-ingest" instead of a generic open
// failure.
type ShardCountMismatchError struct {
	Dir    string // layout root holding the manifest
	Pinned int    // shard count the layout was ingested with
	Asked  int    // shard count this open requested
}

func (e *ShardCountMismatchError) Error() string {
	return fmt.Sprintf("shard: layout %s has %d shards, asked for %d (reshard requires re-ingest)",
		e.Dir, e.Pinned, e.Asked)
}

// ShardedSystem is N core.Systems behind the single-system serving
// surface (it satisfies the server's Backend interface).
type ShardedSystem struct {
	shards []*core.System
	dir    string

	mu     sync.Mutex
	down   []bool
	closed bool

	// Merged-reformulator memo, keyed by the healthy shards' catalog
	// epochs (see shardedCatalog).
	catMu     sync.Mutex
	catKey    string
	catReform *reformulate.Reformulator
	catMerged reformulate.Catalog
}

// Open builds the sharded layout. With cfg.Dir set, each shard opens
// durable under its own subdirectory (recovering what it held when it was
// opened before); otherwise every shard is in-memory. Shards are empty on
// first open — populate with BulkIngest. The keyword index partitions are
// built first, one goroutine each, and handed to the shards.
func Open(cfg Config) (*ShardedSystem, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if cfg.System.Corpus == nil {
		return nil, fmt.Errorf("shard: corpus required")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		mpath := filepath.Join(cfg.Dir, "shards.json")
		if raw, err := os.ReadFile(mpath); err == nil {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("shard: bad manifest %s: %w", mpath, err)
			}
			if m.Shards != n {
				return nil, &ShardCountMismatchError{Dir: cfg.Dir, Pinned: m.Shards, Asked: n}
			}
		} else {
			raw, _ := json.Marshal(manifest{Shards: n})
			if err := os.WriteFile(mpath, raw, 0o644); err != nil {
				return nil, fmt.Errorf("shard: %w", err)
			}
		}
	}
	ss := &ShardedSystem{dir: cfg.Dir, down: make([]bool, n)}
	// A document goes where its entity's rows go: the title is the entity.
	indexes := search.BuildPartitions(cfg.System.Corpus, n, func(d *doc.Document) int {
		return cluster.Partition(d.Title, n)
	})
	for i := 0; i < n; i++ {
		sysCfg := cfg.System
		sysCfg.Dir = ""
		sysCfg.Index = indexes[i]
		var (
			s   *core.System
			err error
		)
		if cfg.Dir != "" {
			s, _, err = core.OpenDir(filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", i)), sysCfg, nil)
		} else {
			s, err = core.New(sysCfg)
		}
		if err != nil {
			for _, prev := range ss.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, s)
	}
	return ss, nil
}

// Shards returns the layout width.
func (ss *ShardedSystem) Shards() int { return len(ss.shards) }

// Owner returns the shard index owning an entity's rows.
func (ss *ShardedSystem) Owner(entity string) int {
	return cluster.Partition(entity, len(ss.shards))
}

// Shard exposes one underlying system (tests and diagnostics).
func (ss *ShardedSystem) Shard(i int) *core.System { return ss.shards[i] }

// DownShards returns the indexes currently marked down, ascending.
func (ss *ShardedSystem) DownShards() []int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []int
	for i, d := range ss.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// KillShard closes one shard's engine in place — the fault-injection
// hook behind the shard-loss tests. Like core.Close it drains that
// shard's in-flight operations; new fan-outs skip the shard immediately
// and serve degraded. Idempotent.
func (ss *ShardedSystem) KillShard(i int) error {
	if i < 0 || i >= len(ss.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	ss.mu.Lock()
	if ss.down[i] {
		ss.mu.Unlock()
		return nil
	}
	ss.down[i] = true
	ss.mu.Unlock()
	return ss.shards[i].Close()
}

// healthy returns the indexes not marked down.
func (ss *ShardedSystem) healthy() []int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]int, 0, len(ss.shards))
	for i, d := range ss.down {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// markDown records a shard discovered dead mid-operation (its engine
// returned ErrClosed without KillShard being called — e.g. an external
// Close). Keeps the down set truthful for health reporting.
func (ss *ShardedSystem) markDown(i int) {
	ss.mu.Lock()
	ss.down[i] = true
	ss.mu.Unlock()
}

// isGap reports whether a per-shard error means "shard lost" (serve
// degraded) rather than a real query failure.
func isGap(err error) bool {
	return errors.Is(err, core.ErrClosed)
}

// degraded builds the typed gap error for the given down set; nil when
// nothing is missing.
func (ss *ShardedSystem) degraded(down []int) *DegradedError {
	if len(down) == 0 {
		return nil
	}
	sort.Ints(down)
	return &DegradedError{Down: down, Shards: len(ss.shards)}
}

// Close closes every shard (idempotent; concurrent-safe per shard).
func (ss *ShardedSystem) Close() error {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	var firstErr error
	for _, s := range ss.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Closing reports whether Close has begun (Backend surface).
func (ss *ShardedSystem) Closing() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return true
	}
	for _, d := range ss.down {
		if !d {
			return false
		}
	}
	return true // every shard lost: nothing can serve
}

// InFlightOps sums in-flight operations across healthy shards.
func (ss *ShardedSystem) InFlightOps() int {
	total := 0
	for _, i := range ss.healthy() {
		total += ss.shards[i].InFlightOps()
	}
	return total
}

// ExtractedRows sums the extracted-table row counts across healthy
// shards. With shards down the sum is partial — health reporting pairs
// it with the down count.
func (ss *ShardedSystem) ExtractedRows() (int, error) {
	total := 0
	served := 0
	var down []int
	for _, i := range ss.healthy() {
		n, err := ss.shards[i].ExtractedRows()
		if err != nil {
			if isGap(err) {
				ss.markDown(i)
				down = append(down, i)
				continue
			}
			return 0, err
		}
		total += n
		served++
	}
	if served == 0 {
		return 0, core.ErrClosed
	}
	_ = down
	return total, nil
}

// EngineStats sums engine health counters across healthy shards.
func (ss *ShardedSystem) EngineStats() core.EngineStats {
	var agg core.EngineStats
	for _, i := range ss.healthy() {
		es := ss.shards[i].EngineStats()
		agg.Checkpoints += es.Checkpoints
		agg.WALSyncs += es.WALSyncs
		agg.IndexesLoaded += es.IndexesLoaded
		agg.IndexesRebuilt += es.IndexesRebuilt
		agg.BufferHits += es.BufferHits
		agg.BufferMisses += es.BufferMisses
		agg.BufferEvictions += es.BufferEvictions
		agg.BufferScanBypass += es.BufferScanBypass
		agg.BufferCapacity += es.BufferCapacity
		agg.BufferResident += es.BufferResident
	}
	return agg
}

// --- Ingest ---------------------------------------------------------------

// BulkIngest extracts the corpus ONCE (on shard 0's cluster — the corpus
// is whole and shared by every shard) and routes each row to
// its owning shard by entity hash, loading all owners in parallel
// through the COPY-style batch path. The global extraction stream is
// identical to a single engine's for the same partition count, and each
// shard receives an order-preserved subsequence of it — the property
// the equivalence oracle checks. Ingest requires every shard healthy:
// loading around a dead owner would silently lose its partition.
func (ss *ShardedSystem) BulkIngest(ctx context.Context, extractor string, partitions int) (*core.BulkIngestReport, error) {
	if down := ss.DownShards(); len(down) > 0 {
		return nil, fmt.Errorf("shard: cannot ingest with shards down %v: %w", down, core.ErrClosed)
	}
	// The shuffle width only controls cluster parallelism: the extraction
	// stream is globally entity-sorted regardless of width, so every
	// read path is byte-identical to a single engine for any choice.
	// Default to the shard count as a sensible parallelism floor.
	if partitions <= 0 {
		partitions = len(ss.shards)
	}
	start := time.Now()
	rows, es, err := ss.shards[0].ExtractAll(ctx, extractor, partitions)
	if err != nil {
		return nil, err
	}
	n := len(ss.shards)
	parts := make([][]uql.Row, n)
	for _, r := range rows {
		p := cluster.Partition(r.Entity, n)
		parts[p] = append(parts[p], r)
	}
	reports := make([]*core.BulkIngestReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = ss.shards[i].BulkLoadRows(ctx, parts[i])
		}(i)
	}
	wg.Wait()
	merged := &core.BulkIngestReport{
		Docs:       es.Docs,
		Partitions: es.Partitions,
		Workers:    es.Workers,
		Deferred:   true,
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		merged.Rows += r.Rows
		merged.Batches += r.Batches
		if !r.Deferred {
			merged.Deferred = false
		}
	}
	for _, e := range errs {
		if e != nil {
			return merged, e
		}
	}
	merged.Elapsed = time.Since(start)
	return merged, nil
}

// --- Merged catalog -------------------------------------------------------

// shardedCatalog merges the healthy shards' catalogs (entity and
// attribute unions, sorted; qualifier vocabularies merged shard-major
// first-seen) and memoizes one reformulator over the merge, keyed by
// the shards' catalog epochs. Candidate ranking is insertion-order
// independent (reformulate's documented contract: ties break by name,
// never catalog position), so the merged reformulator answers exactly
// like a single engine's for the same underlying rows; only qualifier
// RANGE rendering follows vocabulary order, which is identical when
// shards observe qualifiers in the same canonical order (months do).
func (ss *ShardedSystem) shardedCatalog(ctx context.Context) (reformulate.Catalog, *reformulate.Reformulator, []int, error) {
	healthy := ss.healthy()
	var down []int
	type part struct {
		idx int
		cat reformulate.Catalog
	}
	// Shards read their catalogs in parallel: the first read after a
	// reopen or an invalidating write rebuilds each by a scan of its table.
	// Each catalog comes with the epoch it was read at, so the memo key
	// names exactly the catalogs merged under it.
	cats := make([]reformulate.Catalog, len(healthy))
	epochs := make([]int64, len(healthy))
	errs := make([]error, len(healthy))
	var wg sync.WaitGroup
	for j, i := range healthy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cats[j], epochs[j], errs[j] = ss.shards[i].EpochCatalog(ctx)
		}()
	}
	wg.Wait()
	var parts []part
	var key strings.Builder
	for j, i := range healthy {
		cat, err := cats[j], errs[j]
		if err != nil {
			if isGap(err) {
				ss.markDown(i)
				down = append(down, i)
				continue
			}
			return reformulate.Catalog{}, nil, nil, err
		}
		fmt.Fprintf(&key, "%d:%d;", i, epochs[j])
		parts = append(parts, part{idx: i, cat: cat})
	}
	if len(parts) == 0 {
		return reformulate.Catalog{}, nil, down, core.ErrClosed
	}

	ss.catMu.Lock()
	defer ss.catMu.Unlock()
	if ss.catReform != nil && ss.catKey == key.String() {
		return ss.catMerged, ss.catReform, down, nil
	}
	merged := reformulate.Catalog{Table: core.TableName, Qualifiers: map[string][]string{}}
	entSeen := map[string]bool{}
	attrSeen := map[string]bool{}
	qualSeen := map[string]map[string]bool{}
	for _, p := range parts {
		for _, e := range p.cat.Entities {
			if !entSeen[e] {
				entSeen[e] = true
				merged.Entities = append(merged.Entities, e)
			}
		}
		for _, a := range p.cat.Attributes {
			if !attrSeen[a] {
				attrSeen[a] = true
				merged.Attributes = append(merged.Attributes, a)
			}
		}
		for attr, quals := range p.cat.Qualifiers {
			qs := qualSeen[attr]
			if qs == nil {
				qs = map[string]bool{}
				qualSeen[attr] = qs
			}
			for _, q := range quals {
				if !qs[q] {
					qs[q] = true
					merged.Qualifiers[attr] = append(merged.Qualifiers[attr], q)
				}
			}
		}
	}
	sort.Strings(merged.Entities)
	sort.Strings(merged.Attributes)
	ss.catKey = key.String()
	ss.catMerged = merged
	ss.catReform = reformulate.New(merged)
	return merged, ss.catReform, down, nil
}

// Catalog returns the merged catalog (Backend-compatible diagnostics).
func (ss *ShardedSystem) Catalog(ctx context.Context) (reformulate.Catalog, error) {
	cat, _, down, err := ss.shardedCatalog(ctx)
	if err != nil {
		return cat, err
	}
	if de := ss.degraded(down); de != nil {
		return cat, de
	}
	return cat, nil
}

// --- One-shot serving surface (Backend) -----------------------------------

// KeywordSearch asks every healthy shard for its top k over its
// partition of the index and merges the lists (search.MergeHits). The
// partitions score against whole-corpus statistics, so with every shard
// up the merge is a single engine's answer. With shards down, the
// healthy shards' merged hits come back alongside a *DegradedError: the
// documents the lost shards own are missing, and the rest rank and
// score exactly as they would in the full answer. With no shard left,
// the error is core.ErrClosed.
func (ss *ShardedSystem) KeywordSearch(ctx context.Context, query string, k int) ([]search.Hit, error) {
	up := ss.healthy()
	var down []int
	lists := make([][]search.Hit, 0, len(up))
	for i, s := range ss.shards {
		if !slices.Contains(up, i) {
			down = append(down, i)
			continue
		}
		hits, err := s.KeywordSearch(ctx, query, k)
		if err != nil {
			if isGap(err) {
				ss.markDown(i)
				down = append(down, i)
				continue
			}
			return nil, err
		}
		lists = append(lists, hits)
	}
	if len(lists) == 0 {
		return nil, core.ErrClosed
	}
	return search.MergeHits(k, lists...), degradedOrNil(ss.degraded(down))
}

// AskGuided mirrors the single-engine flow over the merged catalog:
// reformulate the keyword query, execute the top candidate's SQL across
// the shards, average coverage over healthy shards, and boost demand on
// every healthy shard so extraction effort follows the workload.
func (ss *ShardedSystem) AskGuided(ctx context.Context, query string, k int) (*core.GuidedAnswer, error) {
	sv, err := ss.View(ctx)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	out, err := sv.AskGuided(query, k)
	var de *DegradedError
	if err != nil && !errors.As(err, &de) {
		return nil, err
	}
	if out != nil && len(out.Candidates) > 0 {
		for _, i := range ss.healthy() {
			if derr := ss.shards[i].Demand(ctx, out.Candidates[0].Attribute, 1); derr != nil && !isGap(derr) {
				return nil, derr
			}
		}
	}
	return out, err
}

// SQL serves read statements across the shards (see package doc for the
// merge contract); mutations are refused with ErrReadOnly.
func (ss *ShardedSystem) SQL(ctx context.Context, query string) (*rdbms.ResultSet, error) {
	sv, err := ss.View(ctx)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	return sv.SQL(query)
}

// Browse builds the faceted browser over every healthy shard's snapshot
// scan, entity-merged back into the single-engine scan order (facet
// counts are order-independent either way).
func (ss *ShardedSystem) Browse(ctx context.Context) (*browse.Browser, error) {
	sv, err := ss.View(ctx)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	return sv.Browse()
}

// Subscribe fans the standing query to every healthy shard — an alert
// fires on whichever shard owns the entity a future correction touches.
// Because every subscription fans out, healthy shards assign aligned
// IDs; the common ID is returned.
func (ss *ShardedSystem) Subscribe(sub alert.Subscription) (int, error) {
	id := -1
	served := false
	for _, i := range ss.healthy() {
		sid, err := ss.shards[i].Subscribe(sub)
		if err != nil {
			if isGap(err) {
				ss.markDown(i)
				continue
			}
			return 0, err
		}
		if !served {
			id = sid
			served = true
		}
	}
	if !served {
		return 0, core.ErrClosed
	}
	return id, nil
}

// CorrectValue routes the correction to the shard owning the entity.
func (ss *ShardedSystem) CorrectValue(ctx context.Context, user, entity, attribute, qualifier, newValue string) error {
	owner := ss.Owner(entity)
	err := ss.shards[owner].CorrectValue(ctx, user, entity, attribute, qualifier, newValue)
	if err != nil && isGap(err) {
		ss.markDown(owner)
		return ss.degraded([]int{owner})
	}
	return err
}

// ExplainFact routes lineage rendering to the shard owning the entity.
func (ss *ShardedSystem) ExplainFact(ctx context.Context, entity, attribute, qualifier string) (string, error) {
	owner := ss.Owner(entity)
	out, err := ss.shards[owner].ExplainFact(ctx, entity, attribute, qualifier)
	if err != nil && isGap(err) {
		ss.markDown(owner)
		return "", ss.degraded([]int{owner})
	}
	return out, err
}
