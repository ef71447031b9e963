package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
)

// span is one interval at a layer boundary. The spans of one request
// share Trace; Parent is the span that caused it. Replay spans come from
// the second pass, which runs the same op one boundary lower: their
// times lie outside their parent's, only their duration is comparable.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"span"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. The traced run has
// one request in flight, so "the current trace" is a single value.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	on    bool
	trace int64
	class opClass
	// The backend spans of the current trace: where they sit, and how
	// long the backend ran in total (a conflict retry calls it again).
	backendIdx []int
	backendDur time.Duration
	backendEnd time.Time
}

func (t *tracer) addLocked(name string, trace, parent int64, start, end time.Time, replay bool) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, trace, id, parent, int64(start.Sub(t.base)), int64(end.Sub(t.base)), replay})
	return id
}

// begin opens the next request's trace.
func (t *tracer) begin(class opClass) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = true
	t.trace++
	t.class, t.backendIdx, t.backendDur = class, t.backendIdx[:0], 0
}

// backendSpan is called by the decorator around every call into
// core/shard.
func (t *tracer) backendSpan(layer string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.backendIdx = append(t.backendIdx, len(t.spans))
	t.backendDur += end.Sub(start)
	t.backendEnd = end
	t.addLocked(layer+"."+t.class.String(), t.trace, 0, start, end, false)
}

// finish closes the current trace: client.do around the round trip,
// server.elapsed inside it, the backend spans inside that. It returns
// the trace id, the backend span's id and the backend's total time.
//
// server.elapsed has a measured duration (Response.Elapsed); its
// position is inferred: it ends after the backend returned, by what the
// handler did besides the call (building the reply follows the call).
func (t *tracer) finish(start time.Time, rtt, elapsed time.Duration) (trace, backendID int64, backend time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	doID := t.addLocked("client.do", t.trace, 0, start, start.Add(rtt), false)
	end := t.backendEnd.Add(elapsed - t.backendDur)
	srvID := t.addLocked("server.elapsed", t.trace, doID, end.Add(-elapsed), end, false)
	for _, idx := range t.backendIdx {
		t.spans[idx].Parent = srvID
		backendID = t.spans[idx].ID
	}
	return t.trace, backendID, t.backendDur
}

// replay records a second-pass span under an earlier trace.
func (t *tracer) replay(name string, rec *traceRec, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, rec.trace, rec.parent, start, end, true)
}

// tracedBackend is the bench-side decorator handed to server.New: it
// records a span around every call the handler makes into the backend
// and changes nothing else.
type tracedBackend struct {
	server.Backend
	t     *tracer
	layer string
}

func (b *tracedBackend) KeywordSearch(ctx context.Context, q string, k int) ([]search.Hit, error) {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.KeywordSearch(ctx, q, k)
}

func (b *tracedBackend) AskGuided(ctx context.Context, q string, k int) (*core.GuidedAnswer, error) {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.AskGuided(ctx, q, k)
}

func (b *tracedBackend) SQL(ctx context.Context, q string) (*rdbms.ResultSet, error) {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.SQL(ctx, q)
}

func (b *tracedBackend) Browse(ctx context.Context) (*browse.Browser, error) {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.Browse(ctx)
}

func (b *tracedBackend) CorrectValue(ctx context.Context, user, entity, attribute, qualifier, v string) error {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.CorrectValue(ctx, user, entity, attribute, qualifier, v)
}

func (b *tracedBackend) ExplainFact(ctx context.Context, entity, attribute, qualifier string) (string, error) {
	defer b.t.backendSpan(b.layer, time.Now())
	return b.Backend.ExplainFact(ctx, entity, attribute, qualifier)
}

// tracedSharded forwards the optional topology surface, so health
// reports the same shards with the decorator in place.
type tracedSharded struct {
	tracedBackend
	ss *shard.ShardedSystem
}

func (b *tracedSharded) Shards() int       { return b.ss.Shards() }
func (b *tracedSharded) DownShards() []int { return b.ss.DownShards() }

func (t *tracer) wrap(be server.Backend) server.Backend {
	if ss, ok := be.(*shard.ShardedSystem); ok {
		return &tracedSharded{tracedBackend{be, t, "shard"}, ss}
	}
	return &tracedBackend{be, t, "core"}
}

// traceRec is one request of the traced pass.
type traceRec struct {
	op      op
	trace   int64
	parent  int64 // the backend span, parent of the replay spans
	rtt     time.Duration
	elapsed time.Duration // Response.Elapsed
	backend time.Duration
	sql     string // ask: the chosen candidate's SQL
}

// counters is every count the program exposes at a public boundary;
// the traced run reports deltas between two readings.
type counters struct {
	buf      []rdbms.BufferStats // per engine
	walSyncs int64
	ckpts    int64
	lockAcq  int64
	deadlock int64
	versions int
	chains   int
	dlRetry  int64
	admitted int64
	shed     int64
	served   int64
	walBytes int64
	mem      runtime.MemStats
}

// readCounters reads every counter once sent replies have been counted.
func readCounters(engines []*core.System, srv *server.Server, sent int64, dir string) (c counters, err error) {
	for _, e := range engines {
		c.buf = append(c.buf, e.DB.BufferStats())
		c.walSyncs += e.DB.WALSyncs()
		c.ckpts += e.DB.Checkpoints()
		c.lockAcq += e.DB.LockManager().Acquisitions()
		c.deadlock += e.DB.LockManager().Deadlocks()
		c.versions += e.DB.Versions().VersionCount()
		c.chains += e.DB.Versions().Chains()
		c.dlRetry += e.Stats.Counter("core.corrections.deadlock_retries")
	}
	// The server counts a reply as served after writing it, so the
	// client can hold the reply a moment before the count shows it.
	for wait := time.Now(); ; {
		c.admitted, c.shed, c.served = srv.Stats()
		if c.served >= sent || time.Since(wait) > time.Second {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	_, c.walBytes, _, err = diskBytes(dir)
	runtime.ReadMemStats(&c.mem)
	return c, err
}

// runTraced is the per-layer run: one client, the first n ops of client
// 0's stream, so every count repeats exactly for a given seed.
//
//	warm    n/4 ops, untimed
//	paired  the n ops in eight chunks; each chunk runs once through a
//	        server over the bare backend (the untraced rate) and once
//	        through a server over the decorated backend (the spans),
//	        taking turns to go first, so the machine's drift and the
//	        warmth the first pass leaves fall on both sides alike
//	replay  the same n ops one boundary lower, on the exported handles
//
// Engine counts are deltas over the paired phase, in which every op runs
// twice: per-op figures divide by 2n.
func runTraced(cfg *runConfig) (*result, error) {
	n := cfg.tracedOps
	if n == 0 {
		n = cfg.w.tracedOps
	}
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Trace: 1, Clients: 1, Seconds: cfg.window.Seconds()}
	tr := &tracer{base: time.Now()}
	wd, _, err := setUp(cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(wd.dir)
	in := wd.in
	engines := in.engines()
	// The decorated backend gets its own server on the same engine.
	traced := &instance{be: in.be}
	if err := traced.serve(tr.wrap); err != nil {
		return nil, err
	}
	bare, err := in.dial()
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	deco, err := traced.dial()
	if err != nil {
		return nil, err
	}
	defer deco.Close()
	ctx := context.Background()
	recs := make([]traceRec, 0, n)

	fail := func(err error) {
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = err.Error()
		}
	}
	// chunk runs the next count ops of g through c.
	chunk := func(c *server.Client, g *generator, seq, count int, traced bool) time.Duration {
		start := time.Now()
		for i := seq; i < seq+count; i++ {
			p := g.next()
			if traced {
				tr.begin(p.class)
			}
			t0 := time.Now()
			lat, _, resp, err := doOp(ctx, c, wd, &p, 0, i)
			res.Attempted++
			if err != nil {
				fail(err)
				continue
			}
			if traced {
				rec := traceRec{op: p, rtt: lat, elapsed: time.Duration(resp.Elapsed) * time.Microsecond}
				rec.trace, rec.parent, rec.backend = tr.finish(t0, lat, rec.elapsed)
				if resp.Guided != nil && len(resp.Guided.Candidates) > 0 {
					rec.sql = resp.Guided.Candidates[0].SQL
				}
				recs = append(recs, rec)
			}
		}
		return time.Since(start)
	}
	stream := func() *generator { return newGenerator(cfg.w, cfg.seed, 0, 1, len(wd.truth.Cities)) }

	chunk(bare, stream(), 0, n/4, false)
	before, err := readCounters(engines, traced.srv, 1, wd.dir) // serve()'s health probe
	if err != nil {
		return nil, err
	}
	var untraced, tracedTime time.Duration
	gA, gB := stream(), stream()
	for seq, k := 0, 0; seq < n; k++ {
		// Whichever side runs a chunk second finds it warm, so the
		// sides take turns going first.
		count := min((n+7)/8, n-seq)
		if k%2 == 0 {
			untraced += chunk(bare, gA, seq, count, false)
			tracedTime += chunk(deco, gB, seq, count, true)
		} else {
			tracedTime += chunk(deco, gB, seq, count, true)
			untraced += chunk(bare, gA, seq, count, false)
		}
		seq += count
	}
	after, err := readCounters(engines, traced.srv, 1+int64(len(recs)), wd.dir)
	if err != nil {
		return nil, err
	}
	times := splitTimes(recs)
	fillLayers(res, in, times, before, after)

	replay, err := replayLower(ctx, wd, tr, recs)
	if err != nil {
		return nil, err
	}

	// Close, price the disk, reopen for the open stats.
	if err := traced.stop(); err != nil {
		return nil, err
	}
	if err := in.stop(); err != nil {
		return nil, err
	}
	closeStart := time.Now()
	if err := in.be.Close(); err != nil {
		return nil, err
	}
	closeTime := time.Since(closeStart)
	var ckpts int64
	for _, e := range engines {
		ckpts += e.DB.Checkpoints()
	}
	data, wal, segments, err := diskBytes(wd.dir)
	if err != nil {
		return nil, err
	}
	re, err := openBackend(wd.dir, wd.corpus, cfg.w.shards)
	if err != nil {
		return nil, fmt.Errorf("traced run: reopen: %w", err)
	}
	var open rdbms.OpenStats
	for _, e := range re.engines() {
		s := e.DB.LastOpenStats()
		open.IndexesLoaded += s.IndexesLoaded
		open.IndexesRebuilt += s.IndexesRebuilt
	}
	if err := re.be.Close(); err != nil {
		return nil, err
	}

	fillReplay(res, in, times.call[opAsk], replay)
	rows := float64(wd.oracle.rowsPerCity * len(wd.truth.Cities))
	res.set("core.extract_docs_per_s", "1/s", float64(in.docs)/in.ingestTime.Seconds(), in.docs)
	res.set("core.ingest_rows_per_s", "1/s", rows/in.ingestTime.Seconds(), int(rows))
	res.set("core.close_s", "s", closeTime.Seconds(), 0)
	res.set("rdbms.checkpoints", "count", float64(ckpts-before.ckpts), 0)
	res.set("rdbms.open.indexes_loaded", "count", float64(open.IndexesLoaded), 0)
	res.set("rdbms.open.indexes_rebuilt", "count", float64(open.IndexesRebuilt), 0)
	res.set("rdbms.disk.data_bytes", "bytes", float64(data), 0)
	res.set("rdbms.disk.wal_bytes", "bytes", float64(wal), 0)
	res.set("rdbms.wal.segments", "count", float64(segments), 0)
	res.set("bench.trace_overhead_frac", "ratio", 1-untraced.Seconds()/tracedTime.Seconds(), n)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.set("proc.peak_rss_mb", "MiB", float64(ru.Maxrss)/1024, 0) // Linux reports KiB
	}
	res.Correct = res.Failed == 0
	return res, writeSpans(filepath.Join(cfg.dir, "trace-"+cfg.w.name+".jsonl"), tr.spans)
}

// replayed holds the second pass's durations per op class.
type replayed struct {
	query       [numOps][]int64 // rdbms.query: the statement on DB.BeginSnapshot().Query
	reformulate []int64
	search      []int64
	facets      []int64
}

// replayLower runs each traced op one boundary lower, directly on the
// handles the packages export. On shards a fanned-out statement waits
// for its slowest shard, so its time is the maximum over the shards.
func replayLower(ctx context.Context, wd *world, tr *tracer, recs []traceRec) (*replayed, error) {
	in := wd.in
	var cat reformulate.Catalog
	var err error
	if in.single != nil {
		cat, err = in.single.Catalog(ctx)
	} else {
		cat, err = in.sharded.Catalog(ctx)
	}
	if err != nil {
		return nil, err
	}
	ref := reformulate.New(cat)
	engines := in.engines()
	out := &replayed{}

	query := func(rec *traceRec, db *rdbms.DB, stmt string) (time.Duration, error) {
		start := time.Now()
		snap := db.BeginSnapshot()
		_, err := snap.Query(stmt)
		snap.Close()
		end := time.Now()
		tr.replay("rdbms.query", rec, start, end)
		return end.Sub(start), err
	}
	for i := range recs {
		rec := &recs[i]
		req := rec.op.request(wd.truth, 0)
		title := wd.truth.Cities[rec.op.city].Title
		switch rec.op.class {
		case opAsk:
			start := time.Now()
			cands := ref.Candidates(req.Query, req.K)
			end := time.Now()
			tr.replay("reformulate.candidates", rec, start, end)
			out.reformulate = append(out.reformulate, int64(end.Sub(start)))
			if len(cands) == 0 || cands[0].SQL != rec.sql {
				return nil, fmt.Errorf("replay: reformulation of %q differs from the served one", req.Query)
			}
			d, err := query(rec, in.owner(title).DB, rec.sql)
			if err != nil {
				return nil, err
			}
			out.query[opAsk] = append(out.query[opAsk], int64(d))
		case opSQLPoint:
			d, err := query(rec, in.owner(title).DB, req.SQL)
			if err != nil {
				return nil, err
			}
			out.query[opSQLPoint] = append(out.query[opSQLPoint], int64(d))
		case opSQLAgg, opSQLTopK:
			var slowest time.Duration
			for _, e := range engines {
				d, err := query(rec, e.DB, req.SQL)
				if err != nil {
					return nil, err
				}
				slowest = max(slowest, d)
			}
			out.query[rec.op.class] = append(out.query[rec.op.class], int64(slowest))
		case opSearch:
			start := time.Now()
			engines[0].Index.Search(req.Query, req.K, search.BM25)
			end := time.Now()
			tr.replay("search.index_search", rec, start, end)
			out.search = append(out.search, int64(end.Sub(start)))
		case opBrowse:
			b, err := in.be.Browse(ctx)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := b.Refine("attribute", "population"); err != nil {
				return nil, err
			}
			_, _ = b.Rows(), b.Facets()
			end := time.Now()
			tr.replay("browse.facets", rec, start, end)
			out.facets = append(out.facets, int64(end.Sub(start)))
		}
	}
	return out, nil
}

// classTimes splits the traced requests' times by op class.
type classTimes struct {
	rtt, wire, handler, call [numOps][]int64
}

func splitTimes(recs []traceRec) *classTimes {
	var t classTimes
	for _, r := range recs {
		c := r.op.class
		t.rtt[c] = append(t.rtt[c], int64(r.rtt))
		t.wire[c] = append(t.wire[c], int64(r.rtt-r.elapsed))
		t.handler[c] = append(t.handler[c], int64(r.elapsed-r.backend))
		t.call[c] = append(t.call[c], int64(r.backend))
	}
	return &t
}

// fillReplay reports the second pass: what the packages below the
// backend boundary took for the same ops, and core's self time.
func fillReplay(res *result, in *instance, askCalls []int64, rp *replayed) {
	for c := opClass(0); c < numOps; c++ {
		if q := rp.query[c]; len(q) > 0 {
			res.set("rdbms.query_us."+c.String(), "us", us(medianInt(q)), len(q))
		}
	}
	if c, q := askCalls, rp.query[opAsk]; len(c) > 0 && in.single != nil {
		res.set("core.self_us.ask", "us", us(medianInt(c))-us(medianInt(q)), len(c))
	}
	if x := rp.reformulate; len(x) > 0 {
		res.set("reformulate.candidates_us", "us", us(medianInt(x)), len(x))
	}
	if x := rp.search; len(x) > 0 {
		res.set("search.index_search_us", "us", us(medianInt(x)), len(x))
	}
	if x := rp.facets; len(x) > 0 {
		res.set("browse.facets_us", "us", us(medianInt(x)), len(x))
	}
}

// fillLayers turns the traced requests and the counter deltas into
// per-layer metrics. Self time = span - child: wire = client.do -
// server.elapsed, handler = server.elapsed - backend span.
func fillLayers(res *result, in *instance, t *classTimes, before, after counters) {
	layer := "core"
	if in.sharded != nil {
		layer = "shard"
	}
	ops := 0
	for c := opClass(0); c < numOps; c++ {
		n := len(t.rtt[c])
		ops += n
		if n == 0 {
			continue
		}
		op := c.String()
		w, h, k := us(medianInt(t.wire[c])), us(medianInt(t.handler[c])), us(medianInt(t.call[c]))
		res.set("server.wire_self_us."+op, "us", w, n)
		res.set("server.handler_self_us."+op, "us", h, n)
		res.set(layer+".call_us."+op, "us", k, n)
		// Attribution closes when the layers' medians, summed, come to
		// the median round trip.
		p50 := us(medianInt(t.rtt[c]))
		res.extra("client.do_us."+op, "us", p50, n)
		res.extra("bench.closure."+op, "ratio", (w+h+k)/p50, n)
	}
	if x := t.rtt[opExplain]; len(x) > 0 {
		res.set("server.rtt_floor_us", "us", us(medianInt(x)), len(x))
	}

	// Every op ran twice between the two readings (bare, then traced).
	commits := 2 * len(t.rtt[opCorrect])
	n := float64(2 * ops)
	var hits, misses, evict, bypass, ghost int64
	resident := 0
	minHit := 1.0
	for i := range after.buf {
		a, b := after.buf[i], before.buf[i]
		h, m := a.Hits-b.Hits, a.Misses-b.Misses
		hits, misses = hits+h, misses+m
		evict += a.Evictions - b.Evictions
		bypass += a.ScanBypass - b.ScanBypass
		ghost += a.GhostHits - b.GhostHits
		resident += a.Resident
		if h+m > 0 {
			minHit = min(minHit, float64(h)/float64(h+m))
		}
	}
	res.set("rdbms.buffer.pins_per_op", "count", float64(hits+misses)/n, 0)
	if hits+misses > 0 {
		res.set("rdbms.buffer.hit_rate", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	res.set("rdbms.buffer.misses_per_op", "count", float64(misses)/n, 0)
	res.set("rdbms.buffer.evictions_per_op", "count", float64(evict)/n, 0)
	res.set("rdbms.buffer.scan_bypass_per_op", "count", float64(bypass)/n, 0)
	res.set("rdbms.buffer.ghost_hits_per_op", "count", float64(ghost)/n, 0)
	res.set("rdbms.buffer.resident_frames", "count", float64(resident), 0)
	if commits > 0 { // undefined without commits
		res.set("rdbms.wal.syncs_per_commit", "count", float64(after.walSyncs-before.walSyncs)/float64(commits), commits)
		res.set("rdbms.wal.bytes_per_commit", "bytes", float64(after.walBytes-before.walBytes)/float64(commits), commits)
		res.set("rdbms.lock.deadlocks_per_commit", "count", float64(after.deadlock-before.deadlock)/float64(commits), commits)
	}
	res.set("rdbms.lock.acquisitions_per_op", "count", float64(after.lockAcq-before.lockAcq)/n, 0)
	res.set("core.correction_deadlock_retries", "count", float64(after.dlRetry-before.dlRetry), 0)
	res.set("rdbms.mvcc.versions_retained", "count", float64(after.versions-before.versions), 0)
	res.set("rdbms.mvcc.chains", "count", float64(after.chains-before.chains), 0)
	res.set("server.admitted", "count", float64(after.admitted-before.admitted), 0)
	res.set("server.shed", "count", float64(after.shed-before.shed), 0)
	res.set("server.served", "count", float64(after.served-before.served), 0)
	res.set("server.conflict_retries", "count", 0, 0) // one client: nothing to conflict with
	res.set("proc.allocs_per_op", "count", float64(after.mem.Mallocs-before.mem.Mallocs)/n, 0)
	res.set("proc.alloc_bytes_per_op", "bytes", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/n, 0)
	res.set("proc.gc_cycles", "count", float64(after.mem.NumGC-before.mem.NumGC), 0)
	res.set("proc.gc_pause_ms", "ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 0)

	if in.sharded != nil {
		var rows []float64
		total := 0.0
		for _, e := range in.engines() {
			r, err := e.ExtractedRows()
			if err != nil {
				continue
			}
			rows = append(rows, float64(r))
			total += float64(r)
		}
		sort.Float64s(rows)
		if total > 0 {
			res.set("shard.row_skew", "ratio", rows[len(rows)-1]/(total/float64(len(rows))), 0)
		}
		res.set("shard.min_buffer_hit_rate", "ratio", minHit, 0)
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
