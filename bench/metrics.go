package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one metric. Bound is the share of the baseline's
// median by which it may get worse before -compare says "worse".
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// gatedMetrics exist on every workload; they are BENCHMARK.json's
// end_to_end list and the last line of an untraced run.
var gatedMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"ask_p50_us", "us", "lower", 0.25},
	{"sql_point_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"disk_bytes_per_row", "bytes", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// scopedMetrics exist only on workloads whose mix contains the op, so
// they cannot be in BENCHMARK.json (its metrics must appear in every
// run). They are printed, written by -out and judged by -compare with
// the bounds here.
var scopedMetrics = []metricSpec{
	{"search_p50_us", "us", "lower", 0.25},
	{"sql_agg_p50_us", "us", "lower", 0.25},
	{"sql_topk_p50_us", "us", "lower", 0.25},
	{"browse_p50_us", "us", "lower", 0.25},
	{"correct_p50_us", "us", "lower", 0.25},
	{"correct_p99_us", "us", "lower", 0.25},
	{"failed_frac", "ratio", "lower", 0}, // must not rise
}

// layerMetrics is BENCHMARK.json's per_layer list and the last line of
// a traced run. A layer a workload never reaches reports 0.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	perOp := func(prefix string, ops ...opClass) (names []string) {
		for _, c := range ops {
			names = append(names, prefix+"."+c.String())
		}
		return names
	}
	all := []opClass{opAsk, opSearch, opSQLPoint, opSQLAgg, opSQLTopK, opBrowse, opExplain, opCorrect}
	sqlish := []opClass{opAsk, opSQLPoint, opSQLAgg, opSQLTopK}
	sharded := []opClass{opAsk, opSQLPoint, opSQLAgg, opSQLTopK, opBrowse}

	add("us", "lower", "server.rtt_floor_us")
	add("us", "lower", perOp("server.wire_self_us", all...)...)
	add("us", "lower", perOp("server.handler_self_us", all...)...)
	add("count", "higher", "server.admitted", "server.served")
	add("count", "lower", "server.shed", "server.conflict_retries")
	add("us", "lower", perOp("core.call_us", all...)...)
	add("us", "lower", "core.self_us.ask", "reformulate.candidates_us", "search.index_search_us", "browse.facets_us")
	add("1/s", "higher", "core.extract_docs_per_s", "core.ingest_rows_per_s")
	add("s", "lower", "core.close_s")
	add("us", "lower", perOp("rdbms.query_us", sqlish...)...)
	add("count", "lower", "rdbms.buffer.pins_per_op")
	add("ratio", "higher", "rdbms.buffer.hit_rate")
	add("count", "lower", "rdbms.buffer.misses_per_op", "rdbms.buffer.evictions_per_op",
		"rdbms.buffer.scan_bypass_per_op", "rdbms.buffer.ghost_hits_per_op", "rdbms.buffer.resident_frames")
	add("count", "lower", "rdbms.wal.syncs_per_commit")
	add("bytes", "lower", "rdbms.wal.bytes_per_commit")
	add("count", "lower", "rdbms.wal.segments", "rdbms.lock.acquisitions_per_op", "rdbms.lock.deadlocks_per_commit",
		"core.correction_deadlock_retries", "rdbms.mvcc.versions_retained", "rdbms.mvcc.chains")
	add("count", "higher", "rdbms.open.indexes_loaded")
	add("count", "lower", "rdbms.open.indexes_rebuilt", "rdbms.checkpoints")
	add("bytes", "lower", "rdbms.disk.data_bytes", "rdbms.disk.wal_bytes")
	add("us", "lower", perOp("shard.call_us", sharded...)...)
	add("ratio", "lower", "shard.row_skew")
	add("ratio", "higher", "shard.min_buffer_hit_rate")
	add("count", "lower", "proc.allocs_per_op")
	add("bytes", "lower", "proc.alloc_bytes_per_op")
	add("count", "lower", "proc.gc_cycles")
	add("ms", "lower", "proc.gc_pause_ms")
	add("MiB", "lower", "proc.peak_rss_mb")
	add("ratio", "lower", "bench.trace_overhead_frac")
	return out
}

// value is one measured metric. N is the sample count behind it (0 for
// counters and ratios).
type value struct {
	V    float64 `json:"value"`
	Unit string  `json:"unit"`
	N    int     `json:"n,omitempty"`
}

// result is one run of one workload: what -out appends and -compare
// reads. Metrics holds the contract's metrics (end_to_end when Trace is
// 0, per_layer when 1); Extra holds workload-scoped metrics and
// diagnostics that carry no gate.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     int              `json:"trace"`
	Clients   int              `json:"clients"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra,omitempty"`
	Env       *envStamp        `json:"env,omitempty"`
	FirstErr  string           `json:"first_error,omitempty"`
}

func (r *result) set(name, unit string, v float64, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]value{}
	}
	r.Metrics[name] = value{V: v, Unit: unit, N: n}
}

func (r *result) extra(name, unit string, v float64, n int) {
	if r.Extra == nil {
		r.Extra = map[string]value{}
	}
	r.Extra[name] = value{V: v, Unit: unit, N: n}
}

// contractLine is the driver's last-line object: exactly correct,
// attempted, failed and metrics, each metric exactly value and unit.
func (r *result) contractLine(specs []metricSpec) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, s := range specs {
		out.Metrics[s.Name] = mv{r.Metrics[s.Name].V, s.Unit}
	}
	b, _ := json.Marshal(out) // plain structs and finite floats cannot fail
	return string(b)
}

// print writes every metric by name and unit; one the workload never
// reaches prints "-".
func (r *result) print(w io.Writer, specs []metricSpec) {
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			v, ok = r.Extra[s.Name]
		}
		if !ok {
			fmt.Fprintf(w, "  %-36s %14s %-6s\n", s.Name, "-", s.Unit)
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "  %-36s %14s %-6s %s\n", s.Name, formatValue(v.V), s.Unit, n)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// --- order statistics -------------------------------------------------------

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it, and its value.
func tailPercentile(sorted []int64) (p float64, v int64) {
	if len(sorted) <= 10 {
		return 0, 0
	}
	i := len(sorted) - 11
	return float64(i+1) / float64(len(sorted)), sorted[i]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianInt(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return medianFloat(fs)
}

func us(ns float64) float64 { return ns / 1e3 }
