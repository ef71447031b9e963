package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

const specPath = "../BENCHMARK.json"

// streamHash hashes the first n requests of every client's stream.
func streamHash(t *testing.T, w *workload, seed int64, clients, n int) (sum [32]byte, shares [numOps]float64) {
	t.Helper()
	_, truth := genCorpus(seed, w.scaledCities(0.1))
	h := sha256.New()
	for c := 0; c < clients; c++ {
		g := newGenerator(w, seed, c, clients, len(truth.Cities))
		for i := 0; i < n; i++ {
			p := g.next()
			shares[p.class] += 100 / float64(clients*n)
			b, err := json.Marshal(p.request(truth, c))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	copy(sum[:], h.Sum(nil))
	return sum, shares
}

func TestGeneratorDeterministic(t *testing.T) {
	hashes := map[string][32]byte{}
	for i := range workloads {
		w := &workloads[i]
		total := 0
		for _, share := range w.mix {
			total += share
		}
		if total != blockOps {
			t.Errorf("%s: mix sums to %d, want %d", w.name, total, blockOps)
		}
		a, shares := streamHash(t, w, 7, 2, 10000)
		b, _ := streamHash(t, w, 7, 2, 10000)
		c, _ := streamHash(t, w, 8, 2, 10000)
		if a != b {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		for class, share := range w.mix {
			if d := shares[class] - float64(share); d > 1 || d < -1 {
				t.Errorf("%s: %s is %.2f%% of the stream, the table says %d%%", w.name, opClass(class), shares[class], share)
			}
		}
		hashes[w.name] = a
	}
	if hashes["scan_cold"] != hashes["sharded_mixed"] {
		t.Error("sharded_mixed must replay scan_cold's exact requests")
	}
}

// startDaemon runs server.RunDaemon in-process, the assembly cmd/unidbd
// compiles, and returns its address and a stop function.
func startDaemon(t *testing.T, cfg server.DaemonConfig) (addr string, stop func()) {
	t.Helper()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Ready = func(a net.Addr) { addrCh <- a.String() }
	cfg.Signals = []os.Signal{syscall.SIGUSR1}
	go func() { done <- server.RunDaemon(cfg) }()
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready")
	}
	return addr, func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon drain: %v", err)
			}
		case <-time.After(time.Minute):
			t.Error("daemon did not drain")
		}
	}
}

// TestBackendParity guards drift between this package's copy of the
// daemon's set-up and server.RunDaemon itself: same corpus flags, same
// extracted_rows, identical answers for one statement of every op class.
func TestBackendParity(t *testing.T) {
	const cities, seed = 40, 3
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprint(shards, "-engines"), func(t *testing.T) {
			addr, stopDaemon := startDaemon(t, server.DaemonConfig{
				DataDir: filepath.Join(t.TempDir(), "daemon"), Shards: shards, Cities: cities, Seed: seed,
			})
			defer stopDaemon()
			corpus, truth := genCorpus(seed, cities)
			in, err := openBackend(filepath.Join(t.TempDir(), "bench"), corpus, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer in.shutdown()
			if err := in.serve(nil); err != nil {
				t.Fatal(err)
			}

			ask := func(addr string) []string {
				c, err := server.Dial(addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				ctx := context.Background()
				h, err := c.Health(ctx)
				if err != nil {
					t.Fatal(err)
				}
				out := []string{fmt.Sprint("extracted_rows=", h.ExtractedRows, " shards=", h.Shards)}
				for class := opClass(0); class < numOps; class++ {
					p := op{class: class, city: 5, month: 4, value: 61.5}
					resp, err := c.Do(ctx, p.request(truth, 0))
					if err != nil {
						// explain has no lineage for bulk-ingested rows: the
						// refusal itself must match.
						out = append(out, class.String()+": "+err.Error())
						continue
					}
					resp.ID, resp.Elapsed = 0, 0
					b, err := json.Marshal(resp)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, class.String()+": "+string(b))
				}
				return out
			}
			want, got := ask(addr), ask(in.addr)
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("bench backend differs from RunDaemon:\n daemon: %.300s\n bench:  %.300s", want[i], got[i])
				}
			}
		})
	}
}

// isCount picks the traced run's counts: with one client and no timers
// in the engine they must repeat exactly.
func isCount(name string) bool {
	for _, p := range []string{"server.admitted", "server.served", "server.shed", "server.conflict_retries",
		"rdbms.buffer.", "rdbms.wal.", "rdbms.lock.", "rdbms.mvcc.", "rdbms.open.", "rdbms.checkpoints",
		"rdbms.disk.", "core.correction_deadlock_retries", "shard.row_skew", "shard.min_buffer_hit_rate"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestSmoke runs every workload end to end at 1/10 data size with 1 s
// windows and a 200-op traced run. No wall-clock assertions.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	charset := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var own []string
	for _, w := range workloads {
		own = append(own, w.name)
	}
	if strings.Join(names, " ") != strings.Join(own, " ") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, own)
	}
	if a, b := specNames(spec.EndToEnd), specNames(gatedMetrics); a != b {
		t.Errorf("end_to_end differs:\n BENCHMARK.json: %s\n bench:          %s", a, b)
	}
	if a, b := specNames(spec.PerLayer), specNames(layerMetrics); a != b {
		t.Errorf("per_layer differs:\n BENCHMARK.json: %s\n bench:          %s", a, b)
	}
	for i, s := range spec.EndToEnd {
		if s != gatedMetrics[i] {
			t.Errorf("end_to_end %s: BENCHMARK.json %+v, bench %+v", s.Name, s, gatedMetrics[i])
		}
	}
	for _, n := range append(strings.Fields(specNames(spec.EndToEnd)+" "+specNames(spec.PerLayer)), names...) {
		if !charset.MatchString(n) {
			t.Errorf("name %q is outside the contract's charset", n)
		}
	}

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := defaultConfig(w, 5, time.Second, t.TempDir())
			cfg.scale, cfg.warmup, cfg.clients = 0.1, 200*time.Millisecond, 2
			cfg.maxReps, cfg.tracedOps = 1, 200

			res, err := runMeasured(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: attempted %d, failed %d: %s", res.Attempted, res.Failed, res.FirstErr)
			}
			line := contractKeys(t, res.contractLine(gatedMetrics))
			if line != specNames(sortedSpecs(spec.EndToEnd)) {
				t.Errorf("untraced last line has metrics %s", line)
			}
			for _, s := range gatedMetrics {
				if v := res.Metrics[s.Name]; v.V <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", s.Name, v.V)
				}
			}

			var runs [2]*result
			for i := range runs {
				if runs[i], err = runTraced(cfg); err != nil {
					t.Fatal(err)
				}
				if runs[i].Failed != 0 {
					t.Fatalf("traced run: failed %d: %s", runs[i].Failed, runs[i].FirstErr)
				}
			}
			if line := contractKeys(t, runs[0].contractLine(layerMetrics)); line != specNames(sortedSpecs(spec.PerLayer)) {
				t.Errorf("traced last line has metrics %s", line)
			}
			for name, v := range runs[0].Metrics {
				if isCount(name) && runs[1].Metrics[name].V != v.V {
					t.Errorf("%s: %v then %v: a traced-run count must repeat exactly", name, v.V, runs[1].Metrics[name].V)
				}
			}
			if fi, err := os.Stat(filepath.Join(cfg.dir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("no trace file: %v", err)
			}
			// A layer the workload never reaches reports nothing there.
			_, sharded := runs[0].Metrics["shard.row_skew"]
			if sharded != (w.shards > 1) {
				t.Errorf("shard.* present = %v on %d engine(s)", sharded, w.shards)
			}
			if _, commits := runs[0].Metrics["rdbms.wal.syncs_per_commit"]; commits != w.has(opCorrect) {
				t.Errorf("rdbms.wal.syncs_per_commit present = %v", commits)
			}
		})
	}
}

func specNames(specs []metricSpec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, " ")
}

func sortedSpecs(specs []metricSpec) []metricSpec {
	out := append([]metricSpec(nil), specs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// contractKeys checks the last line's shape and returns its metric
// names, sorted.
func contractKeys(t *testing.T, line string) string {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil {
		t.Errorf("last line must have exactly correct, attempted, failed, metrics: %s", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s must have exactly value and unit: %v", name, m)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64, failed float64) string {
		path := filepath.Join(dir, name)
		for i, v := range ops {
			r := &result{Workload: "guided_hot", Seed: int64(i)}
			r.set("ops_per_s", "ops/s", v, 0)
			r.set("ask_p50_us", "us", 100+float64(i%2)*60, 0) // spread far above its bound
			r.extra("failed_frac", "ratio", failed, 0)
			if err := appendJSONLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", []float64{1000, 1010, 990, 1005, 995}, 0)
	slow := write("b", []float64{700, 710, 690, 705, 695}, 0.01)
	var out bytes.Buffer
	worse, err := compareFiles(&out, specPath, base, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 30% throughput loss must be reported as worse")
	}
	for _, want := range []string{`ops_per_s\s.*\sworse`, `ask_p50_us\s.*\sunresolved`, `failed_frac\s.*\sworse`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if worse, err = compareFiles(&out, specPath, base, base); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
}
