// Command bench is the repository's benchmark: four served workloads
// driven through server.Dial clients against a backend built the way
// server.RunDaemon builds it, every answer checked against synth.Truth.
// An untraced run reports the end-to-end metrics; a separate traced run
// reports, from public boundaries only, which layer spent the time.
// See README.md in this directory.
//
//	go run ./bench                                  # all workloads, both runs
//	go run ./bench -workload scan_cold -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare a.jsonl b.jsonl         # judge b against a
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload `name`, or all")
		seed         = flag.Int64("seed", 1, "seed of the corpus and of every client's op stream")
		seconds      = flag.Int("seconds", 30, "length of the measured window")
		trace        = flag.Int("trace", 2, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), 2 = both")
		out          = flag.String("out", "", "append one JSON line per run to this `file` (the input of -compare)")
		dir          = flag.String("dir", "bench/out", "`directory` for data directories (removed after the run) and trace files")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare baseline.jsonl candidate.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare baseline.jsonl candidate.jsonl"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var run []*workload
	if *workloadFlag == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := workloadByName(*workloadFlag); w != nil {
		run = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	if *seconds < 1 || *trace < 0 || *trace > 2 {
		fatal(errors.New("need -seconds >= 1 and -trace 0, 1 or 2"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	env := stampEnv(*dir)
	fmt.Printf("env: %s\n", env)

	ok := true
	for _, w := range run {
		cfg := defaultConfig(w, *seed, time.Duration(*seconds)*time.Second, *dir)
		fmt.Printf("\n== %s: %s\n   %d cities, %d engine(s), %d closed-loop clients, seed %d, warm-up %v, window %v\n",
			w.name, w.why, w.scaledCities(cfg.scale), w.shards, cfg.clients, cfg.seed, cfg.warmup, cfg.window)
		if *trace != 1 {
			ok = report(runMeasured, cfg, env, *out, gatedMetrics, scopedMetrics) && ok
		}
		if *trace != 0 {
			ok = report(runTraced, cfg, env, *out, layerMetrics, nil) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// defaultConfig is the load shape every workload gets: clients =
// min(nproc, 4), a warm-up of 5 s (a fifth of the window if shorter).
func defaultConfig(w *workload, seed int64, window time.Duration, dir string) *runConfig {
	return &runConfig{
		w: w, seed: seed, window: window, warmup: min(5*time.Second, window/5),
		scale: 1, clients: min(runtime.NumCPU(), 4), dir: dir,
		maxReps: 25, setupBudget: 6 * time.Second, restartBudget: 3 * time.Second,
	}
}

// report runs one kind of run, prints its metrics by name and unit and,
// last, the contract's JSON line. It returns false on a failed op: the
// line is still printed (correct=false) so the failure is on record.
func report(run func(*runConfig) (*result, error), cfg *runConfig, env *envStamp, out string, specs, more []metricSpec) bool {
	res, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.w.name, err))
	}
	res.Env = env
	kind := "end-to-end (tracing off)"
	if res.Trace == 1 {
		kind = fmt.Sprintf("per-layer (traced run, 1 client; spans in %s/trace-%s.jsonl)", cfg.dir, cfg.w.name)
	}
	fmt.Printf("-- %s: attempted %d, failed %d\n", kind, res.Attempted, res.Failed)
	res.print(os.Stdout, specs)
	var rest []metricSpec
	for _, s := range more {
		if _, ok := res.Extra[s.Name]; ok {
			rest = append(rest, s)
		}
	}
	res.print(os.Stdout, rest)
	printDiagnostics(res, append(specs, more...))
	if res.FirstErr != "" {
		fmt.Printf("   first failure: %s\n", res.FirstErr)
	}
	if out != "" {
		if err := appendJSONLine(out, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(res.contractLine(specs))
	return res.Correct
}

// printDiagnostics lists what a run measured beyond its named metrics
// (the deepest supported percentile, the attribution closure, ...).
func printDiagnostics(res *result, named []metricSpec) {
	known := map[string]bool{}
	for _, s := range named {
		known[s.Name] = true
	}
	var names []string
	for name := range res.Extra {
		if !known[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Extra[name]
		fmt.Printf("  (%-34s %14s %-6s)\n", name, formatValue(v.V), v.Unit)
	}
}

func appendJSONLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// envStamp records where the numbers were taken. Latencies are this
// sandbox's (page cache, cheap fsync), not a storage device's.
type envStamp struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
	Commit     string `json:"commit"`
}

func (e *envStamp) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s data-fs=%s commit=%s",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPU, e.Kernel, e.DataFS, e.Commit)
}

func stampEnv(dataDir string) *envStamp {
	e := &envStamp{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Kernel: "unknown", DataFS: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		e.DataFS = fmt.Sprintf("0x%x", st.Type) // statfs f_type magic (0xef53 ext4, 0x1021994 tmpfs, ...)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	// go run does not stamp the binary: read the checkout's HEAD.
	if head, err := os.ReadFile(".git/HEAD"); err == nil && e.Commit == "unknown" {
		e.Commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(e.Commit, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + ref); err == nil {
				e.Commit = strings.TrimSpace(string(b))
			}
		}
	}
	return e
}
