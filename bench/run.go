package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/doc"
	"repro/internal/server"
	"repro/internal/synth"
)

// runConfig is one run of one workload. The command line fills it; the
// smoke test shrinks it.
type runConfig struct {
	w       *workload
	seed    int64
	window  time.Duration // measured window
	warmup  time.Duration // discarded lead-in
	scale   float64       // data-size multiplier (1 = the table in the README)
	clients int
	dir     string // holds data directories and trace files
	// Set-up and the restart check repeat, so setup_s and restart_s are
	// medians and not single samples: up to maxReps times, stopping once
	// the repetitions have used their time budget.
	maxReps       int
	setupBudget   time.Duration
	restartBudget time.Duration
	tracedOps     int // 0 = the workload's own count
}

const (
	maxConflictRetries = 8  // the protocol's documented client retry on a conflict reply
	fullCheckEvery     = 64 // bulky answers get the row-by-row check 1 in 64
)

func (cfg *runConfig) dataDir(tag string) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("data-%s-%d-%s", cfg.w.name, os.Getpid(), tag))
}

// world is the set-up common to both kinds of run: corpus, truth,
// oracle and a freshly built, serving backend.
type world struct {
	corpus *doc.Corpus
	truth  *synth.Truth
	oracle *oracle
	in     *instance
	dir    string
}

// setUp times corpus -> extracted table -> listener answering, again
// and again until maxReps or the budget is used, and keeps the last
// instance. wrap decorates the served backend (traced run only).
func setUp(cfg *runConfig, maxReps int, wrap func(server.Backend) server.Backend) (*world, []float64, error) {
	var times []float64
	var wd *world
	begin := time.Now()
	for i := 0; i == 0 || (i < maxReps && time.Since(begin) < cfg.setupBudget); i++ {
		if wd != nil {
			if err := wd.tearDown(); err != nil {
				return nil, nil, err
			}
		}
		dir := cfg.dataDir(fmt.Sprint("s", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		corpus, truth := genCorpus(cfg.seed, cfg.w.scaledCities(cfg.scale))
		in, err := openBackend(dir, corpus, cfg.w.shards)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := in.serve(wrap); err != nil {
			in.be.Close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		wd = &world{corpus: corpus, truth: truth, in: in, dir: dir,
			oracle: newOracle(truth, cfg.w.shards > 1)}
	}
	return wd, times, nil
}

func (wd *world) tearDown() error {
	err := wd.in.shutdown()
	if rerr := os.RemoveAll(wd.dir); err == nil {
		err = rerr
	}
	return err
}

// sample is one correct reply inside the window.
type sample struct {
	class opClass
	lat   int64 // ns, from the first send (conflict retries included)
}

type clientStats struct {
	samples   []sample
	blocks    []int64 // ns each whole, failure-free block inside the window took
	slowest   []int64 // ns the slowest read of each such block took
	attempted int
	failed    int
	retries   int
	firstErr  error
}

// doOp sends one op, retrying a conflict reply as the protocol
// documents, and validates the answer. Latency runs from the first send.
func doOp(ctx context.Context, c *server.Client, wd *world, p *op, client int, seq int) (lat time.Duration, retries int, resp *server.Response, err error) {
	req := p.request(wd.truth, client)
	pd := wd.oracle.begin(p)
	var key, idx int
	if p.class == opCorrect {
		key = p.city*12 + p.month
		idx = wd.oracle.writeBegin(key, p.value)
	}
	start := time.Now()
	for {
		resp, err = c.Do(ctx, req)
		if err == nil || !errors.Is(err, server.ErrConflict) || retries == maxConflictRetries {
			break
		}
		retries++
	}
	lat = time.Since(start)
	if err != nil {
		return lat, retries, nil, fmt.Errorf("%s: %w", p.class, err)
	}
	if p.class == opCorrect {
		wd.oracle.writeAck(key, idx)
		return lat, retries, resp, nil
	}
	full := seq%fullCheckEvery == 0
	return lat, retries, resp, wd.oracle.check(p, pd, resp, full)
}

// runClient is one closed-loop caller: it sends its next request only
// after the previous reply. An op counts when it starts at or after
// winStart and its reply arrives by winEnd.
func runClient(wd *world, cfg *runConfig, client int, winStart, winEnd time.Time, st *clientStats) {
	c, err := wd.in.dial()
	if err != nil {
		st.attempted, st.failed, st.firstErr = 1, 1, err
		return
	}
	defer c.Close()
	ctx := context.Background()
	g := newGenerator(cfg.w, cfg.seed, client, cfg.clients, len(wd.truth.Cities))
	var blockStart time.Time
	var blockSlowest int64
	blockOK := false
	for seq := 0; ; seq++ {
		start := time.Now()
		if !start.Before(winEnd) {
			return
		}
		if seq%blockOps == 0 {
			blockStart, blockSlowest, blockOK = start, 0, !start.Before(winStart)
		}
		p := g.next()
		lat, retries, _, err := doOp(ctx, c, wd, &p, client, seq)
		if err != nil {
			// A failure counts wherever it falls, warm-up included.
			st.attempted++
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			blockOK = false
			continue
		}
		end := start.Add(lat)
		if start.Before(winStart) || end.After(winEnd) {
			continue
		}
		st.attempted++
		st.retries += retries
		st.samples = append(st.samples, sample{p.class, int64(lat)})
		if p.class != opCorrect {
			blockSlowest = max(blockSlowest, int64(lat))
		}
		if blockOK && seq%blockOps == blockOps-1 {
			st.blocks = append(st.blocks, int64(end.Sub(blockStart)))
			st.slowest = append(st.slowest, blockSlowest)
		}
	}
}

func deadlockRetries(in *instance) (n int64) {
	for _, e := range in.engines() {
		n += e.Stats.Counter("core.corrections.deadlock_retries")
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runMeasured is the untraced run: set-up, warm-up, one measured window
// under cfg.clients closed-loop clients, then the restart check.
func runMeasured(cfg *runConfig) (*result, error) {
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Clients: cfg.clients}
	wd, setups, err := setUp(cfg, cfg.maxReps, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(wd.dir)
	res.set("setup_s", "s", medianFloat(setups), len(setups))

	winStart := time.Now().Add(cfg.warmup)
	winEnd := winStart.Add(cfg.window)
	stats := make([]clientStats, cfg.clients)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(wd, cfg, i, winStart, winEnd, &stats[i])
		}(i)
	}
	time.Sleep(time.Until(winStart))
	cpuStart, dlStart := cpuTime(), deadlockRetries(wd.in)
	time.Sleep(time.Until(winEnd))
	cpu, dlRetries := cpuTime()-cpuStart, deadlockRetries(wd.in)-dlStart
	wg.Wait()

	var lat [numOps][]int64
	var reads, blocks, slowest []int64
	retries := 0
	for i := range stats {
		st := &stats[i]
		res.Attempted += st.attempted
		res.Failed += st.failed
		retries += st.retries
		if st.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = st.firstErr.Error()
		}
		for _, s := range st.samples {
			lat[s.class] = append(lat[s.class], s.lat)
			if s.class != opCorrect {
				reads = append(reads, s.lat)
			}
		}
		blocks = append(blocks, st.blocks...)
		slowest = append(slowest, st.slowest...)
		st.samples = nil
	}
	okOps := len(reads) + len(lat[opCorrect])
	// Throughput is the median rate of whole blocks: every block holds
	// the exact mix, so its duration carries no mix sampling noise, and
	// the median sheds blocks a neighbour disturbed. The plain mean over
	// the window is printed beside it.
	mean := float64(okOps) / cfg.window.Seconds()
	if len(blocks) > 0 {
		res.set("ops_per_s", "ops/s", float64(cfg.clients*blockOps)/(medianInt(blocks)/1e9), len(blocks))
	} else {
		res.set("ops_per_s", "ops/s", mean, okOps)
	}
	res.extra("ops_per_s_mean", "ops/s", mean, okOps)
	if okOps > 0 {
		res.set("cpu_us_per_op", "us", us(float64(cpu))/float64(okOps), okOps)
	}
	for c := opClass(0); c < numOps; c++ {
		if !cfg.w.has(c) {
			continue
		}
		sort.Slice(lat[c], func(i, j int) bool { return lat[c][i] < lat[c][j] })
		name := c.String() + "_p50_us"
		p50 := us(float64(percentile(lat[c], 0.50)))
		switch c {
		case opAsk, opSQLPoint:
			res.set(name, "us", p50, len(lat[c]))
		default:
			res.extra(name, "us", p50, len(lat[c]))
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	// The tail is the median, over blocks, of each block's slowest read:
	// the slowest of a hundred is the block's 99th percentile, and the
	// median over blocks sheds the bursts a neighbour causes. The plain
	// percentile over the window is printed beside it.
	plain := us(float64(percentile(reads, 0.99)))
	if len(slowest) > 0 {
		res.set("read_p99_us", "us", us(medianInt(slowest)), len(slowest))
	} else {
		res.set("read_p99_us", "us", plain, len(reads))
	}
	res.extra("read_p99_window_us", "us", plain, len(reads))
	if p, v := tailPercentile(reads); p > 0 {
		res.extra(fmt.Sprintf("read_p%.6g_us", p*100), "us", us(float64(v)), len(reads))
	}
	if cfg.w.has(opCorrect) {
		res.extra("correct_p99_us", "us", us(float64(percentile(lat[opCorrect], 0.99))), len(lat[opCorrect]))
		if p, v := tailPercentile(lat[opCorrect]); p > 0 {
			res.extra(fmt.Sprintf("correct_p%.6g_us", p*100), "us", us(float64(v)), len(lat[opCorrect]))
		}
	}
	res.extra("server.conflict_retries", "count", float64(retries), 0)
	if n := len(lat[opCorrect]); n > 0 {
		// Retries core.CorrectValue absorbed before acknowledging.
		res.extra("core.deadlock_retries_per_correct", "ratio", float64(dlRetries)/float64(n), n)
	}
	if res.Attempted > 0 {
		res.extra("failed_frac", "ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	}

	// Live heap: the generator's samples are released above; what stays
	// is the program's state plus the truth the checker holds.
	lat, reads = [numOps][]int64{}, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("live_heap_mb", "MiB", float64(ms.HeapAlloc)/(1<<20), 0)

	if err := restartCheck(cfg, wd, res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// restartCheck times Close -> reopen the same directory -> listener ->
// first correct ask, with every acknowledged correction's last value
// read back before the clock stops. It repeats like set-up does; after
// the first Close it also prices the data on disk.
func restartCheck(cfg *runConfig, wd *world, res *result) error {
	if err := wd.in.stop(); err != nil {
		return err
	}
	var times []float64
	begin := time.Now()
	for i := 0; i == 0 || (i < cfg.maxReps && time.Since(begin) < cfg.restartBudget); i++ {
		start := time.Now()
		if err := wd.in.be.Close(); err != nil {
			return fmt.Errorf("restart: close: %w", err)
		}
		if i == 0 {
			rows := wd.oracle.rowsPerCity * len(wd.truth.Cities)
			data, wal, _, err := diskBytes(wd.dir)
			if err != nil {
				return err
			}
			// The data file alone: what the WAL holds after the closing
			// checkpoint is a tail awaiting truncation, and its length
			// depends on where in a segment the run happened to stop.
			res.set("disk_bytes_per_row", "bytes", float64(data)/float64(rows), rows)
			res.extra("wal_bytes_after_close", "bytes", float64(wal), 0)
		}
		in, err := openBackend(wd.dir, wd.corpus, cfg.w.shards)
		if err != nil {
			return fmt.Errorf("restart: reopen: %w", err)
		}
		wd.in = in
		if !in.reopen {
			return fmt.Errorf("restart: %s reopened empty", wd.dir)
		}
		if err := in.serve(nil); err != nil {
			return err
		}
		if err := readBack(wd); err != nil {
			res.Attempted++
			res.Failed++
			if res.FirstErr == "" {
				res.FirstErr = err.Error()
			}
		}
		times = append(times, time.Since(start).Seconds())
		if err := in.stop(); err != nil {
			return err
		}
	}
	res.set("restart_s", "s", medianFloat(times), len(times))
	return wd.in.be.Close()
}

// readBack asks one guided question of the reopened server and reads
// every corrected city's rows, all of which must match the oracle.
func readBack(wd *world) error {
	c, err := wd.in.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	cities := wd.oracle.ackedCities()
	first := op{class: opAsk, city: 0, month: 2}
	if len(cities) > 0 {
		first.city = cities[0]
	}
	if _, _, _, err := doOp(ctx, c, wd, &first, 0, 0); err != nil {
		return fmt.Errorf("restart: first ask: %w", err)
	}
	for _, city := range cities {
		p := op{class: opSQLPoint, city: city}
		if _, _, _, err := doOp(ctx, c, wd, &p, 0, 0); err != nil {
			return fmt.Errorf("restart: acknowledged correction lost: %w", err)
		}
	}
	return nil
}
