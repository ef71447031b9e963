// Package cluster implements the paper's physical layer: a Map-Reduce-like
// parallel runtime over a simulated computer cluster. Workers are
// goroutine-backed "nodes"; jobs fan map tasks over input splits, shuffle
// intermediate pairs by partitioned key, and run reduce tasks per
// partition. The runtime supports worker failure injection with task
// re-execution, mirroring the fault model that makes MapReduce suitable
// for the computation-intensive IE/II workloads the paper describes.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Pair is an intermediate or final key/value pair.
type Pair struct {
	Key   string
	Value any
}

// MapFunc consumes one input item and emits intermediate pairs.
type MapFunc func(item any, emit func(key string, value any)) error

// ReduceFunc folds all values of one key into output values.
type ReduceFunc func(key string, values []any, emit func(value any)) error

// Config controls a cluster.
type Config struct {
	Workers int // number of worker nodes (default 4)
	// FailureRate is the probability (per task attempt) that a worker
	// "crashes" mid-task; the task is retried on another worker. Injected
	// deterministically from the task counter, not wall-clock randomness.
	FailureRate float64
	// MaxAttempts bounds retries per task (default 4).
	MaxAttempts int
	// StragglerEvery makes every Nth task sleep briefly, simulating slow
	// nodes (0 disables). Used by the speedup experiment to show realistic
	// scaling limits.
	StragglerEvery int
	StragglerDelay time.Duration
}

// Cluster is a simulated compute cluster.
type Cluster struct {
	cfg     Config
	taskSeq atomic.Int64

	statsMu sync.Mutex
	stats   Stats
}

// Stats counts task executions.
type Stats struct {
	MapTasks     int
	ReduceTasks  int
	Failures     int
	Retries      int
	ItemsMapped  int
	PairsShuffed int
}

// New returns a cluster with the given configuration.
func New(cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	return &Cluster{cfg: cfg}
}

// Workers returns the configured worker count.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// Stats returns a snapshot of execution counters.
func (c *Cluster) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// ErrTaskFailed reports a task that exhausted its retry budget.
var ErrTaskFailed = errors.New("cluster: task exceeded retry budget")

// simulated per-attempt failure: deterministic hash of the attempt number.
func (c *Cluster) attemptFails(taskID int64, attempt int) bool {
	if c.cfg.FailureRate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", taskID, attempt)
	x := float64(h.Sum64()%10000) / 10000.0
	return x < c.cfg.FailureRate
}

// Run executes a MapReduce job: map over inputs, shuffle into partitions,
// reduce each partition. Output pairs are returned sorted by key.
// partitions <= 0 defaults to the worker count.
func (c *Cluster) Run(inputs []any, mapper MapFunc, reducer ReduceFunc, partitions int) ([]Pair, error) {
	if partitions <= 0 {
		partitions = c.cfg.Workers
	}
	inter, err := c.mapPhase(inputs, mapper, partitions)
	if err != nil {
		return nil, err
	}
	return c.reducePhase(inter, reducer)
}

// mapPhase runs map tasks on the worker pool, partitioning emissions.
func (c *Cluster) mapPhase(inputs []any, mapper MapFunc, partitions int) ([]map[string][]any, error) {
	type task struct {
		idx  int
		item any
	}
	tasks := make(chan task, len(inputs))
	for i, in := range inputs {
		tasks <- task{i, in}
	}
	close(tasks)

	// Each worker accumulates its own partitioned output; merged after.
	workerParts := make([][]map[string][]any, c.cfg.Workers)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < c.cfg.Workers; w++ {
		parts := make([]map[string][]any, partitions)
		for p := range parts {
			parts[p] = map[string][]any{}
		}
		workerParts[w] = parts
		wg.Add(1)
		go func(w int, parts []map[string][]any) {
			defer wg.Done()
			for tk := range tasks {
				if firstErr.Load() != nil {
					return
				}
				if err := c.runMapTask(tk.idx, tk.item, mapper, parts, partitions); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w, parts)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, err.(error)
	}
	// Merge worker-local partitions.
	merged := make([]map[string][]any, partitions)
	for p := 0; p < partitions; p++ {
		merged[p] = map[string][]any{}
	}
	shuffled := 0
	for _, parts := range workerParts {
		for p, m := range parts {
			for k, vs := range m {
				merged[p][k] = append(merged[p][k], vs...)
				shuffled += len(vs)
			}
		}
	}
	c.statsMu.Lock()
	c.stats.PairsShuffed += shuffled
	c.statsMu.Unlock()
	return merged, nil
}

func (c *Cluster) runMapTask(idx int, item any, mapper MapFunc, parts []map[string][]any, partitions int) error {
	taskID := c.taskSeq.Add(1)
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if c.cfg.StragglerEvery > 0 && int(taskID)%c.cfg.StragglerEvery == 0 {
			time.Sleep(c.cfg.StragglerDelay)
		}
		if c.attemptFails(taskID, attempt) {
			c.statsMu.Lock()
			c.stats.Failures++
			c.stats.Retries++
			c.statsMu.Unlock()
			continue
		}
		// Buffer emissions so a failed attempt leaves no partial output.
		local := map[string][]any{}
		err := mapper(item, func(key string, value any) {
			local[key] = append(local[key], value)
		})
		if err != nil {
			return fmt.Errorf("cluster: map task %d: %w", idx, err)
		}
		for k, vs := range local {
			p := Partition(k, partitions)
			parts[p][k] = append(parts[p][k], vs...)
		}
		c.statsMu.Lock()
		c.stats.MapTasks++
		c.stats.ItemsMapped++
		c.statsMu.Unlock()
		return nil
	}
	return fmt.Errorf("%w: map task %d", ErrTaskFailed, idx)
}

func (c *Cluster) reducePhase(parts []map[string][]any, reducer ReduceFunc) ([]Pair, error) {
	type result struct {
		pairs []Pair
		err   error
	}
	results := make(chan result, len(parts))
	sem := make(chan struct{}, c.cfg.Workers)
	for _, part := range parts {
		part := part
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			pairs, err := c.runReducePartition(part, reducer)
			results <- result{pairs, err}
		}()
	}
	var out []Pair
	for range parts {
		r := <-results
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pairs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

func (c *Cluster) runReducePartition(part map[string][]any, reducer ReduceFunc) ([]Pair, error) {
	taskID := c.taskSeq.Add(1)
	keys := make([]string, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if c.attemptFails(taskID, attempt) {
			c.statsMu.Lock()
			c.stats.Failures++
			c.stats.Retries++
			c.statsMu.Unlock()
			continue
		}
		var pairs []Pair
		failed := false
		var taskErr error
		for _, k := range keys {
			err := reducer(k, part[k], func(v any) {
				pairs = append(pairs, Pair{Key: k, Value: v})
			})
			if err != nil {
				failed = true
				taskErr = fmt.Errorf("cluster: reduce key %q: %w", k, err)
				break
			}
		}
		if failed {
			return nil, taskErr
		}
		c.statsMu.Lock()
		c.stats.ReduceTasks++
		c.statsMu.Unlock()
		return pairs, nil
	}
	return nil, fmt.Errorf("%w: reduce partition", ErrTaskFailed)
}

func keyHash(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}

// Partition maps a shuffle key to one of n partitions with the same
// FNV-64a hash the map phase shuffles by. Exported so layers that place
// data by key (the shard router) agree with the extraction shuffle: rows
// reduced into partition p under n partitions land on shard p when the
// shard count equals the shuffle width, and are entity-contiguous either
// way. n <= 1 always yields partition 0.
func Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(keyHash(key) % uint64(n))
}

// MakespanModel parameterizes SimulateMakespan: per-task scheduling
// overhead and a serial fraction (job setup plus result merge) that does
// not parallelize — the Amdahl term that caps speedup.
type MakespanModel struct {
	PerTaskOverhead time.Duration // scheduling/dispatch cost added to every task
	SerialSetup     time.Duration // job submission, split computation
	MergePerTask    time.Duration // serial merge cost per task's output
}

// SimulateMakespan computes the wall-clock a cluster of the given worker
// count would need for tasks with the given costs, using greedy
// least-loaded list scheduling. It stands in for the paper's multi-node
// testbed: wall-clock on a host with few CPUs cannot exhibit a cluster's
// parallel speedup, while the schedule over given per-task costs can.
func SimulateMakespan(taskCosts []time.Duration, workers int, m MakespanModel) time.Duration {
	if workers < 1 {
		workers = 1
	}
	loads := make([]time.Duration, workers)
	for _, c := range taskCosts {
		// Least-loaded worker takes the next task.
		best := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		loads[best] += c + m.PerTaskOverhead
	}
	maxLoad := time.Duration(0)
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	serial := m.SerialSetup + time.Duration(len(taskCosts))*m.MergePerTask
	return serial + maxLoad
}

// MapOnly runs just a parallel map over inputs, returning one output per
// input in input order. It is the common fan-out primitive for extraction
// jobs that need no shuffle.
func MapOnly[T, R any](c *Cluster, inputs []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(inputs))
	errs := make([]error, len(inputs))
	tasks := make(chan int, len(inputs))
	for i := range inputs {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				taskID := c.taskSeq.Add(1)
				var lastErr error
				done := false
				for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
					if c.attemptFails(taskID, attempt) {
						c.statsMu.Lock()
						c.stats.Failures++
						c.stats.Retries++
						c.statsMu.Unlock()
						continue
					}
					r, err := fn(inputs[i])
					if err != nil {
						lastErr = err
						done = true
						break
					}
					out[i] = r
					c.statsMu.Lock()
					c.stats.MapTasks++
					c.statsMu.Unlock()
					done = true
					break
				}
				if !done {
					lastErr = fmt.Errorf("%w: map-only task %d", ErrTaskFailed, i)
				}
				errs[i] = lastErr
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
