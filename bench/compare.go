package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json, the contract between this benchmark
// and whoever judges a change with it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns groups the untraced runs of an -out file: workload ->
// metric -> one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for _, set := range []map[string]value{r.Metrics, r.Extra} {
			for name, v := range set {
				m[name] = append(m[name], v.V)
			}
		}
	}
	return out, sc.Err()
}

// quartiles are Python's statistics.quantiles(values, n=4): the
// spread the benchmark's acceptance is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), medianFloat(s), q(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles prints one row per workload x metric. A metric is
// "worse" when the candidate's median is worse than the baseline's by
// more than the metric's bound, and "unresolved" when either input's
// own run-to-run spread exceeds that bound, so the two cannot be told
// apart. It reports whether any row is worse.
func compareFiles(w io.Writer, specPath, basePath, candPath string) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readRuns(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRuns(candPath)
	if err != nil {
		return false, err
	}
	specs := append(append([]metricSpec(nil), spec.EndToEnd...), scopedMetrics...)
	fmt.Fprintf(w, "%-15s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "cand", "change", "spread", "bound", "runs", "verdict")
	for _, wl := range spec.Workloads {
		for _, s := range specs {
			a, b := base[wl.Name][s.Name], cand[wl.Name][s.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := medianFloat(a), medianFloat(b)
			change := 0.0 // positive = worse
			switch {
			case ma != 0 && s.Better == "higher":
				change = (ma - mb) / ma
			case ma != 0:
				change = (mb - ma) / ma
			case mb != ma: // a zero baseline (failed_frac): any rise is a rise
				change = 1
			}
			spread := max(relSpread(a), relSpread(b))
			verdict := "ok"
			switch {
			case s.Bound > 0 && spread > s.Bound:
				verdict = "unresolved"
			case change > s.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-15s %-20s %12s %12s %+7.1f%% %6.1f%% %6.1f%% %3d/%-3d %s\n",
				wl.Name, s.Name, formatValue(ma), formatValue(mb), 100*change, 100*spread, 100*s.Bound, len(a), len(b), verdict)
		}
	}
	return worse, nil
}
