package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/server"
	"repro/internal/synth"
)

// oracle holds what synth.Truth says every answer must be, plus the
// corrections the run itself has sent.
type oracle struct {
	truth       *synth.Truth
	rowsPerCity int         // rows sql_point returns: 16 from the daemon program, 19 from bulk ingest
	popRows     int         // population rows per city (article text + infobox)
	topK        [][2]string // expected sql_topk rows (entity, value)

	// Corrections. Each (city, month) key has one writer, so its values
	// form a sequence; a read that overlapped writes may see any value
	// from the last one acknowledged before it was sent to the last one
	// sent before its reply arrived.
	mu   sync.Mutex
	hist map[int]*corrHist
}

type corrHist struct {
	vals  []float64
	acked int // index of the last acknowledged value, -1 = none yet
}

func newOracle(truth *synth.Truth, sharded bool) *oracle {
	o := &oracle{truth: truth, rowsPerCity: 16, popRows: 2, hist: map[int]*corrHist{}}
	if sharded {
		o.rowsPerCity = 19 // bulk ingest extracts every city attribute
	}
	// ORDER BY value sorts the string column, so "98024" ranks above
	// "1999999"; each city contributes popRows identical rows.
	type ev struct{ e, v string }
	all := make([]ev, 0, len(truth.Cities))
	for _, c := range truth.Cities {
		all = append(all, ev{c.Title, strconv.Itoa(c.Population)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	for _, x := range all {
		for r := 0; r < o.popRows && len(o.topK) < 10; r++ {
			o.topK = append(o.topK, [2]string{x.e, x.v})
		}
	}
	return o
}

// readBegin returns, for one key, the index a later accept starts from.
func (o *oracle) readBegin(key int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if h := o.hist[key]; h != nil {
		return h.acked
	}
	return -1
}

// accept reports whether got is a value the key may hold for a read
// that began at lo (see readBegin) and has just completed.
func (o *oracle) accept(key, lo int, got float64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.hist[key]
	if lo < 0 {
		if same(got, o.truth.Cities[key/12].MonthlyTemp[key%12]) {
			return true
		}
		lo = 0
	}
	if h == nil {
		return false
	}
	for _, v := range h.vals[lo:] {
		if same(got, v) {
			return true
		}
	}
	return false
}

func (o *oracle) writeBegin(key int, v float64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.hist[key]
	if h == nil {
		h = &corrHist{acked: -1}
		o.hist[key] = h
	}
	h.vals = append(h.vals, v)
	return len(h.vals) - 1
}

func (o *oracle) writeAck(key, idx int) {
	o.mu.Lock()
	o.hist[key].acked = idx
	o.mu.Unlock()
}

// ackedCities lists every city with an acknowledged correction: the
// restart check reads each of them back.
func (o *oracle) ackedCities() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for key, h := range o.hist {
		if h.acked >= 0 && !seen[key/12] {
			seen[key/12] = true
			out = append(out, key/12)
		}
	}
	sort.Ints(out)
	return out
}

func same(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// pending is what a reader must remember between send and reply:
// readBegin per month (ask uses only its own month).
type pending [12]int

func (o *oracle) begin(p *op) (pd pending) {
	switch p.class {
	case opAsk:
		pd[p.month] = o.readBegin(p.city*12 + p.month)
	case opSQLPoint:
		for m := range pd {
			pd[m] = o.readBegin(p.city*12 + m)
		}
	}
	return pd
}

// check validates one reply. The shape check runs on every reply; full
// adds the row-by-row comparison against the truth (the caller samples
// it 1 in 64 for the bulky classes; the cheap classes are always full).
// A wrong answer is an error, never a warning.
func (o *oracle) check(p *op, pd pending, resp *server.Response, full bool) error {
	c := &o.truth.Cities[p.city]
	switch p.class {
	case opAsk:
		g := resp.Guided
		if g == nil || len(g.Candidates) == 0 || g.Answer == nil || len(g.Answer.Rows) != 1 || len(g.Answer.Rows[0]) != 1 {
			return fmt.Errorf("ask %q: malformed answer", c.Title)
		}
		got, err := strconv.ParseFloat(g.Answer.Rows[0][0], 64)
		if err != nil || !o.accept(p.city*12+p.month, pd[p.month], got) {
			return fmt.Errorf("ask %s %s: got %q, truth %v", c.Title, synth.Months[p.month], g.Answer.Rows[0][0], c.MonthlyTemp[p.month])
		}
	case opSearch:
		if n := len(resp.Hits); n == 0 || n > 5 {
			return fmt.Errorf("search %q: %d hits", c.Name, n)
		}
		if !strings.HasPrefix(resp.Hits[0].Title, c.Name+", ") {
			return fmt.Errorf("search %q: top hit %q", c.Name, resp.Hits[0].Title)
		}
	case opSQLPoint:
		if resp.Result == nil || len(resp.Result.Rows) != o.rowsPerCity {
			return fmt.Errorf("sql_point %q: want %d rows", c.Title, o.rowsPerCity)
		}
		if full {
			return o.checkPoint(p.city, pd, resp.Result.Rows)
		}
	case opSQLAgg:
		if resp.Result == nil || len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0] != strconv.Itoa(len(o.truth.Cities)) {
			return fmt.Errorf("sql_agg %s: want %d", synth.Months[p.month], len(o.truth.Cities))
		}
	case opSQLTopK:
		if resp.Result == nil || len(resp.Result.Rows) != len(o.topK) {
			return fmt.Errorf("sql_topk: want %d rows", len(o.topK))
		}
		if full {
			for i, r := range resp.Result.Rows {
				// Equal populations may tie across cities: the value
				// sequence is fixed, the entity only where unambiguous.
				if len(r) != 2 || r[1] != o.topK[i][1] {
					return fmt.Errorf("sql_topk row %d: got %v, want %v", i, r, o.topK[i])
				}
				if tc := o.truth.CityTruth(r[0]); tc == nil || strconv.Itoa(tc.Population) != r[1] {
					return fmt.Errorf("sql_topk row %d: %v is not %s's population", i, r[1], r[0])
				}
			}
		}
	case opBrowse:
		b := resp.Browse
		if b == nil || b.Rows != o.popRows*len(o.truth.Cities) {
			return fmt.Errorf("browse: want %d rows", o.popRows*len(o.truth.Cities))
		}
		if full {
			if b.Path != "attribute=population" {
				return fmt.Errorf("browse: path %q", b.Path)
			}
			for _, f := range b.Facets {
				if f.Name == "entity" && len(f.Values) != len(o.truth.Cities) {
					return fmt.Errorf("browse: entity facet has %d values", len(f.Values))
				}
			}
		}
	case opExplain:
		if !strings.Contains(resp.Text, c.Title) {
			return fmt.Errorf("explain %q: lineage does not name the document", c.Title)
		}
	}
	return nil
}

// checkPoint compares one entity's full row set with the truth.
func (o *oracle) checkPoint(city int, pd pending, rows [][]string) error {
	c := &o.truth.Cities[city]
	months, pop, founded := 0, 0, 0
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("sql_point %q: row %v", c.Title, r)
		}
		switch r[0] {
		case "temperature":
			m := monthIndex(r[1])
			got, err := strconv.ParseFloat(r[2], 64)
			if m < 0 || err != nil || !o.accept(city*12+m, pd[m], got) {
				return fmt.Errorf("sql_point %q: temperature[%s]=%s, truth %v", c.Title, r[1], r[2], c.MonthlyTemp[max(m, 0)])
			}
			months++
		case "population":
			if r[2] != strconv.Itoa(c.Population) {
				return fmt.Errorf("sql_point %q: population %s", c.Title, r[2])
			}
			pop++
		case "founded":
			if r[2] != strconv.Itoa(c.Founded) {
				return fmt.Errorf("sql_point %q: founded %s", c.Title, r[2])
			}
			founded++
		}
	}
	if months != 12 || pop != o.popRows || founded == 0 {
		return fmt.Errorf("sql_point %q: %d months, %d population, %d founded rows", c.Title, months, pop, founded)
	}
	return nil
}

func monthIndex(name string) int {
	for i, m := range synth.Months {
		if m == name {
			return i
		}
	}
	return -1
}
