package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/uql"
)

// The read budgets below are taken on the served corpus shape: 4,000
// cities through the daemon's set-up program (64,000 rows, a 1,316-page
// heap that is 2.6x the 512-frame pool). The figures in the comments
// were measured on a 2-core x86-64 machine with go1.24.

var budget struct {
	once sync.Once
	sys  *System
	city string
	err  error
}

func budgetSystem(t *testing.T) (*System, string) {
	t.Helper()
	budget.once.Do(func() {
		corpus, truth := synth.Generate(synth.Config{
			Seed: 1, Cities: 4000, People: 20, Filler: 30, MentionsPerPerson: 2,
		})
		budget.sys, budget.err = New(Config{Corpus: corpus, Workers: 4})
		if budget.err != nil {
			return
		}
		_, budget.err = budget.sys.Generate(context.Background(), `
			EXTRACT temperature, population, founded FROM docs USING city KIND city INTO cityfacts;
			STORE cityfacts INTO TABLE extracted;`, uql.Options{})
		budget.city = truth.Cities[17].Title
	})
	if budget.err != nil {
		t.Fatal(budget.err)
	}
	return budget.sys, budget.city
}

// statementCost runs query once through System.SQL for its buffer pins,
// then measures its allocations.
func statementCost(t *testing.T, sys *System, query string) (pins int64, allocs float64) {
	t.Helper()
	ctx := context.Background()
	run := func() {
		if _, err := sys.SQL(ctx, query); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the catalog and the pool
	before := sys.DB.BufferStats()
	run()
	after := sys.DB.BufferStats()
	pins = (after.Hits + after.Misses) - (before.Hits + before.Misses)
	return pins, testing.AllocsPerRun(3, run)
}

// TestSQLAggReadBudget: the served aggregate's 48,000 index candidates
// are read in page runs and filtered on their encoded bytes. Measured:
// 1,367 pins (1,316 heap pages; one pin per candidate, 48,000, before
// page runs) and ~26,900 allocations (252,374 when every candidate was
// decoded).
func TestSQLAggReadBudget(t *testing.T) {
	sys, _ := budgetSystem(t)
	pages := sys.DB.Table(TableName).Heap.Pages()
	pins, allocs := statementCost(t, sys,
		"SELECT COUNT(*) FROM extracted WHERE attribute = 'temperature' AND qualifier = 'March'")
	t.Logf("sql_agg: %d pins over %d heap pages, %.0f allocs", pins, pages, allocs)
	if limit := int64(pages) * 11 / 10; pins > limit {
		t.Errorf("sql_agg pinned %d pages, budget %d (1.1 x %d heap pages)", pins, limit, pages)
	}
	if allocs > 50000 {
		t.Errorf("sql_agg allocated %.0f times, budget 50,000", allocs)
	}
}

// TestSQLPointReadBudget: a point query's 16 candidates share one heap
// page, so one pin; the SELECT is parsed once. Measured: 1 pin (16
// before page runs) and 153 allocations (186 with the per-row fetch and
// the second parse).
func TestSQLPointReadBudget(t *testing.T) {
	sys, city := budgetSystem(t)
	pins, allocs := statementCost(t, sys,
		"SELECT attribute, qualifier, value FROM extracted WHERE entity = '"+city+"'")
	t.Logf("sql_point: %d pins, %.0f allocs", pins, allocs)
	if pins != 1 {
		t.Errorf("sql_point pinned %d pages, want 1", pins)
	}
	if allocs > 160 {
		t.Errorf("sql_point allocated %.0f times, budget 160", allocs)
	}
}

// TestBrowseReadBudget: a browse reads the heap once, as encoded records,
// and interns the string columns through one dictionary, so it decodes
// and allocates nothing per row. One browse + refine + Facets, measured:
// 1,316 pins (one per heap page, as before) and ~12,200 allocations
// (307,097 when every row was decoded and copied into a browse.Row).
func TestBrowseReadBudget(t *testing.T) {
	sys, _ := budgetSystem(t)
	ctx := context.Background()
	pages := sys.DB.Table(TableName).Heap.Pages()
	run := func() {
		b, err := sys.Browse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Refine("attribute", "population"); err != nil {
			t.Fatal(err)
		}
		if b.Count() == 0 || len(b.Facets()[0].Values) == 0 {
			t.Fatal("browse found no population facts")
		}
	}
	run() // warm the pool
	before := sys.DB.BufferStats()
	run()
	after := sys.DB.BufferStats()
	pins := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("browse: %d pins over %d heap pages, %.0f allocs", pins, pages, allocs)
	if limit := int64(pages) * 11 / 10; pins > limit {
		t.Errorf("browse pinned %d pages, budget %d (1.1 x %d heap pages)", pins, limit, pages)
	}
	if allocs > 20000 {
		t.Errorf("browse allocated %.0f times, budget 20,000", allocs)
	}
}
