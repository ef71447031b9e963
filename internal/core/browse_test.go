package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/browse"
	"repro/internal/rdbms"
	"repro/internal/uql"
)

// refViewBrowse is View.Browse before it read encoded records, kept as
// the reference for TestBrowseMatchesReference: a snapshot Scan that
// decodes every row and copies it into a browse.Row.
func refViewBrowse(v *View) (*browse.Browser, error) {
	var rows []browse.Row
	if t := v.s.DB.Table(TableName); t != nil && t.Indexes["entity"] != nil {
		rows = make([]browse.Row, 0, t.Indexes["entity"].Len())
	}
	err := v.snap.Scan(TableName, func(_ rdbms.RID, t rdbms.Tuple) bool {
		rows = append(rows, browse.Row{
			Entity: t[0].S, Attribute: t[1].S, Qualifier: t[2].S,
			Value: t[3].S, Conf: t[5].F,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return browse.New(rows), nil
}

// compareBrowsers drives got and want through the same random Refine and
// Back steps and requires Rows (in order), Facets, Count and Path to be
// identical after every step. Refinement values come from want's rows,
// plus the empty string and a value no row holds.
func compareBrowsers(t *testing.T, rng *rand.Rand, got, want *browse.Browser) {
	t.Helper()
	pool := map[string][]string{}
	for _, r := range want.Rows() {
		pool["entity"] = append(pool["entity"], r.Entity)
		pool["attribute"] = append(pool["attribute"], r.Attribute)
		pool["qualifier"] = append(pool["qualifier"], r.Qualifier)
	}
	facets := []string{"entity", "attribute", "qualifier"}
	check := func(step string) {
		t.Helper()
		if g, w := got.Path(), want.Path(); g != w {
			t.Fatalf("%s: Path %q, reference %q", step, g, w)
		}
		if g, w := got.Count(), len(want.Rows()); g != w {
			t.Fatalf("%s (%s): Count %d, reference %d", step, want.Path(), g, w)
		}
		if g, w := got.Rows(), want.Rows(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s (%s): Rows diverged (%d vs %d rows)", step, want.Path(), len(g), len(w))
		}
		if g, w := got.Facets(), want.Facets(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s (%s): Facets\n got %v\nwant %v", step, want.Path(), g, w)
		}
	}
	check("fresh")
	for step := 0; step < 24; step++ {
		if rng.Intn(3) == 0 {
			if g, w := got.Back(), want.Back(); g != w {
				t.Fatalf("step %d: Back %v, reference %v", step, g, w)
			}
			check(fmt.Sprintf("step %d Back", step))
			continue
		}
		facet := facets[rng.Intn(len(facets))]
		var value string
		switch n := rng.Intn(10); {
		case n == 0:
			value = ""
		case n == 1:
			value = "no such value"
		case len(pool[facet]) > 0:
			value = pool[facet][rng.Intn(len(pool[facet]))]
		}
		if err := got.Refine(facet, value); err != nil {
			t.Fatal(err)
		}
		if err := want.Refine(facet, value); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d Refine(%s, %q)", step, facet, value))
	}
}

// sameLengthDigits returns a random digit string as long as s.
func sameLengthDigits(rng *rand.Rand, s string) string {
	b := make([]byte, len(s))
	for i := range b {
		b[i] = byte('1' + rng.Intn(9))
	}
	return string(b)
}

// digitFacts returns one row per fact key whose value is all digits
// (populations and founding years): corrections to same-length digit
// strings rewrite them in place.
func digitFacts(rows []browse.Row) []browse.Row {
	var out []browse.Row
	seen := map[[3]string]bool{}
	for _, r := range rows {
		key := [3]string{r.Entity, r.Attribute, r.Qualifier}
		digits := r.Value != "" && !seen[key]
		for _, c := range r.Value {
			digits = digits && c >= '0' && c <= '9'
		}
		if digits {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// TestBrowseMatchesReference: View.Browse, built from encoded records,
// answers every refinement stack exactly as the decode-and-copy browse it
// replaced — over NULL and int values in the string and conf columns,
// rows corrected, deleted and inserted under the open View (so their
// visible versions live in version chains or only in chains), and while
// a writer keeps committing corrections beside the reads.
func TestBrowseMatchesReference(t *testing.T) {
	s, _ := newSystem(t, 30, 4, 0)
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Generate(ctx, `
		EXTRACT temperature, population, founded FROM docs USING city KIND city INTO facts;
		STORE facts INTO TABLE extracted;`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"INSERT INTO extracted VALUES (NULL, 'temperature', NULL, NULL, NULL, NULL)",
		"INSERT INTO extracted VALUES ('Nullton', NULL, 'July', '12', 12.0, 2)",
		"INSERT INTO extracted VALUES ('Nullton', 'population', '', '', NULL, 0.5)",
	} {
		if _, err := s.SQL(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// The schema's checks refuse ints in string columns, so this row goes
	// straight into the heap: an unversioned row every snapshot sees.
	if _, err := s.DB.Table(TableName).Heap.Insert(rdbms.Tuple{
		rdbms.NewInt(5), rdbms.NewString("population"), rdbms.NewInt(7),
		rdbms.NewBool(true), rdbms.Null(), rdbms.NewInt(3),
	}); err != nil {
		t.Fatal(err)
	}

	before, err := s.Browse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	facts := digitFacts(before.Rows())
	if len(facts) < 20 {
		t.Fatalf("only %d digit-valued facts", len(facts))
	}

	v, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// Committed under the View: corrections (one grows its row, which
	// moves it), deletes and inserts.
	for i, f := range facts[:6] {
		value := sameLengthDigits(rand.New(rand.NewSource(int64(i))), f.Value)
		if i == 0 {
			value = "a much longer corrected value that no longer fits in place"
		}
		if err := s.CorrectValue(ctx, "alice", f.Entity, f.Attribute, f.Qualifier, value); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range facts[6:10] {
		q := fmt.Sprintf("DELETE FROM extracted WHERE entity = '%s' AND attribute = '%s' AND qualifier = '%s'",
			f.Entity, f.Attribute, f.Qualifier)
		if _, err := s.SQL(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("INSERT INTO extracted VALUES ('Lateville %d', 'temperature', 'May', '%d', %d.0, 1.0)", i, 60+i, 60+i)
		if _, err := s.SQL(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if s.DB.Versions().Chains() == 0 {
		t.Fatal("no version chains under the View")
	}

	rng := rand.New(rand.NewSource(1))
	browseBoth := func() (got, want *browse.Browser) {
		t.Helper()
		got, err := v.Browse()
		if err != nil {
			t.Fatal(err)
		}
		want, err = refViewBrowse(v)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	for trial := 0; trial < 8; trial++ {
		got, want := browseBoth()
		compareBrowsers(t, rng, got, want)
	}

	// A writer keeps correcting facts beside the reads. Same-length digit
	// values rewrite rows in place, so the View's row order holds while
	// the new versions stay invisible to it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var written atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := facts[10+i%(len(facts)-10)]
			if err := s.CorrectValue(ctx, "bob", f.Entity, f.Attribute, f.Qualifier, sameLengthDigits(wrng, f.Value)); err != nil {
				t.Error(err)
				return
			}
			written.Add(1)
		}
	}()
	for trial := 0; trial < 8 || (written.Load() < 50 && trial < 1000); trial++ {
		got, want := browseBoth()
		compareBrowsers(t, rng, got, want)
	}
	close(stop)
	wg.Wait()
	if written.Load() == 0 {
		t.Fatal("the concurrent writer committed nothing")
	}
}
