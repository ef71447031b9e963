package browse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refBrowser is the Browser before it cached its filtered rows: every
// Rows and Facets call re-filters the whole row set. It is the oracle for
// TestBrowserMatchesReference.
type refBrowser struct {
	all     []Row
	filters []filter
}

func (b *refBrowser) Rows() []Row {
	var out []Row
	for _, r := range b.all {
		if b.matches(r) {
			out = append(out, r)
		}
	}
	return out
}

func (b *refBrowser) matches(r Row) bool {
	for _, f := range b.filters {
		switch f.facet {
		case "entity":
			if r.Entity != f.value {
				return false
			}
		case "attribute":
			if r.Attribute != f.value {
				return false
			}
		case "qualifier":
			if r.Qualifier != f.value {
				return false
			}
		}
	}
	return true
}

func (b *refBrowser) Facets() []Facet {
	rows := b.Rows()
	count := func(get func(Row) string) []FacetValue {
		m := map[string]int{}
		for _, r := range rows {
			if v := get(r); v != "" {
				m[v]++
			}
		}
		out := make([]FacetValue, 0, len(m))
		for v, c := range m {
			out = append(out, FacetValue{Value: v, Count: c})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].Value < out[j].Value
		})
		return out
	}
	return []Facet{
		{Name: "entity", Values: count(func(r Row) string { return r.Entity })},
		{Name: "attribute", Values: count(func(r Row) string { return r.Attribute })},
		{Name: "qualifier", Values: count(func(r Row) string { return r.Qualifier })},
	}
}

func (b *refBrowser) Refine(facet, value string) error {
	switch facet {
	case "entity", "attribute", "qualifier":
		b.filters = append(b.filters, filter{facet: facet, value: value})
		return nil
	}
	return fmt.Errorf("browse: unknown facet %q", facet)
}

func (b *refBrowser) Back() bool {
	if len(b.filters) == 0 {
		return false
	}
	b.filters = b.filters[:len(b.filters)-1]
	return true
}

// sameRows compares row lists by content (nil and empty are equal).
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBrowserMatchesReference drives the caching Browser and the
// re-filtering reference with the same random Refine/Back/Rows/Facets
// sequences and requires identical answers at every step.
func TestBrowserMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	for trial := 0; trial < 50; trial++ {
		var rows []Row
		for i := rng.Intn(60); i > 0; i-- {
			rows = append(rows, Row{
				Entity:    pick("a", "b", "c", "d"),
				Attribute: pick("temperature", "population", ""),
				Qualifier: pick("", "May", "June"),
				Value:     fmt.Sprint(rng.Intn(100)),
			})
		}
		got, want := New(rows), &refBrowser{all: rows}
		for step := 0; step < 40; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				facet := pick("entity", "attribute", "qualifier", "bogus")
				value := pick("a", "b", "temperature", "May", "", "zzz")
				gerr, werr := got.Refine(facet, value), want.Refine(facet, value)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("trial %d step %d: Refine(%s, %s) err %v, reference %v", trial, step, facet, value, gerr, werr)
				}
			case 2:
				if g, w := got.Back(), want.Back(); g != w {
					t.Fatalf("trial %d step %d: Back %v, reference %v", trial, step, g, w)
				}
			case 3:
				if g, w := got.Rows(), want.Rows(); !sameRows(g, w) {
					t.Fatalf("trial %d step %d: Rows\n got %v\nwant %v", trial, step, g, w)
				}
			case 4:
				if g, w := got.Facets(), want.Facets(); !reflect.DeepEqual(g, w) {
					t.Fatalf("trial %d step %d: Facets\n got %v\nwant %v", trial, step, g, w)
				}
			}
		}
	}
}

// refMerge is the []Row entity merge ShardedView.Browse ran before
// Merge: a k-way merge of the row streams on ascending entity, a tie
// going to the earlier stream.
func refMerge(streams [][]Row) []Row {
	var all []Row
	cursors := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if cursors[i] >= len(s) {
				continue
			}
			if best < 0 || s[cursors[i]].Entity < streams[best][cursors[best]].Entity {
				best = i
			}
		}
		if best < 0 {
			return all
		}
		all = append(all, streams[best][cursors[best]])
		cursors[best]++
	}
}

// TestMergeMatchesReference: Merge over per-part browsers — entity-sorted
// streams sharing entities, so heads tie — answers Rows, Count and Facets
// exactly as the reference browser over the []Row merge, at every step of
// a random Refine/Back sequence.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	for trial := 0; trial < 50; trial++ {
		streams := make([][]Row, 1+rng.Intn(4))
		parts := make([]*Browser, len(streams))
		for i := range streams {
			for n := rng.Intn(30); n > 0; n-- {
				streams[i] = append(streams[i], Row{
					Entity:    pick("", "a", "b", "c", "d"),
					Attribute: pick("temperature", "population", ""),
					Qualifier: pick("", "May", "June"),
					Value:     fmt.Sprint(i, rng.Intn(5)),
					Conf:      float64(rng.Intn(3)),
				})
			}
			sort.SliceStable(streams[i], func(x, y int) bool { return streams[i][x].Entity < streams[i][y].Entity })
			parts[i] = New(streams[i])
			// Merge reads the unrefined rows.
			if err := parts[i].Refine("attribute", "population"); err != nil {
				t.Fatal(err)
			}
		}
		got, want := Merge(parts), &refBrowser{all: refMerge(streams)}
		for step := 0; step < 20; step++ {
			switch rng.Intn(3) {
			case 0:
				facet := pick("entity", "attribute", "qualifier")
				value := pick("a", "b", "temperature", "May", "", "zzz")
				if err := got.Refine(facet, value); err != nil {
					t.Fatal(err)
				}
				want.Refine(facet, value)
			case 1:
				if g, w := got.Back(), want.Back(); g != w {
					t.Fatalf("trial %d step %d: Back %v, reference %v", trial, step, g, w)
				}
			}
			if g, w := got.Rows(), want.Rows(); !sameRows(g, w) || got.Count() != len(w) {
				t.Fatalf("trial %d step %d: Rows (Count %d)\n got %v\nwant %v", trial, step, got.Count(), g, w)
			}
			if g, w := got.Facets(), want.Facets(); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d step %d: Facets\n got %v\nwant %v", trial, step, g, w)
			}
		}
	}
}
