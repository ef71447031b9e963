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
