// Package browse implements the user layer's browsing and visualization
// modes: faceted navigation over the extracted EAV structure and simple
// text histograms — the "browsing, visualization" exploitation modes of
// the paper's DGE model, through which users refine an ill-defined
// information need before (or instead of) issuing a structured query.
package browse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Row mirrors the extracted EAV structure the user explores.
type Row struct {
	Entity    string
	Attribute string
	Qualifier string
	Value     string
	Conf      float64
}

// Facet is one navigable dimension with value counts.
type Facet struct {
	Name   string
	Values []FacetValue
}

// FacetValue is one bucket of a facet.
type FacetValue struct {
	Value string
	Count int
}

// Browser supports faceted exploration over a fixed row set with a
// refinement stack (drill down / back up). The rows matching the current
// stack are filtered once and cached until the next Refine or Back, so
// Rows and Facets on one refinement state share a single pass.
type Browser struct {
	all      []Row
	filters  []filter
	filtered []Row // the rows matching filters, valid while cached is set
	cached   bool
}

type filter struct {
	facet string
	value string
}

// New returns a browser over rows.
func New(rows []Row) *Browser {
	return &Browser{all: rows}
}

// Rows returns the rows matching the current refinement stack. The slice
// is shared by every call until the next Refine or Back: callers must not
// modify its elements (appending to it is safe).
func (b *Browser) Rows() []Row {
	if !b.cached {
		b.filtered, b.cached = b.filter(), true
	}
	return b.filtered
}

// filter computes the rows matching the current refinement stack.
func (b *Browser) filter() []Row {
	if len(b.filters) == 0 {
		return b.all[:len(b.all):len(b.all)]
	}
	var out []Row
	for _, r := range b.all {
		if b.matches(r) {
			out = append(out, r)
		}
	}
	return out
}

func (b *Browser) matches(r Row) bool {
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

// Facets computes entity/attribute/qualifier facets over the current rows,
// each sorted by descending count then value.
func (b *Browser) Facets() []Facet {
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

// Refine pushes a facet filter. Unknown facet names are an error.
func (b *Browser) Refine(facet, value string) error {
	switch facet {
	case "entity", "attribute", "qualifier":
		b.filters = append(b.filters, filter{facet: facet, value: value})
		b.cached = false
		return nil
	}
	return fmt.Errorf("browse: unknown facet %q", facet)
}

// Back pops the most recent refinement; false if the stack is empty.
func (b *Browser) Back() bool {
	if len(b.filters) == 0 {
		return false
	}
	b.filters = b.filters[:len(b.filters)-1]
	b.cached = false
	return true
}

// Path renders the current refinement stack ("entity=Madison > attribute=temperature").
func (b *Browser) Path() string {
	parts := make([]string, len(b.filters))
	for i, f := range b.filters {
		parts[i] = f.facet + "=" + f.value
	}
	return strings.Join(parts, " > ")
}

// Histogram renders a text bar chart of numeric values keyed by label —
// the paper's "visualization" mode at terminal fidelity. Bars scale to
// width characters; non-numeric values are skipped.
func Histogram(rows []Row, label func(Row) string, width int) string {
	if width <= 0 {
		width = 40
	}
	type bucket struct {
		label string
		sum   float64
		n     int
	}
	order := []string{}
	buckets := map[string]*bucket{}
	for _, r := range rows {
		v, err := strconv.ParseFloat(r.Value, 64)
		if err != nil {
			continue
		}
		l := label(r)
		bk, ok := buckets[l]
		if !ok {
			bk = &bucket{label: l}
			buckets[l] = bk
			order = append(order, l)
		}
		bk.sum += v
		bk.n++
	}
	if len(order) == 0 {
		return "(no numeric data)\n"
	}
	maxAvg := 0.0
	for _, l := range order {
		bk := buckets[l]
		if avg := bk.sum / float64(bk.n); avg > maxAvg {
			maxAvg = avg
		}
	}
	var b strings.Builder
	labelWidth := 0
	for _, l := range order {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	for _, l := range order {
		bk := buckets[l]
		avg := bk.sum / float64(bk.n)
		bar := 0
		if maxAvg > 0 {
			bar = int(avg / maxAvg * float64(width))
		}
		if bar < 0 {
			bar = 0
		}
		fmt.Fprintf(&b, "%-*s | %s %.1f\n", labelWidth, l, strings.Repeat("#", bar), avg)
	}
	return b.String()
}
