// Package browse implements the user layer's browsing mode: faceted
// navigation over the extracted EAV structure — the "browsing"
// exploitation mode of the paper's DGE model, through which users refine
// an ill-defined information need before (or instead of) issuing a
// structured query.
package browse

import (
	"cmp"
	"fmt"
	"slices"
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
// refinement stack (drill down / back up). It stores the rows by column:
// one string dictionary, a dictionary code per row for each of entity,
// attribute, qualifier and value, and the conf column. Refine resolves
// its value to a code once and filtering compares codes. The rows
// matching the current stack are selected once and cached until the next
// Refine or Back, so Rows, Count and Facets on one refinement state share
// a single pass; Rows builds Row values only for the selected rows.
type Browser struct {
	dict  []string          // code -> string
	codes map[string]uint32 // string -> code
	cols  [4][]uint32       // entity, attribute, qualifier, value codes, one per row
	conf  []float64

	filters []filter

	// The current refinement state, valid while cached is set: sel holds
	// the matching rows in order (unused when all is set: no filters),
	// rows their materialization once Rows has built it.
	cached bool
	all    bool
	sel    []uint32
	rows   []Row

	// Facets' scratch: a count per code, all zero between calls, and the
	// codes one facet touched.
	counts  []int32
	touched []uint32
}

// Column positions in Browser.cols; the first three are the facets.
const (
	colEntity = iota
	colAttribute
	colQualifier
	colValue
)

type filter struct {
	facet string
	value string
	col   int
	code  uint32
	known bool // value is in the dictionary; a filter on an unknown value matches nothing
}

// Builder assembles a Browser row by row, interning the four string
// columns through one dictionary. A value already in the dictionary
// costs no allocation, and a row whose column repeats the previous row's
// value (an entity's run of rows) skips the dictionary lookup. The zero
// Builder is ready to use.
type Builder struct {
	b    Browser
	last [4]uint32 // the previous row's codes
}

// Grow reserves room for n more rows.
func (bd *Builder) Grow(n int) {
	for i := range bd.b.cols {
		bd.b.cols[i] = slices.Grow(bd.b.cols[i], n)
	}
	bd.b.conf = slices.Grow(bd.b.conf, n)
}

// Add appends one row. Its string columns are given as bytes, which Add
// does not retain.
func (bd *Builder) Add(entity, attribute, qualifier, value []byte, conf float64) {
	bd.add(bd.code(colEntity, entity), bd.code(colAttribute, attribute),
		bd.code(colQualifier, qualifier), bd.code(colValue, value), conf)
}

// code returns s's dictionary code for column col, trying the previous
// row's value first.
func (bd *Builder) code(col int, s []byte) uint32 {
	if c := bd.last[col]; len(bd.b.conf) > 0 && string(s) == bd.b.dict[c] {
		return c
	}
	if c, ok := bd.b.codes[string(s)]; ok {
		return c
	}
	return bd.intern(string(s))
}

// codeString is code for a string that is not checked against the
// previous row.
func (bd *Builder) codeString(s string) uint32 {
	if c, ok := bd.b.codes[s]; ok {
		return c
	}
	return bd.intern(s)
}

// intern adds s, known to be absent, to the dictionary.
func (bd *Builder) intern(s string) uint32 {
	if bd.b.codes == nil {
		bd.b.codes = make(map[string]uint32)
	}
	c := uint32(len(bd.b.dict))
	bd.b.dict = append(bd.b.dict, s)
	bd.b.codes[s] = c
	return c
}

func (bd *Builder) add(e, a, q, v uint32, conf float64) {
	bd.last = [4]uint32{e, a, q, v}
	c := &bd.b.cols
	c[colEntity] = append(c[colEntity], e)
	c[colAttribute] = append(c[colAttribute], a)
	c[colQualifier] = append(c[colQualifier], q)
	c[colValue] = append(c[colValue], v)
	bd.b.conf = append(bd.b.conf, conf)
}

// Browser returns the browser over the rows added so far. The Builder
// must not be used afterwards.
func (bd *Builder) Browser() *Browser {
	b := bd.b
	bd.b = Browser{}
	return &b
}

// New returns a browser over rows.
func New(rows []Row) *Browser {
	var bd Builder
	bd.Grow(len(rows))
	for _, r := range rows {
		bd.add(bd.codeString(r.Entity), bd.codeString(r.Attribute),
			bd.codeString(r.Qualifier), bd.codeString(r.Value), r.Conf)
	}
	return bd.Browser()
}

// Merge returns one browser over the rows of parts, which are read in
// their unrefined row order and merged on ascending entity: each step
// takes the lowest head entity, a tie going to the earlier part. Each
// part's codes are remapped through the merged dictionary; no Row is
// built. Streams that are each entity-sorted merge into the entity-sorted
// union.
func Merge(parts []*Browser) *Browser {
	var bd Builder
	total := 0
	remap := make([][]uint32, len(parts))
	for i, p := range parts {
		total += len(p.conf)
		remap[i] = make([]uint32, len(p.dict))
		for c, s := range p.dict {
			remap[i][c] = bd.codeString(s)
		}
	}
	bd.Grow(total)
	cur := make([]int, len(parts))
	head := func(i int) string { return parts[i].dict[parts[i].cols[colEntity][cur[i]]] }
	for {
		best := -1
		for i, p := range parts {
			if cur[i] < len(p.conf) && (best < 0 || head(i) < head(best)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p, r, k := parts[best], remap[best], cur[best]
		bd.add(r[p.cols[colEntity][k]], r[p.cols[colAttribute][k]],
			r[p.cols[colQualifier][k]], r[p.cols[colValue][k]], p.conf[k])
		cur[best]++
	}
	return bd.Browser()
}

// selection selects the rows matching the current refinement stack, once
// per refinement state.
func (b *Browser) selection() {
	if b.cached {
		return
	}
	b.cached, b.rows = true, nil
	b.all = len(b.filters) == 0
	b.sel = b.sel[:0]
	if b.all {
		return
	}
	for _, f := range b.filters {
		if !f.known {
			return
		}
	}
	first, rest := b.filters[0], b.filters[1:]
rows:
	for i, c := range b.cols[first.col] {
		if c != first.code {
			continue
		}
		for _, f := range rest {
			if b.cols[f.col][i] != f.code {
				continue rows
			}
		}
		b.sel = append(b.sel, uint32(i))
	}
}

// Count returns how many rows match the current refinement stack.
func (b *Browser) Count() int {
	b.selection()
	if b.all {
		return len(b.conf)
	}
	return len(b.sel)
}

// Rows returns the rows matching the current refinement stack, in row
// order; nil when a refinement matches nothing. The slice is shared by
// every call until the next Refine or Back: callers must not modify its
// elements (appending to it is safe).
func (b *Browser) Rows() []Row {
	b.selection()
	if b.rows != nil || (!b.all && len(b.sel) == 0) {
		return b.rows
	}
	row := func(i int) Row {
		return Row{
			Entity:    b.dict[b.cols[colEntity][i]],
			Attribute: b.dict[b.cols[colAttribute][i]],
			Qualifier: b.dict[b.cols[colQualifier][i]],
			Value:     b.dict[b.cols[colValue][i]],
			Conf:      b.conf[i],
		}
	}
	rows := make([]Row, b.Count())
	if b.all {
		for i := range rows {
			rows[i] = row(i)
		}
	} else {
		for j, i := range b.sel {
			rows[j] = row(int(i))
		}
	}
	b.rows = rows
	return rows
}

// Facets computes entity/attribute/qualifier facets over the current rows,
// each sorted by descending count then value.
func (b *Browser) Facets() []Facet {
	b.selection()
	if len(b.counts) < len(b.dict) {
		b.counts = make([]int32, len(b.dict))
	}
	return []Facet{
		{Name: "entity", Values: b.facet(colEntity)},
		{Name: "attribute", Values: b.facet(colAttribute)},
		{Name: "qualifier", Values: b.facet(colQualifier)},
	}
}

// facet counts column col's codes over the selected rows in the dense
// counts array, then reads back only the codes it touched.
func (b *Browser) facet(col int) []FacetValue {
	codes, counts, touched := b.cols[col], b.counts, b.touched[:0]
	tally := func(c uint32) {
		if counts[c] == 0 {
			touched = append(touched, c)
		}
		counts[c]++
	}
	if b.all {
		for _, c := range codes {
			tally(c)
		}
	} else {
		for _, i := range b.sel {
			tally(codes[i])
		}
	}
	out := make([]FacetValue, 0, len(touched))
	for _, c := range touched {
		if v := b.dict[c]; v != "" {
			out = append(out, FacetValue{Value: v, Count: int(counts[c])})
		}
		counts[c] = 0
	}
	b.touched = touched
	slices.SortFunc(out, func(x, y FacetValue) int {
		if x.Count != y.Count {
			return cmp.Compare(y.Count, x.Count)
		}
		return strings.Compare(x.Value, y.Value)
	})
	return out
}

// Refine pushes a facet filter. Unknown facet names are an error.
func (b *Browser) Refine(facet, value string) error {
	var col int
	switch facet {
	case "entity":
		col = colEntity
	case "attribute":
		col = colAttribute
	case "qualifier":
		col = colQualifier
	default:
		return fmt.Errorf("browse: unknown facet %q", facet)
	}
	code, known := b.codes[value]
	b.filters = append(b.filters, filter{facet: facet, value: value, col: col, code: code, known: known})
	b.cached = false
	return nil
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
