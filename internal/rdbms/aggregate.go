package rdbms

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ErrIntegerOverflow is returned by an integer SUM whose exact value does
// not fit in an int64.
var ErrIntegerOverflow = errors.New("rdbms: integer SUM overflows int64")

// ErrNotGrouped is returned for a grouped SELECT that reads a column
// outside an aggregate which is not a GROUP BY key.
var ErrNotGrouped = errors.New("rdbms: column is neither aggregated nor grouped")

// Accumulator is the state of one aggregate function (COUNT, SUM, AVG,
// MIN or MAX) over a multiset of values. Add and Merge are commutative
// and associative, so Result does not depend on the order rows were
// added or on how they were split between merged accumulators:
//
//   - COUNT counts non-NULL values (COUNT(*) adds a non-NULL per row);
//   - SUM is exact and rounds once, to nearest-even; it is an integer
//     iff every value added was one, and ErrIntegerOverflow if that
//     integer does not fit in an int64; AVG is the float SUM / COUNT;
//   - MIN and MAX pick under valueOrder, which refines Compare into a
//     total order.
type Accumulator struct {
	fn     string
	count  int64
	nonInt bool  // a value that is not an integer was added
	best   Value // MIN/MAX so far; NULL until a value arrives
	sum    exactSum
}

// NewAccumulator returns an empty accumulator for the aggregate fn.
func NewAccumulator(fn string) Accumulator { return Accumulator{fn: fn} }

// Add folds one value in; NULL is skipped. It never allocates.
func (a *Accumulator) Add(v Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		switch v.Type {
		case TInt:
			a.sum.addInt(v.I)
		case TFloat:
			a.sum.addFloat(v.F)
			a.nonInt = true
		default:
			a.nonInt = true
		}
	case "MIN", "MAX":
		a.keep(v)
	}
}

// Merge folds b's values in, as if each had been added to a.
func (a *Accumulator) Merge(b *Accumulator) {
	a.count += b.count
	a.nonInt = a.nonInt || b.nonInt
	a.sum.merge(&b.sum)
	if !b.best.IsNull() {
		a.keep(b.best)
	}
}

func (a *Accumulator) keep(v Value) {
	if a.best.IsNull() {
		a.best = v
		return
	}
	if c := valueOrder(v, a.best); a.fn == "MIN" && c < 0 || a.fn == "MAX" && c > 0 {
		a.best = v
	}
}

// Result is the aggregate's value; SUM, AVG, MIN and MAX of no values
// are NULL.
func (a *Accumulator) Result() (Value, error) {
	switch a.fn {
	case "COUNT":
		return NewInt(a.count), nil
	case "SUM", "AVG":
		if a.count == 0 {
			return Null(), nil
		}
		if a.fn == "SUM" && !a.nonInt {
			i, ok := a.sum.int64()
			if !ok {
				return Value{}, ErrIntegerOverflow
			}
			return NewInt(i), nil
		}
		f := a.sum.float64()
		if a.fn == "AVG" {
			f /= float64(a.count)
		}
		return NewFloat(f), nil
	}
	return a.best, nil
}

// valueOrder is the total order MIN, MAX and the order of merged groups
// share: NULL first, then bools, numbers and strings (the order of their
// key-encoding tags), each ordered as Compare orders them. Numbers that
// Compare calls equal (one float64 image) still order one way: NaN below
// every number, ints before floats, ints by value, floats by bit pattern
// (so -0 and +0 differ).
func valueOrder(a, b Value) int {
	if c := cmp.Compare(orderClass[a.Type], orderClass[b.Type]); c != 0 {
		return c
	}
	switch a.Type {
	case TNull:
		return 0
	case TBool:
		c, _ := Compare(a, b)
		return c
	case TString:
		return strings.Compare(a.S, b.S)
	}
	fa, _ := a.AsFloat()
	fb, _ := b.AsFloat()
	if c := cmp.Compare(fa, fb); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c // an int before a float of the same image
	}
	if a.Type == TInt {
		return cmp.Compare(a.I, b.I)
	}
	return cmp.Compare(math.Float64bits(a.F), math.Float64bits(b.F))
}

// orderClass ranks the types for valueOrder; ints and floats share one.
var orderClass = [...]int{TNull: 0, TBool: 1, TInt: 2, TFloat: 2, TString: 3}

// exactSum is a small superaccumulator (Neal, "Fast exact summation using
// small and large superaccumulators", arXiv:1505.05571): the exact sum of
// every finite float64 and int64 added, as signed base-2^32 digits. Word
// i weighs 2^(32i-sumBias), so the words span every float64 from the
// least subnormal (2^-1074) past the largest, with room for 2^63 of them.
// An add changes at most three words by less than 2^32 each; carries
// propagate once every sumFlush adds, before any word can overflow.
// The two lowest words stay zero, so rounding never reads below word 0.
type exactSum struct {
	w       [sumWords]int64
	pending int64   // adds since the last carry propagation
	special float64 // the IEEE sum of the ±Inf and NaN added, else 0
}

const (
	sumWords = 70
	sumBias  = 1152 // the units bit is word 36's lowest
	sumFlush = 1 << 29
)

func (s *exactSum) addFloat(f float64) {
	b := math.Float64bits(f)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	switch exp {
	case 0x7ff: // ±Inf, NaN
		s.special += f
		return
	case 0: // subnormal: mant × 2^-1074
		exp = 1
	default:
		mant |= 1 << 52
	}
	pos := exp - 1075 + sumBias // weight of mant's lowest bit, biased
	i, sh := pos>>5, uint(pos&31)
	lo, hi := mant<<sh, mant>>(64-sh)
	d0, d1, d2 := int64(lo&math.MaxUint32), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	s.w[i] += d0
	s.w[i+1] += d1
	s.w[i+2] += d2
	s.tick(1)
}

func (s *exactSum) addInt(v int64) {
	s.w[sumBias/32] += int64(uint64(v) & math.MaxUint32)
	s.w[sumBias/32+1] += v >> 32
	s.tick(1)
}

func (s *exactSum) merge(b *exactSum) {
	for i := range s.w {
		s.w[i] += b.w[i]
	}
	s.special += b.special
	s.tick(b.pending + 1)
}

func (s *exactSum) tick(n int64) {
	if s.pending += n; s.pending >= sumFlush {
		carry(&s.w)
		s.pending = 0
	}
}

// carry propagates every word's excess upward: afterwards each word but
// the top one is in [0, 2^32), and the top word holds the sign.
func carry(w *[sumWords]int64) {
	for i := 0; i < sumWords-1; i++ {
		c := w[i] >> 32
		w[i] -= c << 32
		w[i+1] += c
	}
}

// magnitude returns the sum's absolute value as base-2^32 digits, each
// in [0, 2^32), and its sign.
func (s *exactSum) magnitude() (w [sumWords]int64, neg bool) {
	w = s.w
	carry(&w)
	if neg = w[sumWords-1] < 0; neg {
		for i := range w {
			w[i] = -w[i]
		}
		carry(&w)
	}
	return w, neg
}

// int64 returns an integer sum, and false if it does not fit in int64.
func (s *exactSum) int64() (int64, bool) {
	w, neg := s.magnitude()
	for _, d := range w[sumBias/32+2:] {
		if d != 0 {
			return 0, false
		}
	}
	m := uint64(w[sumBias/32+1])<<32 | uint64(w[sumBias/32])
	if neg {
		return -int64(m), m <= 1<<63
	}
	return int64(m), m <= math.MaxInt64
}

// float64 rounds the exact sum once, to nearest-even.
func (s *exactSum) float64() float64 {
	if s.special != 0 { // ±Inf, or NaN (which is != 0 too)
		return s.special
	}
	w, neg := s.magnitude()
	h := sumWords - 1
	for h >= 0 && w[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	// x: the 64 bits below the leading one, inclusive; the rest is sticky.
	x := uint64(w[h])<<32 | uint64(w[h-1])
	lz := bits.LeadingZeros64(x)
	x = x<<lz | uint64(w[h-2])>>(32-lz)
	sticky := uint64(w[h-2]) << (32 + lz)
	for i := h - 3; i >= 0 && sticky == 0; i-- {
		sticky = uint64(w[i])
	}
	e0 := 32*h - 32 - lz - sumBias // weight of x's lowest bit
	// Keep 53 bits. A subnormal total needs no fewer: it is a multiple
	// of 2^-1074, so the bits it cannot hold are zero.
	mant, rem := x>>11, x<<53
	if rem > 1<<63 || rem == 1<<63 && (sticky != 0 || mant&1 == 1) {
		mant++
	}
	f := math.Ldexp(float64(mant), e0+11)
	if neg {
		return -f
	}
	return f
}

// IsGrouped reports whether a SELECT aggregates: it has a GROUP BY, or
// an aggregate in its select list.
func IsGrouped(s SelectStmt) bool {
	return len(s.GroupBy) > 0 || slices.ContainsFunc(s.Exprs, func(se SelectExpr) bool { return !se.Star && hasAgg(se.Expr) })
}

// groupPlan is a grouped SELECT compiled against the binding b of the
// rows it reads. The partial step evaluates the GROUP BY keys and each
// distinct aggregate's argument per row; the final step runs final, the
// statement rewritten over one synthetic row per group (the key values,
// then the aggregate results) bound by synth.
type groupPlan struct {
	s     SelectStmt
	b     *binding
	aggs  []AggExpr
	args  []Expr // each aggregate's argument; COUNT(*) counts a literal
	final SelectStmt
	synth *binding
	err   error // the first column that is neither aggregated nor grouped
}

func newGroupPlan(s SelectStmt, b *binding) (*groupPlan, error) {
	p := &groupPlan{s: s, b: b, final: s, synth: &binding{}}
	for i := range s.GroupBy {
		p.synth.cols = append(p.synth.cols, ColumnRef{Column: "#g" + strconv.Itoa(i)})
	}
	cols, exprs := expandSelect(s, b)
	p.final.Exprs = make([]SelectExpr, len(exprs))
	for i, e := range exprs {
		p.final.Exprs[i] = SelectExpr{Expr: p.rewrite(e), Alias: cols[i]}
	}
	if s.Having != nil {
		p.final.Having = p.rewrite(s.Having)
	}
	p.final.OrderBy = slices.Clone(s.OrderBy)
	for i, k := range s.OrderBy {
		// A bare output column name is left for project to resolve.
		if cr, ok := k.Expr.(ColumnRef); !ok || cr.Table != "" || !slices.Contains(cols, cr.Column) {
			p.final.OrderBy[i].Expr = p.rewrite(k.Expr)
		}
	}
	return p, p.err
}

// rewrite maps an expression over a group to one over the synthetic
// row: each aggregate to its column (collected once), each column
// reference to its GROUP BY key.
func (p *groupPlan) rewrite(e Expr) Expr {
	switch x := e.(type) {
	case AggExpr:
		i := slices.Index(p.aggs, x)
		if i < 0 {
			i = len(p.aggs)
			p.aggs = append(p.aggs, x)
			p.synth.cols = append(p.synth.cols, ColumnRef{Column: "#a" + strconv.Itoa(i)})
			arg := x.Arg
			if x.Star {
				arg = Literal{Val: NewInt(1)}
			}
			p.args = append(p.args, arg)
		}
		return p.synth.cols[len(p.s.GroupBy)+i]
	case ColumnRef:
		for i, g := range p.s.GroupBy {
			if g.Column == x.Column && (x.Table == "" || g.Table == "" || g.Table == x.Table) {
				return p.synth.cols[i]
			}
		}
		if p.err == nil {
			p.err = fmt.Errorf("%w: %s", ErrNotGrouped, x)
		}
	case BinaryExpr:
		x.Left, x.Right = p.rewrite(x.Left), p.rewrite(x.Right)
		return x
	case UnaryExpr:
		x.X = p.rewrite(x.X)
		return x
	case IsNullExpr:
		x.X = p.rewrite(x.X)
		return x
	case BetweenExpr:
		x.X, x.Lo, x.Hi = p.rewrite(x.X), p.rewrite(x.Lo), p.rewrite(x.Hi)
		return x
	}
	return e
}

// newGroup returns an empty group with the key.
func (p *groupPlan) newGroup(key Tuple) *aggGroup {
	g := &aggGroup{key: key, accs: make([]Accumulator, len(p.aggs))}
	for i, a := range p.aggs {
		g.accs[i] = NewAccumulator(a.Func)
	}
	return g
}

// AggPartial is the partial step of a grouped SELECT over one source's
// rows: every group's key values and one Accumulator per distinct
// aggregate. Partials of disjoint row sets merge as their union would.
type AggPartial struct {
	plan   *groupPlan
	groups map[string]*aggGroup
	scan   string // the access path that read the rows
}

type aggGroup struct {
	key  Tuple
	accs []Accumulator
}

// keepLeastKey keeps, of the numeric keys that encode alike (ints above
// 2^53 sharing a float64 image), the least under valueOrder.
func (g *aggGroup) keepLeastKey(key Tuple) {
	for i, v := range key {
		if (v.Type == TInt || v.Type == TFloat) && valueOrder(v, g.key[i]) < 0 {
			g.key[i] = v
		}
	}
}

// aggregatePartial runs a grouped SELECT's partial step over src: each
// qualifying row folds into its group's accumulators; no group keeps a
// row.
func aggregatePartial(src readSource, s SelectStmt) (*AggPartial, error) {
	t, fromName, b, f, err := bindFrom(src, s)
	if err != nil {
		return nil, err
	}
	rows, b, plan, err := selectRows(src, s, t, fromName, b, f, -1)
	if err != nil {
		return nil, err
	}
	p, err := newGroupPlan(s, b)
	if err != nil {
		return nil, err
	}
	pt := &AggPartial{plan: p, groups: map[string]*aggGroup{}, scan: plan}
	var kb []byte
	key := make(Tuple, len(s.GroupBy))
	for _, r := range rows {
		kb = kb[:0]
		for i, k := range s.GroupBy {
			if key[i], err = evalExpr(k, b, r); err != nil {
				return nil, err
			}
			kb = appendKey(kb, key[i])
		}
		g := pt.groups[string(kb)]
		if g == nil {
			g = p.newGroup(slices.Clone(key))
			pt.groups[string(kb)] = g
		} else {
			g.keepLeastKey(key)
		}
		for i, arg := range p.args {
			v, err := evalExpr(arg, b, r)
			if err != nil {
				return nil, err
			}
			g.accs[i].Add(v)
		}
	}
	return pt, nil
}

// FinishAggregate is a grouped SELECT's final step over the partials of
// one or more sources: it merges groups by key, orders them by key value
// under valueOrder, and runs HAVING, projection, ORDER BY (stable, so
// ties keep key order), DISTINCT and OFFSET/LIMIT. It consumes the
// partials.
func FinishAggregate(parts ...*AggPartial) (*ResultSet, error) {
	p, groups := parts[0].plan, parts[0].groups
	for _, pt := range parts[1:] {
		for k, g := range pt.groups {
			m := groups[k]
			if m == nil {
				groups[k] = g
				continue
			}
			for i := range m.accs {
				m.accs[i].Merge(&g.accs[i])
			}
			m.keepLeastKey(g.key)
		}
	}
	sorted := slices.Collect(maps.Values(groups))
	if len(p.s.GroupBy) == 0 && len(sorted) == 0 {
		sorted = append(sorted, p.newGroup(nil)) // aggregates over no rows
	}
	slices.SortFunc(sorted, func(a, b *aggGroup) int { return slices.CompareFunc(a.key, b.key, valueOrder) })
	rows := make([]Tuple, 0, len(sorted))
	for _, g := range sorted {
		row := append(make(Tuple, 0, len(g.key)+len(g.accs)), g.key...)
		for i := range g.accs {
			v, err := g.accs[i].Result()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		if p.final.Having != nil {
			v, err := evalExpr(p.final.Having, p.synth, row)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		rows = append(rows, row)
	}
	out, err := project(p.final, p.synth, rows)
	if err != nil {
		return nil, err
	}
	if p.s.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	ApplyOffsetLimit(out, p.s.Offset, p.s.Limit)
	out.Plan = parts[0].scan
	return out, nil
}
