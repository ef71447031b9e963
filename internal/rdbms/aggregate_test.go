package rdbms

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// drawFinite draws a seeded multiset of finite values that holds every
// case an exact sum must survive: integers above 2^53, ints mixed with
// floats, magnitudes from subnormal to 1e308, and heavy cancellation
// (large pairs x, -x around small values). NULLs ride along.
func drawFinite(rng *rand.Rand, n int) []Value {
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	vs := []Value{
		NewInt(1<<53 + 1 + rng.Int63n(1<<40)),
		NewFloat(math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))),
		NewFloat(sign() * 1e308),
		Null(),
	}
	for len(vs) < n {
		switch rng.Intn(8) {
		case 0:
			vs = append(vs, NewInt(int64(sign())*(1<<53+rng.Int63n(1<<58))))
		case 1:
			vs = append(vs, NewInt(rng.Int63n(2001)-1000))
		case 2:
			vs = append(vs, NewFloat(rng.NormFloat64()*1e3))
		case 3:
			vs = append(vs, NewFloat(sign()*math.Float64frombits(uint64(rng.Int63n(1<<52)))))
		case 4:
			vs = append(vs, NewFloat(sign()*rng.Float64()*1e308))
		case 5:
			x := sign() * math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
			vs = append(vs, NewFloat(x), NewFloat(rng.NormFloat64()), NewFloat(-x))
		case 6:
			vs = append(vs, NewFloat(sign()*math.Ldexp(rng.Float64(), rng.Intn(2098)-1074)))
		default:
			vs = append(vs, Null())
		}
	}
	return vs
}

var aggFns = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// foldSplit adds vs, in order, into parts accumulators per function at
// the given cut points, merges them in the order given by merge, and
// returns each function's result. Some accumulators start with their
// carry counter near the flush threshold, so carries run mid-stream.
func foldSplit(t *testing.T, rng *rand.Rand, vs []Value, cuts []int, merge []int) []Value {
	t.Helper()
	var out []Value
	for _, fn := range aggFns {
		parts := make([]Accumulator, len(cuts)+1)
		for i := range parts {
			parts[i] = NewAccumulator(fn)
			if rng.Intn(2) == 0 {
				parts[i].sum.pending = sumFlush - 1 - int64(rng.Intn(3))
			}
		}
		lo := 0
		for i := range parts {
			hi := len(vs)
			if i < len(cuts) {
				hi = cuts[i]
			}
			for _, v := range vs[lo:hi] {
				parts[i].Add(v)
			}
			lo = hi
		}
		acc := parts[merge[0]]
		for _, j := range merge[1:] {
			acc.Merge(&parts[j])
		}
		v, err := acc.Result()
		if err != nil {
			v = NewString("error: " + err.Error())
		}
		out = append(out, v)
	}
	return out
}

// sameAggValue is value identity: same type and, for floats, the same bits
// (any NaN matches any NaN).
func sameAggValue(a, b Value) bool {
	if a.Type == TFloat && b.Type == TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || math.IsNaN(a.F) && math.IsNaN(b.F)
	}
	return a == b
}

func render(vs []Value) string {
	var sb strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&sb, "%s:%v ", v.Type, v)
	}
	return sb.String()
}

// exactSumOf is the oracle: the multiset's sum in math/big.Rat, rounded
// to float64 (nearest-even), or its exact integer for all-int input.
func exactSumOf(vs []Value) (*big.Rat, bool) {
	sum, allInt := new(big.Rat), true
	for _, v := range vs {
		switch v.Type {
		case TInt:
			sum.Add(sum, new(big.Rat).SetInt64(v.I))
		case TFloat:
			if r := new(big.Rat).SetFloat64(v.F); r != nil { // nil: ±Inf, NaN
				sum.Add(sum, r)
			}
			allInt = false
		}
	}
	return sum, allInt
}

// TestAccumulatorExactAndOrderIndependent: over seeded multisets, every
// permutation and every split into 1-4 merged partials gives the same
// COUNT/SUM/AVG/MIN/MAX; a SUM equals the big.Rat sum rounded to
// float64; AVG is that SUM over the count; MIN and MAX are extreme
// under Compare; and ±Inf and NaN follow IEEE rules.
func TestAccumulatorExactAndOrderIndependent(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		finite := drawFinite(rng, 20+rng.Intn(60))
		// Cancel every large value exactly: what is left is the sum of
		// the small ones, which a float64 running sum loses.
		cancelled := slices.Clone(finite)
		for _, v := range finite {
			if f, _ := v.AsFloat(); math.Abs(f) >= 1<<53 {
				cancelled = append(cancelled, NewFloat(-f))
				if v.Type == TInt {
					cancelled[len(cancelled)-1] = NewInt(-v.I)
				}
			}
		}
		// A subnormal total: tiny values beside large pairs that cancel.
		var tiny []Value
		for i := 0; i < 30; i++ {
			f := math.Float64frombits(uint64(rng.Int63n(1 << 40)))
			x := math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
			tiny = append(tiny, NewFloat(f), NewFloat(-f/3), NewFloat(x), NewFloat(-x))
		}
		ints := []Value{NewInt(math.MaxInt64), NewInt(-5), NewInt(1<<62 + rng.Int63n(1<<40)), NewInt(-(1 << 62)), NewInt(7)}
		draws := map[string][]Value{
			"finite": finite,
			"cancel": cancelled,
			"tiny":   tiny,
			"+inf":   append(slices.Clone(finite), NewFloat(math.Inf(1))),
			"-inf":   append(slices.Clone(finite), NewFloat(math.Inf(-1))),
			"±inf":   append(slices.Clone(finite), NewFloat(math.Inf(-1)), NewFloat(math.Inf(1))),
			"nan":    append(slices.Clone(finite), NewFloat(math.NaN())),
			"ints":   ints,
		}
		for name, vs := range draws {
			var want []Value
			for trial := 0; trial < 12; trial++ {
				order := slices.Clone(vs)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				nparts := 1 + rng.Intn(4)
				cuts := make([]int, nparts-1)
				for i := range cuts {
					cuts[i] = rng.Intn(len(order) + 1)
				}
				slices.Sort(cuts)
				merge := rng.Perm(nparts)
				got := foldSplit(t, rng, order, cuts, merge)
				if want == nil {
					want = got
					continue
				}
				if !slices.EqualFunc(got, want, sameAggValue) {
					t.Fatalf("seed %d %s: %d parts merged %v answer\n%s\nfirst answer\n%s", seed, name, nparts, merge, render(got), render(want))
				}
			}
			checkOracle(t, fmt.Sprintf("seed %d %s", seed, name), vs, want)
		}
	}
}

func checkOracle(t *testing.T, what string, vs []Value, got []Value) {
	t.Helper()
	count, sum, avg, lo, hi := got[0], got[1], got[2], got[3], got[4]
	var n int64
	var hasPos, hasNeg, hasNaN bool
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		n++
		if v.Type == TFloat {
			hasPos = hasPos || math.IsInf(v.F, 1)
			hasNeg = hasNeg || math.IsInf(v.F, -1)
			hasNaN = hasNaN || math.IsNaN(v.F)
		}
	}
	if count.I != n {
		t.Fatalf("%s: COUNT %v, want %d", what, count, n)
	}
	exact, allInt := exactSumOf(vs)
	switch {
	case allInt:
		i := exact.Num()
		if i.IsInt64() {
			if sum.Type != TInt || sum.I != i.Int64() {
				t.Fatalf("%s: SUM %v, want int %v", what, sum, i)
			}
		} else if sum.Type != TString || !strings.Contains(sum.S, ErrIntegerOverflow.Error()) {
			t.Fatalf("%s: SUM %v, want overflow of %v", what, sum, i)
		}
	case hasNaN || hasPos && hasNeg:
		if !math.IsNaN(sum.F) || !math.IsNaN(avg.F) {
			t.Fatalf("%s: SUM %v AVG %v, want NaN", what, sum, avg)
		}
	case hasPos || hasNeg:
		if !math.IsInf(sum.F, map[bool]int{true: 1, false: -1}[hasPos]) {
			t.Fatalf("%s: SUM %v, want the infinity", what, sum)
		}
	default:
		f, _ := exact.Float64()
		if sum.Type != TFloat || math.Float64bits(sum.F) != math.Float64bits(f) && !(f == 0 && sum.F == 0) {
			t.Fatalf("%s: SUM %v (%b), want %v (%b)", what, sum, math.Float64bits(sum.F), f, math.Float64bits(f))
		}
		if want := f / float64(n); !sameAggValue(avg, NewFloat(want)) {
			t.Fatalf("%s: AVG %v, want %v", what, avg, want)
		}
	}
	for _, v := range vs {
		if v.IsNull() || v.Type == TFloat && math.IsNaN(v.F) {
			continue
		}
		if c, _ := Compare(lo, v); c > 0 && !math.IsNaN(lo.F) {
			t.Fatalf("%s: MIN %v above %v", what, lo, v)
		}
		if c, _ := Compare(hi, v); c < 0 {
			t.Fatalf("%s: MAX %v below %v", what, hi, v)
		}
	}
}

// TestAccumulatorRoundsHalfwayCases: a sum at, above or below the
// midpoint of two float64s rounds to nearest, ties to even, with bits
// far below the 53rd deciding "above".
func TestAccumulatorRoundsHalfwayCases(t *testing.T) {
	ulp := math.Ldexp(1, -53) // half an ulp of 1
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, ulp}, 1},
		{[]float64{1, ulp, math.Ldexp(1, -200)}, 1 + 2*ulp},
		{[]float64{1, ulp, -math.Ldexp(1, -200)}, 1},
		{[]float64{1, ulp, math.Ldexp(1, -64)}, 1 + 2*ulp},
		{[]float64{1 + 2*ulp, ulp}, 1 + 4*ulp},
		{[]float64{math.MaxFloat64, math.Ldexp(1, 970)}, math.Inf(1)},
		{[]float64{math.MaxFloat64, math.Ldexp(1, 969)}, math.MaxFloat64},
		{[]float64{-math.MaxFloat64, -math.Ldexp(1, 970), math.SmallestNonzeroFloat64}, -math.MaxFloat64},
	} {
		var vs []Value
		for _, f := range c.vs {
			vs = append(vs, NewFloat(f))
		}
		got := foldSplit(t, rand.New(rand.NewSource(1)), vs, nil, []int{0})[1]
		exact, _ := exactSumOf(vs)
		if oracle, _ := exact.Float64(); got.F != c.want || oracle != c.want {
			t.Errorf("SUM%v = %v (big.Rat %v), want %v", c.vs, got.F, oracle, c.want)
		}
	}
}

// TestAccumulatorAddAllocatesNothing: Add never allocates, whatever the
// function or value type.
func TestAccumulatorAddAllocatesNothing(t *testing.T) {
	vs := drawFinite(rand.New(rand.NewSource(7)), 64)
	vs = append(vs, NewString("s"), NewFloat(math.Inf(1)), NewFloat(math.NaN()))
	for _, fn := range aggFns {
		acc := NewAccumulator(fn)
		if n := testing.AllocsPerRun(50, func() {
			for _, v := range vs {
				acc.Add(v)
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per run of Add", fn, n)
		}
	}
}

// TestAccumulatorMinMaxTies: values Compare calls equal (int 1 and float
// 1.0; ints above 2^53 that share a float64 image) resolve the same way
// in either order.
func TestAccumulatorMinMaxTies(t *testing.T) {
	for _, pair := range [][2]Value{
		{NewInt(1), NewFloat(1)},
		{NewInt(1<<53 + 1), NewFloat(1 << 53)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(5), NewString("5")},
	} {
		for _, fn := range []string{"MIN", "MAX"} {
			a, b := NewAccumulator(fn), NewAccumulator(fn)
			a.Add(pair[0])
			a.Add(pair[1])
			b.Add(pair[1])
			b.Add(pair[0])
			ra, _ := a.Result()
			rb, _ := b.Result()
			if !sameAggValue(ra, rb) {
				t.Errorf("%s%v: %v one way, %v the other", fn, pair, ra, rb)
			}
		}
	}
}

// TestAggregateIntegerSumOverflow: an integer SUM that leaves int64 is
// ErrIntegerOverflow on one engine and when two partials that each fit
// merge past it; one whose exact value fits answers in any row order.
func TestAggregateIntegerSumOverflow(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE n (k STRING, v INT)")
	mustExec(t, db, "INSERT INTO n VALUES ('a', 9223372036854775807), ('a', 1), ('b', 9223372036854775807), ('b', 1), ('b', -1)")
	if _, err := db.Exec("SELECT SUM(v) FROM n WHERE k = 'a'"); !errors.Is(err, ErrIntegerOverflow) {
		t.Fatalf("one engine: %v, want ErrIntegerOverflow", err)
	}
	if rs := mustExec(t, db, "SELECT SUM(v) FROM n WHERE k = 'b'"); rs.Rows[0][0] != NewInt(math.MaxInt64) {
		t.Fatalf("cancelling sum: %v", rs.Rows)
	}

	halves := []*DB{newTestDB(t), newTestDB(t)}
	for _, h := range halves {
		mustExec(t, h, "CREATE TABLE n (v INT)")
		mustExec(t, h, "INSERT INTO n VALUES (4611686018427387904)") // 2^62
	}
	stmt, err := ParseSQL("SELECT SUM(v) FROM n")
	if err != nil {
		t.Fatal(err)
	}
	var parts []*AggPartial
	for _, h := range halves {
		sn := h.BeginSnapshot()
		defer sn.Close()
		rs, err := sn.ExecSelect(stmt.(SelectStmt))
		if err != nil || rs.Rows[0][0] != NewInt(1<<62) {
			t.Fatalf("partial alone: %v %v", rs, err)
		}
		p, err := sn.AggregatePartial(stmt.(SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if _, err := FinishAggregate(parts...); !errors.Is(err, ErrIntegerOverflow) {
		t.Fatalf("merged partials: %v, want ErrIntegerOverflow", err)
	}
}

// TestAggregateGroupsInKeyOrder: unordered groups come out in key order,
// NULL first, whatever order their rows were stored in.
func TestAggregateGroupsInKeyOrder(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE k (g STRING, n INT)")
	mustExec(t, db, "INSERT INTO k VALUES ('b', 1), (NULL, 2), ('a', 3), ('b', 4), (NULL, 5)")
	rs := mustExec(t, db, "SELECT g, SUM(n) FROM k GROUP BY g")
	if got := fmt.Sprint(rs.Rows); got != "[(NULL, 7) (a, 3) (b, 5)]" {
		t.Fatalf("groups %s, want NULL, a, b", got)
	}
}

// TestAggregatePartialsMatchOneEngine: a table's rows split over three
// engines, each running the partial step, finish to the answer one
// engine gives over all of them, byte for byte, whatever the split and
// the insertion order.
func TestAggregatePartialsMatchOneEngine(t *testing.T) {
	const schema = "CREATE TABLE r (g STRING, h INT, x FLOAT, y INT)"
	rng := rand.New(rand.NewSource(45))
	var rows []Tuple
	for i := 0; i < 300; i++ {
		x := NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)))
		if rng.Intn(10) == 0 {
			x = Null()
		}
		rows = append(rows, Tuple{NewString(string(rune('a' + rng.Intn(7)))), NewInt(int64(rng.Intn(4))), x, NewInt(rng.Int63n(1<<50) - 1<<49)})
	}
	load := func(db *DB, rows []Tuple) {
		mustExec(t, db, schema)
		tx := db.Begin()
		for _, r := range rows {
			if _, err := tx.Insert("r", r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	one := newTestDB(t)
	load(one, rows)
	shuffled := slices.Clone(rows)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	parts := []*DB{newTestDB(t), newTestDB(t), newTestDB(t)}
	split := [][]Tuple{{}, {}, {}}
	for _, r := range shuffled {
		i := rng.Intn(3)
		split[i] = append(split[i], r)
	}
	for i, p := range parts {
		load(p, split[i])
	}
	for _, q := range []string{
		"SELECT SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x), COUNT(*), SUM(y), AVG(y) FROM r",
		"SELECT g, SUM(x), AVG(x), MIN(y), MAX(y) FROM r GROUP BY g",
		"SELECT g, h, COUNT(*), SUM(x) FROM r GROUP BY g, h",
		"SELECT g, COUNT(*) AS n FROM r GROUP BY g ORDER BY n DESC",
		"SELECT g, SUM(x) FROM r GROUP BY g HAVING COUNT(*) > 40 AND SUM(y) > 0 ORDER BY MAX(x) LIMIT 3",
		"SELECT h, COUNT(*) + 1, SUM(y) - MIN(y) FROM r GROUP BY h ORDER BY h DESC OFFSET 1",
		"SELECT DISTINCT COUNT(*) FROM r GROUP BY h",
		"SELECT SUM(x) FROM r WHERE h = 99",
		"SELECT g, AVG(x) FROM r WHERE x > 0 GROUP BY g ORDER BY AVG(x) DESC, g LIMIT 4",
	} {
		want := mustExec(t, one, q)
		stmt, err := ParseSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		var pts []*AggPartial
		for _, p := range parts {
			sn := p.BeginSnapshot()
			pt, err := sn.AggregatePartial(stmt.(SelectStmt))
			sn.Close()
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			pts = append(pts, pt)
		}
		got, err := FinishAggregate(pts...)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if fmt.Sprint(got.Columns, got.Rows) != fmt.Sprint(want.Columns, want.Rows) {
			t.Errorf("%q:\none engine %v %v\npartials   %v %v", q, want.Columns, want.Rows, got.Columns, got.Rows)
		}
	}
}
