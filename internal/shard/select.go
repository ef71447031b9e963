package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rdbms"
)

// shardExec executes one parsed SELECT against one shard (a pinned view
// or a one-shot read) and returns its result. A core.ErrClosed error
// marks the shard as a gap rather than failing the whole query. Every
// shard reads the same statement concurrently, so it must not be
// mutated.
type shardExec func(i int, sel rdbms.SelectStmt) (*rdbms.ResultSet, error)

// execSharded parses one read statement — the only parse the request
// gets — and executes it across n shards. Routing order: entity-routed
// single-shard execution (every SQL feature supported), then the
// cross-shard paths — aggregate recombination, or one merge of rows
// for ordered, unordered and DISTINCT reads. Mutations are refused.
func execSharded(ss *ShardedSystem, query string, n int, exec shardExec) (*rdbms.ResultSet, error) {
	stmt, err := rdbms.ParseSQL(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(rdbms.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrReadOnly, query)
	}

	// Entity-routed: a top-level `entity = '...'` conjunct over the
	// partitioned table pins every matching row to one shard; the
	// statement runs there as is, so every SELECT feature (HAVING,
	// aggregate arithmetic) behaves exactly like a single engine. A
	// JOIN's other side sees only that shard's rows, so the only JOIN
	// routed is extracted to extracted on entity, whose rows are
	// co-located with the pinned entity.
	if entity, routed := routedEntity(sel); routed {
		if j := sel.Join; j != nil && (j.Table != core.TableName || j.Left.Column != "entity" || j.Right.Column != "entity") {
			return nil, fmt.Errorf("%w: an entity-routed JOIN must join %s to itself on entity", ErrUnsupported, core.TableName)
		}
		owner := ss.Owner(entity)
		rs, err := exec(owner, sel)
		if err != nil && isGap(err) {
			ss.markDown(owner)
			return nil, ss.degraded([]int{owner})
		}
		return rs, err
	}

	if sel.Join != nil {
		return nil, fmt.Errorf("%w: cross-shard JOIN (add an entity filter to route it)", ErrUnsupported)
	}
	grouped := len(sel.GroupBy) > 0
	for _, se := range sel.Exprs {
		if !se.Star && rdbms.HasAggregate(se.Expr) {
			grouped = true
		}
	}
	if grouped {
		return execShardedAgg(ss, sel, n, exec)
	}
	return execShardedRows(ss, sel, n, exec)
}

// routedEntity reports whether the statement is pinned to one entity of
// the partitioned extracted table by a top-level equality conjunct.
func routedEntity(sel rdbms.SelectStmt) (string, bool) {
	if sel.From != core.TableName {
		return "", false
	}
	for _, c := range conjuncts(sel.Where) {
		be, ok := c.(rdbms.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if e, ok := entityEqSides(be.Left, be.Right); ok {
			return e, true
		}
		if e, ok := entityEqSides(be.Right, be.Left); ok {
			return e, true
		}
	}
	return "", false
}

func entityEqSides(colSide, litSide rdbms.Expr) (string, bool) {
	cr, ok := colSide.(rdbms.ColumnRef)
	if !ok || cr.Column != "entity" {
		return "", false
	}
	lit, ok := litSide.(rdbms.Literal)
	if !ok || lit.Val.Type != rdbms.TString {
		return "", false
	}
	return lit.Val.S, true
}

func conjuncts(e rdbms.Expr) []rdbms.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(rdbms.BinaryExpr); ok && be.Op == "AND" {
		return append(conjuncts(be.Left), conjuncts(be.Right)...)
	}
	return []rdbms.Expr{e}
}

// fanOut runs the (possibly rewritten) statement on every shard in
// parallel. Gaps (closed shards) come back in down; any other error
// fails the query, and so does a fan-out no shard answered. results is
// indexed by shard, nil at gaps.
func fanOut(ss *ShardedSystem, n int, sel rdbms.SelectStmt, exec shardExec) (results []*rdbms.ResultSet, down []int, err error) {
	results = make([]*rdbms.ResultSet, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exec(i, sel)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e == nil {
			continue
		}
		if !isGap(e) {
			return nil, nil, e
		}
		ss.markDown(i)
		down = append(down, i)
		results[i] = nil
	}
	if len(down) == n {
		if de := ss.degraded(down); de != nil {
			return nil, nil, de
		}
		return nil, nil, core.ErrClosed
	}
	return results, down, nil
}

// finish applies the statement's OFFSET/LIMIT to a merged result and
// attaches the degraded marker for the shards that did not answer.
func finish(ss *ShardedSystem, out *rdbms.ResultSet, sel rdbms.SelectStmt, down []int) (*rdbms.ResultSet, error) {
	rdbms.ApplyOffsetLimit(out, sel.Offset, sel.Limit)
	return out, degradedOrNil(ss.degraded(down))
}

// pushedLimit converts a global OFFSET o LIMIT l into the per-shard
// prefix bound o+l (any global survivor is within its shard's first o+l
// rows); -1 when unbounded.
func pushedLimit(sel rdbms.SelectStmt) int {
	if sel.Limit < 0 {
		return -1
	}
	return sel.Offset + sel.Limit
}

// outputColumn resolves an ORDER BY key to the output column it reads:
// a bare column name matches an output name first (the engine's alias
// rule, first match wins), else the key matches a select-list
// expression structurally. -1 when the key is not an output column, or
// when a * makes output positions unknown until execution.
func outputColumn(sel rdbms.SelectStmt, key rdbms.Expr) int {
	for _, se := range sel.Exprs {
		if se.Star {
			return -1
		}
	}
	if cr, ok := key.(rdbms.ColumnRef); ok && cr.Table == "" {
		for i, se := range sel.Exprs {
			if rdbms.SelectColumnName(se) == cr.Column {
				return i
			}
		}
	}
	for i, se := range sel.Exprs {
		if se.Expr == key {
			return i
		}
	}
	return -1
}

// rowLess orders rows by the engine's ORDER BY rule over the key
// columns at idx.
func rowLess(idx []int, keys []rdbms.OrderKey) func(a, b rdbms.Tuple) bool {
	return func(a, b rdbms.Tuple) bool {
		var ka, kb [8]rdbms.Value
		return rdbms.OrderLess(pick(ka[:0], a, idx), pick(kb[:0], b, idx), keys)
	}
}

// pick appends the row's columns at idx to dst.
func pick(dst, row rdbms.Tuple, idx []int) rdbms.Tuple {
	for _, c := range idx {
		dst = append(dst, row[c])
	}
	return dst
}

// mergeRows k-way merges per-shard streams that are each sorted under
// less: among the current heads the strictly least wins and ties go to
// the lowest shard index, which keeps each shard's own tie order. A
// less that is never true concatenates the streams shard-major.
func mergeRows(results []*rdbms.ResultSet, less func(a, b rdbms.Tuple) bool, emit func(rdbms.Tuple)) {
	cursors := make([]int, len(results))
	for {
		best := -1
		var head rdbms.Tuple
		for i, rs := range results {
			if rs == nil || cursors[i] >= len(rs.Rows) {
				continue
			}
			if row := rs.Rows[cursors[i]]; best < 0 || less(row, head) {
				best, head = i, row
			}
		}
		if best < 0 {
			return
		}
		emit(head)
		cursors[best]++
	}
}

// execShardedRows serves every non-aggregate fan-out with one merge:
//
//   - ORDER BY: each shard runs the query with the sort and a tightened
//     LIMIT pushed down and returns a sorted stream; the streams merge
//     on the ORDER BY keys. Keys that are not output columns are
//     appended to the per-shard projection under reserved aliases
//     (__k0, __k1, ...) and stripped after the merge.
//   - Unordered reads of the extracted table merge on an appended
//     entity column. The bulk-ingest stream is globally entity-sorted
//     (the cluster sorts its reduce output by key), so every shard's
//     heap holds an entity-ascending subsequence of the single-engine
//     stream, and one entity never spans two shards: the merge
//     reconstructs that stream byte-exactly, intra-entity order
//     included. Other tables are replicated or shard-local; their rows
//     concatenate shard-major.
//   - DISTINCT dedups the merged stream first-seen, matching the
//     engine's sort-then-dedup pipeline. With ORDER BY every key must
//     be an output column, since an appended key would change the
//     dedup identity. Without it the extracted table's shards ship
//     their raw (non-distinct) rows, since no shard can know which
//     duplicate is globally first, and the LIMIT cannot be pushed down:
//     l distinct rows may hide behind arbitrarily many raw ones.
func execShardedRows(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	shardSel := sel
	shardSel.Limit = pushedLimit(sel)
	shardSel.Offset = 0
	shardSel.Exprs = append([]rdbms.SelectExpr(nil), sel.Exprs...)
	// at holds each merge key's output column, or -1-j for appended
	// column j, whose position is known once a shard has answered.
	var at []int
	appendKey := func(e rdbms.Expr) int {
		j := len(shardSel.Exprs) - len(sel.Exprs)
		shardSel.Exprs = append(shardSel.Exprs, rdbms.SelectExpr{Expr: e, Alias: fmt.Sprintf("__k%d", j)})
		return -1 - j
	}
	keys, merge := sel.OrderBy, "k-way merge"
	switch {
	case len(keys) > 0:
		for _, k := range keys {
			c := outputColumn(sel, k.Expr)
			if c < 0 {
				if sel.Distinct {
					return nil, fmt.Errorf("%w: DISTINCT ORDER BY keys must be output columns", ErrUnsupported)
				}
				c = appendKey(k.Expr)
			}
			at = append(at, c)
		}
	case sel.From == core.TableName:
		entity := rdbms.ColumnRef{Column: "entity"}
		keys, merge = []rdbms.OrderKey{{Expr: entity}}, "entity merge"
		at = []int{appendKey(entity)}
		if sel.Distinct {
			shardSel.Distinct = false
			shardSel.Limit = -1
		}
	default:
		merge = "concat"
	}
	if sel.Distinct {
		merge = "distinct " + merge
	}

	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}
	// Output columns: the first answering shard's, appended keys stripped.
	var width int
	out := &rdbms.ResultSet{Plan: fmt.Sprintf("sharded fan-out(%d) + %s", n, merge)}
	for _, rs := range results {
		if rs != nil {
			width = len(rs.Columns) - (len(shardSel.Exprs) - len(sel.Exprs))
			out.Columns = rs.Columns[:width]
			break
		}
	}
	for i, c := range at {
		if c < 0 {
			at[i] = width - 1 - c
		}
	}

	less := func(a, b rdbms.Tuple) bool { return false }
	if at != nil {
		less = rowLess(at, keys)
	}
	seen := map[string]bool{}
	var kb []byte
	mergeRows(results, less, func(row rdbms.Tuple) {
		row = row[:width]
		if sel.Distinct {
			kb = rdbms.AppendTupleKey(kb[:0], row)
			if seen[string(kb)] {
				return
			}
			seen[string(kb)] = true
		}
		out.Rows = append(out.Rows, row)
	})
	return finish(ss, out, sel, down)
}

// aggPartial describes how one select-list position recombines.
type aggPartial struct {
	kind    byte // 'g' group key, 'l' literal, 'a' aggregate
	grpIdx  int  // for 'g': index into GroupBy / per-shard group columns
	lit     rdbms.Value
	fn      string // for 'a': COUNT, SUM, AVG, MIN, MAX
	partIdx int    // for 'a': index of the partial column block
}

// execShardedAgg recombines aggregates from per-shard partials
// mirroring the engine's aggState typing: COUNT sums; SUM stays an
// integer iff every shard's partial is one; AVG divides the global
// float sum by the global count; MIN/MAX compare partials (NULLs
// ignored, first shard wins ties, like first-in-scan). COUNT, MIN, MAX
// and integer SUM are exact; a float SUM or AVG adds the shards'
// partial sums in another order than one engine's scan, so it may
// differ in the last bits. Merged groups emerge sorted by group key — a
// single engine emits first-seen scan order, which no shard can observe
// globally. HAVING and aggregate arithmetic are refused; entity-routed
// queries support them.
func execShardedAgg(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	if sel.Having != nil {
		return nil, fmt.Errorf("%w: HAVING over cross-shard groups", ErrUnsupported)
	}
	if sel.Distinct {
		return nil, fmt.Errorf("%w: DISTINCT with aggregates", ErrUnsupported)
	}
	// Per-shard projection: the group-by columns first, then partial
	// blocks for each aggregate position.
	var shardExprs []rdbms.SelectExpr
	for gi, g := range sel.GroupBy {
		shardExprs = append(shardExprs, rdbms.SelectExpr{Expr: g, Alias: fmt.Sprintf("__g%d", gi)})
	}
	nGroup := len(sel.GroupBy)
	partial := func(e rdbms.Expr) {
		shardExprs = append(shardExprs, rdbms.SelectExpr{Expr: e, Alias: fmt.Sprintf("__p%d", len(shardExprs)-nGroup)})
	}
	var plans []aggPartial
	var outNames []string
	for _, se := range sel.Exprs {
		if se.Star {
			return nil, fmt.Errorf("%w: * with aggregates", ErrUnsupported)
		}
		outNames = append(outNames, rdbms.SelectColumnName(se))
		switch x := se.Expr.(type) {
		case rdbms.AggExpr:
			p := aggPartial{kind: 'a', fn: x.Func, partIdx: len(shardExprs) - nGroup}
			switch x.Func {
			case "COUNT", "SUM", "MIN", "MAX":
				partial(x)
			case "AVG":
				partial(rdbms.AggExpr{Func: "SUM", Arg: x.Arg})
				partial(rdbms.AggExpr{Func: "COUNT", Arg: x.Arg})
			default:
				return nil, fmt.Errorf("%w: aggregate %s", ErrUnsupported, x.Func)
			}
			plans = append(plans, p)
		case rdbms.ColumnRef:
			gi := -1
			for i, g := range sel.GroupBy {
				if g.Column == x.Column && (x.Table == "" || g.Table == "" || g.Table == x.Table) {
					gi = i
					break
				}
			}
			if gi < 0 {
				return nil, fmt.Errorf("shard: column %s is neither aggregated nor grouped", x)
			}
			plans = append(plans, aggPartial{kind: 'g', grpIdx: gi})
		case rdbms.Literal:
			plans = append(plans, aggPartial{kind: 'l', lit: x.Val})
		default:
			return nil, fmt.Errorf("%w: aggregate arithmetic must be entity-routed", ErrUnsupported)
		}
	}

	// ORDER BY sorts the merged output, so every key must be one of its
	// columns.
	var at []int
	for _, k := range sel.OrderBy {
		c := outputColumn(sel, k.Expr)
		if c < 0 {
			return nil, fmt.Errorf("%w: aggregate ORDER BY keys must be output columns", ErrUnsupported)
		}
		at = append(at, c)
	}

	shardSel := sel
	shardSel.Exprs = shardExprs
	shardSel.OrderBy = nil
	shardSel.Limit = -1
	shardSel.Offset = 0
	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}

	type group struct {
		keyVals  rdbms.Tuple
		partials []rdbms.Tuple // one partial row block per contributing shard, shard order
	}
	groups := map[string]*group{}
	var order []string
	var kb []byte
	for _, rs := range results {
		if rs == nil {
			continue
		}
		for _, row := range rs.Rows {
			keyVals := row[:nGroup]
			kb = rdbms.AppendTupleKey(kb[:0], keyVals)
			gr, ok := groups[string(kb)]
			if !ok {
				gr = &group{keyVals: keyVals}
				groups[string(kb)] = gr
				order = append(order, string(kb))
			}
			gr.partials = append(gr.partials, row[nGroup:])
		}
	}

	// Deterministic output order: groups sorted by key values, with
	// incomparable keys ordered by their encoding.
	asc := make([]rdbms.OrderKey, nGroup)
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := groups[order[a]].keyVals, groups[order[b]].keyVals
		if rdbms.OrderLess(ka, kb, asc) {
			return true
		}
		if rdbms.OrderLess(kb, ka, asc) {
			return false
		}
		return order[a] < order[b]
	})

	out := &rdbms.ResultSet{Columns: outNames, Plan: fmt.Sprintf("sharded fan-out(%d) + partial aggregation", n)}
	for _, k := range order {
		gr := groups[k]
		row := make(rdbms.Tuple, len(plans))
		for i, p := range plans {
			switch p.kind {
			case 'g':
				row[i] = gr.keyVals[p.grpIdx]
			case 'l':
				row[i] = p.lit
			case 'a':
				row[i] = combineAgg(p, gr.partials)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if at != nil {
		less := rowLess(at, sel.OrderBy)
		sort.SliceStable(out.Rows, func(a, b int) bool { return less(out.Rows[a], out.Rows[b]) })
	}
	return finish(ss, out, sel, down)
}

// combineAgg folds per-shard partial blocks into one global aggregate,
// mirroring aggState.result's typing rules.
func combineAgg(p aggPartial, partials []rdbms.Tuple) rdbms.Value {
	switch p.fn {
	case "COUNT":
		var total int64
		for _, blk := range partials {
			total += blk[p.partIdx].I
		}
		return rdbms.NewInt(total)
	case "SUM":
		var sumI int64
		var sumF float64
		isInt := true
		seen := false
		for _, blk := range partials {
			v := blk[p.partIdx]
			if v.IsNull() {
				continue
			}
			seen = true
			if v.Type == rdbms.TInt {
				sumI += v.I
			} else {
				isInt = false
			}
			f, _ := v.AsFloat()
			sumF += f
		}
		if !seen {
			return rdbms.Null()
		}
		if isInt {
			return rdbms.NewInt(sumI)
		}
		return rdbms.NewFloat(sumF)
	case "AVG":
		var count int64
		var sumF float64
		for _, blk := range partials {
			count += blk[p.partIdx+1].I
			if s := blk[p.partIdx]; !s.IsNull() {
				f, _ := s.AsFloat()
				sumF += f
			}
		}
		if count == 0 {
			return rdbms.Null()
		}
		return rdbms.NewFloat(sumF / float64(count))
	case "MIN", "MAX":
		best := rdbms.Null()
		for _, blk := range partials {
			v := blk[p.partIdx]
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			if c, ok := rdbms.Compare(v, best); ok {
				if (p.fn == "MIN" && c < 0) || (p.fn == "MAX" && c > 0) {
					best = v
				}
			}
		}
		return best
	}
	return rdbms.Null()
}
