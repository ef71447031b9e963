package shard

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/rdbms"
)

// shardView returns shard i's pinned view, or core.ErrClosed, which
// marks the shard as a gap rather than failing the whole query. Every
// shard reads the same statement concurrently, so it must not be
// mutated.
type shardView func(i int) (*core.View, error)

// execSharded parses one read statement — the only parse the request
// gets — and executes it across n shards. Routing order: entity-routed
// single-shard execution (every SQL feature supported), then the
// cross-shard paths — partial and final aggregation, or one merge of
// rows for ordered, unordered and DISTINCT reads. Mutations are refused.
func execSharded(ss *ShardedSystem, query string, n int, view shardView) (*rdbms.ResultSet, error) {
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
		rs, err := execOn(view, owner, sel)
		if err != nil && isGap(err) {
			ss.markDown(owner)
			return nil, ss.degraded([]int{owner})
		}
		return rs, err
	}

	if sel.Join != nil {
		return nil, fmt.Errorf("%w: cross-shard JOIN (add an entity filter to route it)", ErrUnsupported)
	}
	if rdbms.IsGrouped(sel) {
		return execShardedAgg(ss, sel, n, view)
	}
	return execShardedRows(ss, sel, n, view)
}

// execOn runs the statement on shard i's view.
func execOn(view shardView, i int, sel rdbms.SelectStmt) (*rdbms.ResultSet, error) {
	v, err := view(i)
	if err != nil {
		return nil, err
	}
	return v.ExecSelect(sel)
}

// routedEntity reports whether the statement is pinned to one entity of
// the partitioned extracted table by a top-level equality conjunct.
func routedEntity(sel rdbms.SelectStmt) (string, bool) {
	if sel.From != core.TableName {
		return "", false
	}
	for _, c := range rdbms.SplitConjuncts(sel.Where) {
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

// fanOut runs call on every shard in parallel. Gaps (closed shards) come
// back in down; any other error fails the query, and so does a fan-out
// no shard answered. results is indexed by shard, nil at gaps.
func fanOut[T any](ss *ShardedSystem, n int, call func(i int) (*T, error)) (results []*T, down []int, err error) {
	results = make([]*T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = call(i)
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
func execShardedRows(ss *ShardedSystem, sel rdbms.SelectStmt, n int, view shardView) (*rdbms.ResultSet, error) {
	// Any global survivor of OFFSET o LIMIT l is within its shard's
	// first o+l rows.
	shardSel := sel
	if shardSel.Offset = 0; sel.Limit >= 0 {
		shardSel.Limit = sel.Offset + sel.Limit
	}
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

	results, down, err := fanOut(ss, n, func(i int) (*rdbms.ResultSet, error) { return execOn(view, i, shardSel) })
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
	rdbms.ApplyOffsetLimit(out, sel.Offset, sel.Limit)
	return out, degradedOrNil(ss.degraded(down))
}

// execShardedAgg runs the engine's partial aggregation on every healthy
// shard and the engine's final step once, over their partials: shards
// ship accumulator state, never a rounded value, so a grouped statement
// answers exactly as one engine over the union of the shards' rows.
func execShardedAgg(ss *ShardedSystem, sel rdbms.SelectStmt, n int, view shardView) (*rdbms.ResultSet, error) {
	parts, down, err := fanOut(ss, n, func(i int) (*rdbms.AggPartial, error) {
		v, err := view(i)
		if err != nil {
			return nil, err
		}
		return v.AggregatePartial(sel)
	})
	if err != nil {
		return nil, err
	}
	out, err := rdbms.FinishAggregate(slices.DeleteFunc(parts, func(p *rdbms.AggPartial) bool { return p == nil })...)
	if err != nil {
		return nil, err
	}
	out.Plan = fmt.Sprintf("sharded fan-out(%d) + partial aggregation", n)
	return out, degradedOrNil(ss.degraded(down))
}
