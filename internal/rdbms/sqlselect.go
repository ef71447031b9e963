package rdbms

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// readSource abstracts the row access a SELECT needs, so the same
// executor serves both strict-2PL transactions (Txn: shared locks,
// current state) and MVCC snapshots (Snap: no locks, state at the
// pinned LSN). Both read heap pages through the one read path in
// readpath.go and differ only in their visibility rule; the index paths
// rely on fetchRun resolving each candidate to the row THIS source
// considers current.
type readSource interface {
	table(name string) (*Table, error)
	ctxErr() error
	// scanWhere visits the rows of table this source sees that pass f (nil
	// = all), filtering inside the page loop; returning false stops it.
	scanWhere(table string, f *rowFilter, fn func(rid RID, t Tuple) bool) error
	IndexLookup(table, column string, key Value) ([]RID, error)
	IndexRange(table, column string, lo, hi *Value, fn func(key Value, rid RID) bool) error
	// fetchRun resolves run — candidate rids that all lie on one heap page
	// — under one pin, appending each row this source sees that passes f
	// to rows, in run order, until rows holds limit (see resolveRun).
	fetchRun(t *Table, table string, run []RID, f *rowFilter, rows []Tuple, limit int) ([]Tuple, error)
	// orderRows serves a chooseOrderPath plan: rows already in ORDER BY
	// order. ok=false declines (the executor falls back to sort paths).
	orderRows(s SelectStmt, t *Table, op *orderPath, f *rowFilter, stopAfter int) ([]Tuple, bool, error)
}

// fetchRun implements readSource for Txn: the heap bytes are current —
// callers hold the table lock taken by the index probe that produced run.
func (tx *Txn) fetchRun(t *Table, _ string, run []RID, f *rowFilter, rows []Tuple, limit int) ([]Tuple, error) {
	return resolveRun(t.Heap, visibility{}, run, f, rows, limit)
}

// orderRows implements readSource for Txn via the index-order scan.
func (tx *Txn) orderRows(s SelectStmt, t *Table, op *orderPath, f *rowFilter, stopAfter int) ([]Tuple, bool, error) {
	rows, err := tx.indexOrderRows(s, t, op, f, stopAfter)
	return rows, true, err
}

// execSelect runs a SELECT inside a strict-2PL transaction.
func (tx *Txn) execSelect(s SelectStmt) (*ResultSet, error) {
	return execSelectSrc(tx, s)
}

// execSelectSrc runs a SELECT over any readSource: access-path selection
// (index vs sequential scan), optional hash join, filtering,
// grouping/aggregation, projection, DISTINCT, ORDER BY, LIMIT/OFFSET.
//
// The base access is streaming: for single-table queries the WHERE clause
// is evaluated in the read path's page loop (readpath.go), so tuples that
// fail the filter are dropped before they are ever retained — most of
// them before they are decoded — and unordered LIMIT/OFFSET queries stop
// reading as soon as enough rows qualify.
func execSelectSrc(src readSource, s SelectStmt) (*ResultSet, error) {
	if IsGrouped(s) {
		pt, err := aggregatePartial(src, s)
		if err != nil {
			return nil, err
		}
		return FinishAggregate(pt)
	}
	t, fromName, b, f, err := bindFrom(src, s)
	if err != nil {
		return nil, err
	}
	// Ordered LIMIT queries whose single sort key is an indexed column are
	// served in index order: rows emerge already sorted, OFFSET+LIMIT stops
	// the scan early, and no sort runs at all.
	if op := chooseOrderPath(s, t, fromName, b); op != nil {
		rows, ok, err := src.orderRows(s, t, op, f, s.Offset+s.Limit)
		if err != nil {
			return nil, err
		}
		if ok {
			return presortedResult(s, b, rows, op.describe())
		}
	}

	// ORDER BY + LIMIT served by a sequential scan: push the bounded
	// top-k heap below the base scan, so rows it rejects are dropped
	// inside the scan callback instead of being retained by baseRows and
	// handed to projection. Index access paths keep the classic route
	// (they already bound the candidate set); project()'s own top-k then
	// handles them.
	if s.Join == nil && !s.Distinct && len(s.OrderBy) > 0 && s.Limit >= 0 &&
		chooseAccessPath(s.Where, t, fromName) == nil {
		rows, err := topKRows(s, b, s.Offset+s.Limit, func(emit func(Tuple) bool) error {
			return src.scanWhere(s.From, f, func(_ RID, t Tuple) bool { return emit(t) })
		})
		if err != nil {
			return nil, err
		}
		return presortedResult(s, b, rows, "seq scan "+s.From+" + top-k pushdown")
	}

	// Unordered, non-distinct queries need at most offset+limit
	// qualifying rows; anything fancier consumes the full qualifying set.
	stopAfter := -1
	if s.Join == nil && !s.Distinct && len(s.OrderBy) == 0 && s.Limit >= 0 {
		stopAfter = s.Offset + s.Limit
	}

	rows, b, plan, err := selectRows(src, s, t, fromName, b, f, stopAfter)
	if err != nil {
		return nil, err
	}
	// ORDER BY is handled inside project (keys may reference unprojected
	// columns); LIMIT/OFFSET applied last.
	out, err := project(s, b, rows)
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	ApplyOffsetLimit(out, s.Offset, s.Limit)
	out.Plan = plan
	return out, nil
}

// bindFrom resolves a SELECT's FROM table, the name its columns are
// qualified by, their binding, and the WHERE the base access applies:
// all of it with no join; with a join it may reference join columns, so
// it stays a post-join residual (nil here).
func bindFrom(src readSource, s SelectStmt) (*Table, string, *binding, *rowFilter, error) {
	t, err := src.table(s.From)
	if err != nil {
		return nil, "", nil, nil, err
	}
	fromName := s.FromAlias
	if fromName == "" {
		fromName = s.From
	}
	b := bindingForTable(&t.Schema, fromName)
	if s.Join != nil {
		return t, fromName, b, nil, nil
	}
	return t, fromName, b, newRowFilter(s.Where, b, fromName), nil
}

// selectRows produces the statement's qualifying rows: the base access
// under the pushed filter f, then the hash join and the WHERE as a
// post-join residual. It returns the rows' binding and the plan line.
func selectRows(src readSource, s SelectStmt, t *Table, fromName string, b *binding, f *rowFilter, stopAfter int) ([]Tuple, *binding, string, error) {
	rows, plan, err := baseRows(src, s, t, fromName, f, stopAfter)
	if err != nil || s.Join == nil {
		return rows, b, plan, err
	}
	rows, b, err = hashJoin(src, rows, b, s.Join)
	if err != nil {
		return nil, nil, "", err
	}
	plan += " + hash join " + s.Join.Table
	if s.Where != nil {
		filtered := rows[:0:0]
		for _, r := range rows {
			v, err := evalExpr(s.Where, b, r)
			if err != nil {
				return nil, nil, "", err
			}
			if truthy(v) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}
	return rows, b, plan, nil
}

// presortedResult finishes a query whose base rows already arrive in
// ORDER BY order (index-order scan, scan-level top-k): project without
// re-sorting, then apply OFFSET/LIMIT and the plan line.
func presortedResult(s SelectStmt, b *binding, rows []Tuple, plan string) (*ResultSet, error) {
	ordered := s
	ordered.OrderBy = nil // rows are pre-sorted; project must not re-sort
	out, err := project(ordered, b, rows)
	if err != nil {
		return nil, err
	}
	ApplyOffsetLimit(out, s.Offset, s.Limit)
	out.Plan = plan
	return out, nil
}

// ApplyOffsetLimit is a SELECT's last step: skip offset rows, then keep
// at most limit (-1 = no limit).
func ApplyOffsetLimit(out *ResultSet, offset, limit int) {
	if offset > 0 {
		if offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[offset:]
		}
	}
	if limit >= 0 && limit < len(out.Rows) {
		out.Rows = out.Rows[:limit]
	}
}

// baseRows produces the qualifying rows for the FROM table, using an index
// when a WHERE conjunct permits. Access-path choice always inspects the
// full WHERE (sargable conjuncts reference only the FROM table), while
// f — nil for joined queries, whose WHERE may reference join columns —
// is applied to each candidate under its page latch, before it is
// retained: retained rows are freshly decoded (or immutable chain
// versions), so they need no defensive copy, and rows the encoded
// matcher rejects are never decoded. stopAfter >= 0 caps retained rows.
func baseRows(src readSource, s SelectStmt, t *Table, fromName string, f *rowFilter, stopAfter int) ([]Tuple, string, error) {
	if ap := chooseAccessPath(s.Where, t, fromName); ap != nil {
		rids, err := indexCandidates(src, s.From, ap)
		if err != nil {
			return nil, "", err
		}
		rows, err := fetchCandidates(src, s.From, t, rids, f, stopAfter)
		if err != nil {
			return nil, "", err
		}
		return rows, ap.describe(), nil
	}
	var rows []Tuple
	err := src.scanWhere(s.From, f, func(_ RID, tup Tuple) bool {
		rows = append(rows, tup)
		return stopAfter < 0 || len(rows) < stopAfter
	})
	return rows, "seq scan " + s.From, err
}

// accessPath is a chosen index strategy: equality or range on one column.
type accessPath struct {
	column string
	eq     *Value
	lo, hi *Value // inclusive bounds; nil = open
}

func (ap *accessPath) describe() string {
	if ap.eq != nil {
		return "index eq scan (" + ap.column + " = " + ap.eq.String() + ")"
	}
	parts := []string{}
	if ap.lo != nil {
		parts = append(parts, fmt.Sprintf("%s >= %s", ap.column, ap.lo.String()))
	}
	if ap.hi != nil {
		parts = append(parts, fmt.Sprintf("%s <= %s", ap.column, ap.hi.String()))
	}
	return "index range scan (" + strings.Join(parts, " and ") + ")"
}

// chooseAccessPath inspects the WHERE clause's top-level conjuncts for a
// sargable predicate (col op literal) on an indexed column of the FROM
// table. Equality beats range, and among several usable equality
// predicates the one matching the fewest index entries wins (exact
// cardinality from the B+tree posting list, so `attribute = X AND
// entity = Y` fetches via the selective entity index, not the broad
// attribute one).
func chooseAccessPath(where Expr, t *Table, fromName string) *accessPath {
	if where == nil || len(t.Indexes) == 0 {
		return nil
	}
	conjuncts := SplitConjuncts(where)
	var bestEq *accessPath
	bestEqCount := 0
	var bestRange *accessPath
	for _, c := range conjuncts {
		be, ok := c.(BinaryExpr)
		if !ok {
			continue
		}
		col, lit, op, ok := sargable(be, fromName)
		if !ok {
			continue
		}
		idx, indexed := t.Indexes[col]
		if !indexed {
			continue
		}
		v := lit
		switch op {
		case "=":
			n := idx.CountKey(v)
			if bestEq == nil || n < bestEqCount {
				bestEq = &accessPath{column: col, eq: &v}
				bestEqCount = n
			}
		case ">=", ">":
			// Strict bounds are widened to inclusive; the residual filter
			// (always evaluated over fetched rows) drops boundary rows.
			if bestRange == nil {
				bestRange = &accessPath{column: col}
			}
			if bestRange.column == col && bestRange.lo == nil {
				bestRange.lo = &v
			}
		case "<=", "<":
			if bestRange == nil {
				bestRange = &accessPath{column: col}
			}
			if bestRange.column == col && bestRange.hi == nil {
				bestRange.hi = &v
			}
		}
	}
	if bestEq != nil {
		return bestEq
	}
	if bestRange != nil && bestRange.lo == nil && bestRange.hi == nil {
		return nil
	}
	return bestRange
}

// sargable matches col op literal / literal op col for the FROM table,
// returning the normalized (col, literal, op).
func sargable(be BinaryExpr, fromName string) (string, Value, string, bool) {
	switch be.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", Value{}, "", false
	}
	if cr, ok := be.Left.(ColumnRef); ok {
		if lit, ok2 := be.Right.(Literal); ok2 {
			if cr.Table == "" || cr.Table == fromName {
				return cr.Column, lit.Val, be.Op, true
			}
		}
	}
	if cr, ok := be.Right.(ColumnRef); ok {
		if lit, ok2 := be.Left.(Literal); ok2 {
			if cr.Table == "" || cr.Table == fromName {
				return cr.Column, lit.Val, flipOp(be.Op), true
			}
		}
	}
	return "", Value{}, "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// SplitConjuncts returns the top-level AND operands of e.
func SplitConjuncts(e Expr) []Expr {
	if be, ok := e.(BinaryExpr); ok && be.Op == "AND" {
		return append(SplitConjuncts(be.Left), SplitConjuncts(be.Right)...)
	}
	return []Expr{e}
}

// indexCandidates returns the candidate rids of the chosen index path, in
// index order.
func indexCandidates(src readSource, table string, ap *accessPath) ([]RID, error) {
	if ap.eq != nil {
		return src.IndexLookup(table, ap.column, *ap.eq)
	}
	var rids []RID
	err := src.IndexRange(table, ap.column, ap.lo, ap.hi, func(_ Value, rid RID) bool {
		rids = append(rids, rid)
		return true
	})
	return rids, err
}

// fetchCandidates resolves index candidates in their order, one page run
// at a time, applying the full WHERE clause (the index may cover only some
// conjuncts, and range paths treat strict bounds as inclusive) and the
// early-stop cap as it goes.
func fetchCandidates(src readSource, table string, t *Table, rids []RID, f *rowFilter, stopAfter int) ([]Tuple, error) {
	rows := make([]Tuple, 0, len(rids))
	for len(rids) > 0 && !atLimit(rows, stopAfter) {
		if err := src.ctxErr(); err != nil {
			return nil, err
		}
		n := pageRun(rids)
		var err error
		if rows, err = src.fetchRun(t, table, rids[:n], f, rows, stopAfter); err != nil {
			return nil, err
		}
		rids = rids[n:]
	}
	return rows, nil
}

// hashJoin joins rows with the join table on the equality condition,
// returning combined rows and the widened binding.
func hashJoin(src readSource, left []Tuple, lb *binding, j *JoinClause) ([]Tuple, *binding, error) {
	rt, err := src.table(j.Table)
	if err != nil {
		return nil, nil, err
	}
	rightName := j.Alias
	if rightName == "" {
		rightName = j.Table
	}
	rb := bindingForTable(&rt.Schema, rightName)

	// Decide which side of ON belongs to the right table.
	var leftKey, rightKey ColumnRef
	if _, err := rb.lookup(j.Right); err == nil {
		if _, err := lb.lookup(j.Left); err == nil {
			leftKey, rightKey = j.Left, j.Right
		}
	}
	if leftKey.Column == "" {
		if _, err := rb.lookup(j.Left); err == nil {
			if _, err := lb.lookup(j.Right); err == nil {
				leftKey, rightKey = j.Right, j.Left
			}
		}
	}
	if leftKey.Column == "" {
		return nil, nil, fmt.Errorf("rdbms: join condition %s = %s does not reference both tables", j.Left, j.Right)
	}
	li, err := lb.lookup(leftKey)
	if err != nil {
		return nil, nil, err
	}
	ri, err := rb.lookup(rightKey)
	if err != nil {
		return nil, nil, err
	}

	// Build hash table over the right side. Scan tuples are freshly
	// decoded, so they are retained without cloning.
	build := map[string][]Tuple{}
	var keyBuf []byte
	err = src.scanWhere(j.Table, nil, func(_ RID, tup Tuple) bool {
		keyBuf = appendKey(keyBuf[:0], tup[ri])
		k := string(keyBuf)
		build[k] = append(build[k], tup)
		return true
	})
	if err != nil {
		return nil, nil, err
	}

	combined := &binding{cols: append(append([]ColumnRef(nil), lb.cols...), rb.cols...)}
	var out []Tuple
	for _, l := range left {
		if l[li].IsNull() {
			continue
		}
		keyBuf = appendKey(keyBuf[:0], l[li])
		for _, r := range build[string(keyBuf)] {
			if !Equal(l[li], r[ri]) {
				continue
			}
			row := make(Tuple, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			out = append(out, row)
		}
	}
	return out, combined, nil
}

// appendKey appends a canonical, prefix-free encoding of v to dst, for use
// as a join/distinct/group hash key. Values that Compare as equal encode
// identically (int/float encode via their float64 image), and no two
// distinct tuples can collide: strings are length-prefixed, every variant
// is tagged, so concatenated keys parse unambiguously. Callers reuse dst
// across rows; the only allocation left is the map's own key copy on
// first insertion (lookups via map[string(buf)] are allocation-free).
func appendKey(dst []byte, v Value) []byte {
	if f, ok := v.AsFloat(); ok {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
		dst = append(dst, 'n')
		return append(dst, tmp[:]...)
	}
	switch v.Type {
	case TString:
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(v.S)))
		dst = append(dst, 's')
		dst = append(dst, tmp[:]...)
		return append(dst, v.S...)
	case TBool:
		if v.B {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case TNull:
		return append(dst, 'z')
	}
	return append(dst, '?')
}

// AppendTupleKey appends the concatenated key of every value in the
// tuple: the grouping and DISTINCT identity of the whole tuple.
func AppendTupleKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = appendKey(dst, v)
	}
	return dst
}

// project evaluates the select list over each row, handling * expansion
// and ORDER BY (which may reference unprojected columns). An ORDER BY with
// a LIMIT keeps only the top OFFSET+LIMIT rows in a bounded heap — and
// projects only those — instead of materializing and sorting everything.
func project(s SelectStmt, b *binding, rows []Tuple) (*ResultSet, error) {
	cols, exprs := expandSelect(s, b)
	if n, bounded := topKBound(s, len(rows)); bounded {
		var err error
		rows, err = topKRows(s, b, n, func(emit func(Tuple) bool) error {
			for _, r := range rows {
				if !emit(r) {
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else if len(s.OrderBy) > 0 {
		keyExprs := resolveKeyExprs(s, cols, exprs)
		keyed := make([]keyedRow, len(rows))
		for i, r := range rows {
			keys, err := evalAll(keyExprs, b, r)
			if err != nil {
				return nil, err
			}
			keyed[i] = keyedRow{keys: keys, row: r}
		}
		sort.SliceStable(keyed, func(i, j int) bool {
			return OrderLess(keyed[i].keys, keyed[j].keys, s.OrderBy)
		})
		rows = make([]Tuple, len(keyed))
		for i := range keyed {
			rows[i] = keyed[i].row
		}
	}
	out := &ResultSet{Columns: cols}
	for _, r := range rows {
		proj, err := evalAll(exprs, b, r)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, proj)
	}
	return out, nil
}

// evalAll evaluates each expression over the row.
func evalAll(exprs []Expr, b *binding, r Tuple) (Tuple, error) {
	out := make(Tuple, len(exprs))
	for i, e := range exprs {
		v, err := evalExpr(e, b, r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// resolveKeyExprs maps ORDER BY expressions to evaluable expressions,
// following select-list aliases (ORDER BY v where the list has `val AS
// v`).
func resolveKeyExprs(s SelectStmt, cols []string, exprs []Expr) []Expr {
	keyExprs := make([]Expr, len(s.OrderBy))
	for i, ok := range s.OrderBy {
		keyExprs[i] = ok.Expr
		if cr, isCol := ok.Expr.(ColumnRef); isCol && cr.Table == "" {
			for ci, c := range cols {
				if c == cr.Column {
					keyExprs[i] = exprs[ci]
					break
				}
			}
		}
	}
	return keyExprs
}

// topKBound reports whether ORDER BY + LIMIT can be served by the bounded
// top-k collector, and the number of rows it must retain (OFFSET+LIMIT).
// DISTINCT disqualifies it: dedup after truncation could underfill the
// limit.
func topKBound(s SelectStmt, nrows int) (int, bool) {
	if len(s.OrderBy) == 0 || s.Limit < 0 || s.Distinct {
		return 0, false
	}
	n := s.Offset + s.Limit
	return n, n < nrows
}

// topKRows runs the bounded-heap top-k over the rows feed emits — a
// slice, or a sequential scan whose WHERE filter runs in the page loop —
// evaluating only ORDER BY keys per row. Only rows the heap accepts are
// retained, so a rejected row costs no allocation beyond its transient
// decode; survivors return in ORDER BY order, ties in emission order
// (matching the stable full sort). O(n log k) time, O(k) live rows.
func topKRows(s SelectStmt, b *binding, n int, feed func(emit func(Tuple) bool) error) ([]Tuple, error) {
	if n == 0 {
		return nil, nil
	}
	cols, exprs := expandSelect(s, b)
	keyExprs := resolveKeyExprs(s, cols, exprs)
	tk := newTopK(n, s.OrderBy)
	scratch := make(Tuple, len(keyExprs))
	seq := 0
	var evalErr error
	err := feed(func(r Tuple) bool {
		for i, e := range keyExprs {
			if scratch[i], evalErr = evalExpr(e, b, r); evalErr != nil {
				return false
			}
		}
		if seq++; tk.accepts(scratch) {
			tk.add(&keyedRow{keys: slices.Clone(scratch), row: r, seq: seq})
		}
		return true
	})
	if err = cmp.Or(evalErr, err); err != nil {
		return nil, err
	}
	sorted := tk.sorted()
	out := make([]Tuple, len(sorted))
	for i, kr := range sorted {
		out[i] = kr.row
	}
	return out, nil
}

// OrderLess reports whether the key tuple a sorts before b under keys:
// incomparable pairs and equal keys fall through to the next key, and a
// full tie is "not less".
func OrderLess(a, b Tuple, keys []OrderKey) bool {
	for i, k := range keys {
		c, ok := Compare(a[i], b[i])
		if !ok {
			continue
		}
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// expandSelect resolves * and produces output column names and expressions.
func expandSelect(s SelectStmt, b *binding) ([]string, []Expr) {
	var cols []string
	var exprs []Expr
	for _, se := range s.Exprs {
		if se.Star {
			for _, c := range b.cols {
				cols = append(cols, c.Column)
				exprs = append(exprs, ColumnRef{Table: c.Table, Column: c.Column})
			}
			continue
		}
		name := se.Alias
		if name == "" {
			name = exprString(se.Expr)
		}
		cols = append(cols, name)
		exprs = append(exprs, se.Expr)
	}
	return cols, exprs
}

func distinctRows(rows []Tuple) []Tuple {
	seen := map[string]bool{}
	out := rows[:0:0]
	var keyBuf []byte
	for _, r := range rows {
		keyBuf = AppendTupleKey(keyBuf[:0], r)
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out = append(out, r)
		}
	}
	return out
}
