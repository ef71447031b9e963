package rdbms

import (
	"container/heap"
	"fmt"
)

// Sorted-query machinery: a bounded top-k collector for ORDER BY + LIMIT
// (O(n log k) instead of a full O(n log n) sort) and an index-assisted
// order path that scans the sort column's B+tree in key order so LIMIT
// terminates the scan without any sort at all.
//
// Both paths reproduce exactly what the full stable sort produces,
// including tie order: the top-k collector breaks key ties by the row's
// original sequence number (what sort.SliceStable preserves), and the
// index path emits rows with equal keys in heap order (ascending RID),
// which is the base-row order a sequential scan feeds the stable sort.

// keyedRow pairs a row with its evaluated ORDER BY keys and its position
// in the pre-sort row order (the stable-sort tiebreak).
type keyedRow struct {
	keys Tuple
	row  Tuple
	seq  int
}

// keyedLess is the total order of the stable sort: ORDER BY keys first,
// original sequence among equal keys.
func keyedLess(a, b *keyedRow, keys []OrderKey) bool {
	for i, k := range keys {
		c, ok := Compare(a.keys[i], b.keys[i])
		if !ok || c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// keysLess orders two key tuples alone (no tiebreak); used to test whether
// a fresh row can displace the collector's current worst without cloning
// its keys first.
func keysLess(a, b Tuple, keys []OrderKey) bool {
	for i, k := range keys {
		c, ok := Compare(a[i], b[i])
		if !ok || c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// topK retains the n rows that sort first under the stable ORDER BY
// ordering, in O(log n) per offered row and O(n) space. The heap is a
// max-heap by keyedLess: the root is the worst retained row, displaced
// when a strictly better row arrives. A row tying the root on keys never
// displaces it (the newcomer has a larger seq, so it sorts after).
type topK struct {
	n     int
	order []OrderKey
	items []*keyedRow
}

func newTopK(n int, order []OrderKey) *topK {
	return &topK{n: n, order: order}
}

func (t *topK) Len() int { return len(t.items) }
func (t *topK) Less(i, j int) bool {
	return keyedLess(t.items[j], t.items[i], t.order) // max-heap
}
func (t *topK) Swap(i, j int) { t.items[i], t.items[j] = t.items[j], t.items[i] }
func (t *topK) Push(x any)    { t.items = append(t.items, x.(*keyedRow)) }
func (t *topK) Pop() any {
	old := t.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	t.items = old[:n-1]
	return it
}

// accepts reports whether a row with the given keys would enter the
// collector, letting callers skip cloning scratch keys for rejected rows.
func (t *topK) accepts(keys Tuple) bool {
	if len(t.items) < t.n {
		return true
	}
	return keysLess(keys, t.items[0].keys, t.order)
}

// add offers a row. The keys tuple must be owned by the caller-built
// keyedRow (not a reused scratch buffer).
func (t *topK) add(kr *keyedRow) {
	if t.n <= 0 {
		return
	}
	if len(t.items) < t.n {
		heap.Push(t, kr)
		return
	}
	if keyedLess(kr, t.items[0], t.order) {
		t.items[0] = kr
		heap.Fix(t, 0)
	}
}

// sorted drains the collector in ORDER BY order (best first).
func (t *topK) sorted() []*keyedRow {
	out := make([]*keyedRow, len(t.items))
	for i := len(t.items) - 1; i >= 0; i-- {
		out[i] = heap.Pop(t).(*keyedRow)
	}
	return out
}

// orderPath is a chosen index-order strategy: the single ORDER BY key is
// an indexed column of the FROM table, so scanning the index in key order
// yields rows already sorted and OFFSET+LIMIT stops the scan early.
// Sargable range bounds on the same column fold into the scan.
type orderPath struct {
	column string
	desc   bool
	lo, hi *Value
}

func (op *orderPath) describe() string {
	d := "index order scan (" + op.column
	if op.desc {
		d += " desc"
	}
	return d + ")"
}

// chooseOrderPath decides whether a SELECT can be served in index order.
// Requirements: single-table, ungrouped, non-distinct, a LIMIT to bound
// the scan, exactly one ORDER BY key that resolves (through select-list
// aliases) to an indexed column of the FROM table. A usable equality
// access path wins instead — it fetches a small posting list and the
// bounded top-k sort handles ordering — but a range access path on the
// sort column folds its bounds into the order scan.
func chooseOrderPath(s SelectStmt, t *Table, fromName string, b *binding) *orderPath {
	if s.Join != nil || s.Distinct || s.Limit < 0 ||
		len(s.OrderBy) != 1 || len(t.Indexes) == 0 {
		return nil
	}
	cr, ok := resolveOrderColumn(s.OrderBy[0].Expr, s, b)
	if !ok || (cr.Table != "" && cr.Table != fromName) {
		return nil
	}
	if _, indexed := t.Indexes[cr.Column]; !indexed {
		return nil
	}
	op := &orderPath{column: cr.Column, desc: s.OrderBy[0].Desc}
	if ap := chooseAccessPath(s.Where, t, fromName); ap != nil {
		if ap.column != op.column {
			// A usable access path on another column (equality or range)
			// fetches a bounded candidate set; the top-k sort over it beats
			// walking the sort column's entire index and heap-fetching every
			// row until LIMIT predicates happen to qualify.
			return nil
		}
		if ap.eq != nil {
			return nil // equality pins the sort key: posting fetch + top-k is cheaper
		}
		op.lo, op.hi = ap.lo, ap.hi
	}
	return op
}

// resolveOrderColumn reduces an ORDER BY expression to a column reference,
// following one level of select-list aliasing (ORDER BY v where the list
// has `val AS v`), as resolveKeyExprs does.
func resolveOrderColumn(e Expr, s SelectStmt, b *binding) (ColumnRef, bool) {
	cr, ok := e.(ColumnRef)
	if !ok {
		return ColumnRef{}, false
	}
	if cr.Table == "" {
		cols, exprs := expandSelect(s, b)
		for i, c := range cols {
			if c == cr.Column {
				inner, ok := exprs[i].(ColumnRef)
				return inner, ok
			}
		}
	}
	return cr, true
}

// indexOrderRows fetches up to stopAfter rows passing f by walking the
// order path's index in key order. Rows with equal keys are emitted in
// ascending RID order — the order a heap scan feeds them to the stable
// sort — so the result is byte-for-byte what full-sort produces; each
// key's candidates are read in page runs.
func (tx *Txn) indexOrderRows(s SelectStmt, t *Table, op *orderPath, f *rowFilter, stopAfter int) ([]Tuple, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	idx := t.Indexes[op.column]
	if idx == nil {
		return nil, fmt.Errorf("rdbms: no index on %s.%s", s.From, op.column)
	}
	if err := tx.db.lm.Acquire(tx.id, TableLock(s.From), LockShared); err != nil {
		return nil, err
	}
	var rows []Tuple
	var ridBuf []RID
	var evalErr error
	var seen int
	idx.GroupedRange(op.lo, op.hi, op.desc, func(_ Value, rids []RID) bool {
		seen++
		if seen%ctxCheckInterval == 0 {
			if evalErr = tx.ctxErr(); evalErr != nil {
				return false
			}
		}
		ridBuf = append(ridBuf[:0], rids...)
		sortRIDs(ridBuf)
		for run := ridBuf; len(run) > 0 && !atLimit(rows, stopAfter); {
			n := pageRun(run)
			if rows, evalErr = resolveRun(t.Heap, visibility{}, run[:n], f, rows, stopAfter); evalErr != nil {
				return false
			}
			run = run[n:]
		}
		return !atLimit(rows, stopAfter)
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return rows, nil
}

// sortRIDs orders RIDs by (page, slot) — heap scan order, given that heap
// pages are chained in allocation order.
func sortRIDs(rids []RID) {
	for i := 1; i < len(rids); i++ {
		for j := i; j > 0 && ridLess(rids[j], rids[j-1]); j-- {
			rids[j], rids[j-1] = rids[j-1], rids[j]
		}
	}
}

func ridLess(a, b RID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}
