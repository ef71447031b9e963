package rdbms

// The read path. A SELECT reads its FROM table in one of two shapes: a
// sweep over every heap page (scanHeap), or the candidate rids an index
// probe returned, taken in page runs — each maximal stretch of
// consecutive candidates on one page (resolveRun). Either way a page is
// pinned once and read under its shared latch, and every row on it is
// resolved there in three steps:
//
//  1. Visibility. A Snap asks its version store whether the row is
//     chained (vs.visible); a Txn's locks make the heap bytes current.
//     The heap bytes are read before the chain is probed, the order
//     MVCC's "no chain after the heap read" argument needs.
//  2. The encoded matcher (encMatcher) rejects a heap record that fails a
//     sargable WHERE conjunct without decoding it. A chained row's
//     visible tuple skips it.
//  3. Survivors are decoded and the full WHERE is evaluated on them.
//
// Lock order: page latch, then vs.mu. Writers already take them in this
// order (Txn.noteVersion runs inside the heap mutation's onApply, under
// the page's write latch), and nothing holds vs.mu while it waits for a
// latch.

// visibility is one reader's row-version rule. The zero value (no store)
// is a Txn's: its locks make the heap bytes the current state. A Snap's
// carries its version store and pinned LSN.
type visibility struct {
	vs    *VersionStore
	table string
	lsn   LSN
}

// rowFilter is a statement's WHERE, prepared once for the read path: the
// encoded matcher for its sargable conjuncts, and the full expression,
// evaluated on every row the matcher lets through. A nil *rowFilter
// admits every row.
type rowFilter struct {
	where Expr
	b     *binding
	m     encMatcher
}

// newRowFilter prepares where (nil for none) over the FROM table bound by
// b under fromName.
func newRowFilter(where Expr, b *binding, fromName string) *rowFilter {
	if where == nil {
		return nil
	}
	return &rowFilter{where: where, b: b, m: compileMatcher(where, b, fromName)}
}

// admit evaluates the full WHERE on a decoded row.
func (f *rowFilter) admit(tup Tuple) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := evalExpr(f.where, f.b, tup)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

// admitRecord filters a heap record: the matcher first, then decode and
// the full WHERE for a record it does not reject.
func (f *rowFilter) admitRecord(rec []byte) (Tuple, bool, error) {
	if f != nil && f.m.rejects(rec) {
		return nil, false, nil
	}
	tup, err := DecodeTuple(rec)
	if err != nil {
		return nil, false, err
	}
	keep, err := f.admit(tup)
	return tup, keep, err
}

// resolveRow decides one heap row for a reader, under its page's read
// latch: the visibility rule, then f, applied to rid's record bytes (live
// is false for a dead slot). It returns the row the reader sees when that
// row passes.
func resolveRow(vis visibility, f *rowFilter, rid RID, rec []byte, live bool) (Tuple, bool, error) {
	if vis.vs != nil {
		if v, chained := vis.vs.visible(vis.table, rid, vis.lsn); chained {
			if !v.live {
				return nil, false, nil
			}
			if v.tup != nil {
				keep, err := f.admit(v.tup)
				return v.tup, keep, err
			}
			// A heap-resident batch version: the heap bytes are its content.
		}
	}
	if !live {
		return nil, false, nil
	}
	return f.admitRecord(rec)
}

// resolveRun resolves run — candidate rids that all lie on one heap page
// of h — under one pin and read latch, appending every row vis sees that
// passes f to rows, in run order, until rows holds limit (< 0: no cap).
func resolveRun(h *HeapFile, vis visibility, run []RID, f *rowFilter, rows []Tuple, limit int) ([]Tuple, error) {
	err := h.readRun(run, func(rid RID, rec []byte, live bool) (bool, error) {
		tup, keep, err := resolveRow(vis, f, rid, rec, live)
		if err != nil {
			return false, err
		}
		if keep {
			rows = append(rows, tup)
		}
		return limit < 0 || len(rows) < limit, nil
	})
	return rows, err
}

// atLimit reports whether rows has reached limit (< 0: never).
func atLimit(rows []Tuple, limit int) bool { return limit >= 0 && len(rows) >= limit }

// pageRun returns the length of the page run that starts rids: the
// candidates, in order, that share rids[0]'s page.
func pageRun(rids []RID) int {
	n := 1
	for n < len(rids) && rids[n].Page == rids[0].Page {
		n++
	}
	return n
}

// scanHeap sweeps h in page-chain order and calls fn with each row vis
// sees that passes f. Each page is resolved under one scan-hinted pin and
// its read latch; fn runs on the page's kept rows after the latch is
// released, so it may read the table itself. poll (nil = never) is
// checked before each page. seen, when non-nil, records every live heap
// slot the sweep read. stopped reports that fn returned false.
func scanHeap(h *HeapFile, vis visibility, f *rowFilter, poll func() error, seen *slotSet, fn func(RID, Tuple) bool) (stopped bool, err error) {
	var rids []RID
	var tups []Tuple
	for _, id := range h.chain() {
		if poll != nil {
			if err := poll(); err != nil {
				return false, err
			}
		}
		rids, tups = rids[:0], tups[:0]
		seen.startPage(id)
		err := h.readPage(id, func(slot uint16, rec []byte) error {
			rid := RID{Page: id, Slot: slot}
			seen.add(slot)
			tup, keep, err := resolveRow(vis, f, rid, rec, true)
			if keep {
				rids = append(rids, rid)
				tups = append(tups, tup)
			}
			return err
		})
		// The rows kept before a failing row reach fn first, as they would
		// row at a time.
		for i, rid := range rids {
			if !fn(rid, tups[i]) {
				return true, nil
			}
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// slotSet is a set of heap slots kept as one bitset per page, pages in
// the order they were started: a sweep's record of the rows it read from
// the heap, at one bit per row. A nil *slotSet records nothing.
type slotSet struct {
	pages []PageID
	first []int // first[i] is the index in bits of pages[i]'s first word
	bits  []uint64
	index map[PageID]int // page -> position in pages, built by the first has
}

// startPage makes id the page add records into.
func (ss *slotSet) startPage(id PageID) {
	if ss == nil {
		return
	}
	ss.pages = append(ss.pages, id)
	ss.first = append(ss.first, len(ss.bits))
}

// add records slot of the current page.
func (ss *slotSet) add(slot uint16) {
	if ss == nil {
		return
	}
	w := ss.first[len(ss.first)-1] + int(slot/64)
	for len(ss.bits) <= w {
		ss.bits = append(ss.bits, 0)
	}
	ss.bits[w] |= 1 << (slot % 64)
}

// has reports whether rid was recorded.
func (ss *slotSet) has(rid RID) bool {
	if ss.index == nil {
		ss.index = make(map[PageID]int, len(ss.pages))
		for i, id := range ss.pages {
			ss.index[id] = i
		}
	}
	i, ok := ss.index[rid.Page]
	if !ok {
		return false
	}
	end := len(ss.bits)
	if i+1 < len(ss.first) {
		end = ss.first[i+1]
	}
	w := ss.first[i] + int(rid.Slot/64)
	return w < end && ss.bits[w]&(1<<(rid.Slot%64)) != 0
}
