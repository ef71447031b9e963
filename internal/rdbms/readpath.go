package rdbms

// The read path. A SELECT reads its FROM table in one of two shapes: a
// sweep over every heap page (scanHeap), or the candidate rids an index
// probe returned, taken in page runs — each maximal stretch of
// consecutive candidates on one page (resolveRun). Either way a page is
// pinned once and read under its shared latch, and every row on it is
// resolved there in three steps:
//
//  1. Visibility (visibility.row). A Snap asks its version store whether
//     the row is chained (vs.visible); a Txn's locks make the heap bytes
//     current. The heap bytes are read before the chain is probed, the
//     order MVCC's "no chain after the heap read" argument needs. A row
//     the reader sees is either the heap record or a chained row's
//     visible tuple.
//  2. The encoded matcher (encMatcher) rejects a heap record that fails a
//     sargable WHERE conjunct without decoding it. A chained row's
//     visible tuple skips it.
//  3. Survivors are decoded and the full WHERE is evaluated on them.
//
// A sweep hands each visible row to a rowSink: tupleSink runs steps 2
// and 3 for a SELECT or Scan, recordSink passes the encoded record on
// for Snap.ScanRecords.
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

// admitRow filters one visible row: a chained row's tuple when tup is
// non-nil, else the heap record rec.
func (f *rowFilter) admitRow(tup Tuple, rec []byte) (Tuple, bool, error) {
	if tup == nil {
		return f.admitRecord(rec)
	}
	keep, err := f.admit(tup)
	return tup, keep, err
}

// row is the visibility step for one heap row, under its page's read
// latch (live is false for a dead slot). seen reports whether the reader
// sees the row; if so, tup is a chained row's visible tuple, or nil when
// the heap record is the row's content.
func (vis visibility) row(rid RID, live bool) (tup Tuple, seen bool) {
	if vis.vs != nil {
		if v, chained := vis.vs.visible(vis.table, rid, vis.lsn); chained {
			if !v.live {
				return nil, false
			}
			if v.tup != nil {
				return v.tup, true
			}
			// A heap-resident batch version: the heap bytes are its content.
		}
	}
	return nil, live
}

// resolveRow decides one heap row for a reader, under its page's read
// latch: the visibility rule, then f, applied to rid's record bytes (live
// is false for a dead slot). It returns the row the reader sees when that
// row passes.
func resolveRow(vis visibility, f *rowFilter, rid RID, rec []byte, live bool) (Tuple, bool, error) {
	tup, seen := vis.row(rid, live)
	if !seen {
		return nil, false, nil
	}
	return f.admitRow(tup, rec)
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

// rowSink takes the rows a sweep sees. take runs under the row's page
// read latch, with tup a chained row's visible tuple or nil for the heap
// record rec, which it must not retain; flush runs once the latch is
// released and hands on the rows taken since the last flush. A take error
// stops the sweep after that flush; flush returns false to stop it.
type rowSink interface {
	take(rid RID, tup Tuple, rec []byte) error
	flush() bool
}

// tupleSink filters each row through f, decoding the heap records the
// matcher lets through, and calls fn with the rows kept.
type tupleSink struct {
	f    *rowFilter
	fn   func(RID, Tuple) bool
	rids []RID
	tups []Tuple
}

func (s *tupleSink) take(rid RID, tup Tuple, rec []byte) error {
	tup, keep, err := s.f.admitRow(tup, rec)
	if keep {
		s.rids = append(s.rids, rid)
		s.tups = append(s.tups, tup)
	}
	return err
}

func (s *tupleSink) flush() bool {
	for i, rid := range s.rids {
		if !s.fn(rid, s.tups[i]) {
			return false
		}
	}
	s.rids, s.tups = s.rids[:0], s.tups[:0]
	return true
}

// recordSink copies each row's encoded record out of the page into one
// reused buffer, re-encoding a chained row's tuple so fn sees one shape,
// and calls fn with the records after the latch is released.
type recordSink struct {
	fn   func(RID, []byte) bool
	rids []RID
	ends []int // ends[i] is where rids[i]'s record ends in buf
	buf  []byte
}

func (s *recordSink) take(rid RID, tup Tuple, rec []byte) error {
	if tup != nil {
		s.buf = appendTuple(s.buf, tup)
	} else {
		s.buf = append(s.buf, rec...)
	}
	s.rids = append(s.rids, rid)
	s.ends = append(s.ends, len(s.buf))
	return nil
}

func (s *recordSink) flush() bool {
	start := 0
	for i, rid := range s.rids {
		end := s.ends[i]
		if !s.fn(rid, s.buf[start:end:end]) {
			return false
		}
		start = end
	}
	s.rids, s.ends, s.buf = s.rids[:0], s.ends[:0], s.buf[:0]
	return true
}

// scanHeap sweeps h in page-chain order and hands sink each row vis
// sees. Each page is read under one scan-hinted pin and its read latch,
// and the sink is flushed after the latch is released, so its consumer
// may read the table itself. poll (nil = never) is checked before each
// page. seen, when non-nil, records every live heap slot the sweep read.
// stopped reports that the sink's flush returned false.
func scanHeap(h *HeapFile, vis visibility, poll func() error, seen *slotSet, sink rowSink) (stopped bool, err error) {
	for _, id := range h.fs.chain() {
		if poll != nil {
			if err := poll(); err != nil {
				return false, err
			}
		}
		seen.startPage(id)
		err := h.readPage(id, func(slot uint16, rec []byte) error {
			rid := RID{Page: id, Slot: slot}
			seen.add(slot)
			tup, visible := vis.row(rid, true)
			if !visible {
				return nil
			}
			return sink.take(rid, tup, rec)
		})
		// The rows taken before a failing row reach the consumer first, as
		// they would row at a time.
		if !sink.flush() {
			return true, nil
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
