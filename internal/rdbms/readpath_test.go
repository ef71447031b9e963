package rdbms

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The row-at-a-time read path the page-run reader replaced, kept as the
// reference TestIndexReadMatchesRowAtATime compares against: one
// Heap.Get per candidate (then the version store, for a Snap), the full
// WHERE evaluated on every decoded row, and a snapshot scan that dedupes
// chained rows through a map of every row it read.

// refFetch reads the source-current tuple at rid.
func refFetch(src readSource, t *Table, table string, rid RID) (Tuple, bool, error) {
	tup, live, err := t.Heap.Get(rid)
	sn, ok := src.(*Snap)
	if !ok {
		return tup, live, err
	}
	if v, ok := sn.db.vs.visible(table, rid, sn.lsn); ok {
		if v.live && v.tup == nil {
			return tup, live, err
		}
		return v.tup, v.live, nil
	}
	return tup, live, err
}

// refIndexRows fetches the candidates one at a time, in order.
func refIndexRows(src readSource, table string, t *Table, rids []RID, b *binding, where Expr, stopAfter int) ([]Tuple, error) {
	rows := make([]Tuple, 0, len(rids))
	for _, rid := range rids {
		tup, live, err := refFetch(src, t, table, rid)
		if err != nil {
			return nil, err
		}
		if !live {
			continue
		}
		if where != nil {
			v, err := evalExpr(where, b, tup)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		rows = append(rows, tup)
		if stopAfter >= 0 && len(rows) >= stopAfter {
			break
		}
	}
	return rows, nil
}

// refHeapScan decodes each page's live rows under its latch, then visits
// them.
func refHeapScan(h *HeapFile, fn func(RID, Tuple) bool) error {
	for _, id := range h.fs.chain() {
		g, err := h.bp.PinScan(id)
		if err != nil {
			return err
		}
		p := newSlottedPage(g.Data())
		var rids []RID
		var tups []Tuple
		for s := uint16(0); s < p.numSlots(); s++ {
			rec, ok := p.read(s)
			if !ok {
				continue
			}
			tup, err := DecodeTuple(rec)
			if err != nil {
				g.Release(false)
				return err
			}
			rids, tups = append(rids, RID{Page: id, Slot: s}), append(tups, tup)
		}
		g.Release(false)
		for i, rid := range rids {
			if !fn(rid, tups[i]) {
				return nil
			}
		}
	}
	return nil
}

// refScan visits the rows src sees: the heap, resolved per row, then (for
// a Snap) the chained rows the heap sweep did not read.
func refScan(src readSource, t *Table, table string, fn func(Tuple) bool) error {
	sn, isSnap := src.(*Snap)
	seen := map[RID]struct{}{}
	stopped := false
	err := refHeapScan(t.Heap, func(rid RID, tup Tuple) bool {
		seen[rid] = struct{}{}
		if isSnap {
			if v, ok := sn.db.vs.visible(table, rid, sn.lsn); ok {
				if !v.live {
					return true
				}
				if v.tup != nil {
					tup = v.tup
				}
			}
		}
		stopped = !fn(tup)
		return !stopped
	})
	if err != nil || stopped || !isSnap {
		return err
	}
	for _, rid := range sn.db.vs.chainRIDs(table) {
		if _, ok := seen[rid]; ok {
			continue
		}
		if vt, ok := sn.visibleTup(t, table, rid); ok && !fn(vt) {
			return nil
		}
	}
	return nil
}

// refScanRows is the sequential access path: the WHERE evaluated in the
// scan callback.
func refScanRows(src readSource, t *Table, table string, b *binding, where Expr, stopAfter int) ([]Tuple, error) {
	var rows []Tuple
	var evalErr error
	err := refScan(src, t, table, func(tup Tuple) bool {
		if where != nil {
			v, err := evalExpr(where, b, tup)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		rows = append(rows, tup)
		return stopAfter < 0 || len(rows) < stopAfter
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return rows, err
}

// --- random tables, writes and predicates --------------------------------

var readPathSchema = TableSchema{Name: "r", Columns: []ColumnDef{
	{Name: "s", Type: TString},
	{Name: "i", Type: TInt},
	{Name: "f", Type: TFloat},
	{Name: "k", Type: TString},
}}

func randReadPathRow(rng *rand.Rand) Tuple {
	maybe := func(v Value) Value {
		if rng.Intn(7) == 0 {
			return Null()
		}
		return v
	}
	floats := []float64{-1, 0.5, 1, 1.5, 2, 3.25}
	return Tuple{
		maybe(NewString([]string{"a", "b", "c", "ab", ""}[rng.Intn(5)])),
		maybe(NewInt(int64(rng.Intn(8) - 2))),
		maybe(NewFloat(floats[rng.Intn(len(floats))])),
		// A varying length makes some updates move their row.
		maybe(NewString(strings.Repeat("k", rng.Intn(60)))),
	}
}

func randReadPathLit(rng *rand.Rand, col string) string {
	kind := rng.Intn(4)
	if rng.Intn(5) > 0 { // mostly a literal of the column's own kind
		switch col {
		case "s", "k":
			kind = 0
		default:
			kind = 1 + rng.Intn(2)
		}
	}
	switch kind {
	case 0:
		return "'" + []string{"a", "b", "c", "ab", "", "kkk"}[rng.Intn(6)] + "'"
	case 1:
		return fmt.Sprint(rng.Intn(8) - 1)
	case 2:
		return []string{"0.5", "1.0", "1.5", "2.0", "3.25", "4.75"}[rng.Intn(6)]
	}
	return "NULL"
}

func randReadPathConj(rng *rand.Rand) string {
	cols := []string{"s", "i", "f", "k"}
	ops := []string{"=", "<", "<=", ">", ">="}
	col, op := cols[rng.Intn(len(cols))], ops[rng.Intn(len(ops))]
	switch rng.Intn(10) {
	case 0:
		return randReadPathLit(rng, col) + " " + op + " " + col
	case 1:
		return []string{"i + 1 > 2", "s != 'a'", "k IS NULL", "f BETWEEN 1 AND 2", "s LIKE 'a%'"}[rng.Intn(5)]
	case 2:
		return "NOT (" + col + " " + op + " " + randReadPathLit(rng, col) + ")"
	case 3:
		return "(" + randReadPathConj(rng) + " OR " + randReadPathConj(rng) + ")"
	}
	return col + " " + op + " " + randReadPathLit(rng, col)
}

func randReadPathWhere(rng *rand.Rand) Expr {
	conj := make([]string, 1+rng.Intn(3))
	for i := range conj {
		conj[i] = randReadPathConj(rng)
	}
	where := strings.Join(conj, " AND ")
	if len(conj) == 3 && rng.Intn(2) == 0 {
		where = conj[0] + " AND (" + conj[1] + " AND " + conj[2] + ")"
	}
	stmt, err := ParseSQL("SELECT * FROM r WHERE " + where)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", where, err))
	}
	return stmt.(SelectStmt).Where
}

// readPathWriter applies random single-row writes to rows it owns.
type readPathWriter struct {
	db   *DB
	rng  *rand.Rand
	rids []RID
}

// write runs one transaction of 1-3 writes, committed or aborted.
func (w *readPathWriter) write(commit bool) error {
	tx := w.db.Begin()
	rids := append([]RID(nil), w.rids...)
	for n := 1 + w.rng.Intn(3); n > 0; n-- {
		var err error
		switch op := w.rng.Intn(4); {
		case op == 0 || len(rids) == 0:
			var rid RID
			if rid, err = tx.Insert("r", randReadPathRow(w.rng)); err == nil {
				rids = append(rids, rid)
			}
		case op == 1:
			i := w.rng.Intn(len(rids))
			if err = tx.Delete("r", rids[i]); err == nil {
				rids = append(rids[:i], rids[i+1:]...)
			}
		default:
			i := w.rng.Intn(len(rids))
			rids[i], err = tx.Update("r", rids[i], randReadPathRow(w.rng))
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	if !commit {
		return tx.Abort()
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	w.rids = rids
	return nil
}

// checkReadPath runs one random WHERE through src's chosen access path
// twice — the page-run reader and the row-at-a-time reference — over the
// same index candidates, and requires the same rows in the same order, or
// the same error. scan adds the sequential path, which is only
// order-stable while no writer runs.
func checkReadPath(t *testing.T, rng *rand.Rand, src readSource, scan bool) {
	t.Helper()
	tbl, err := src.table("r")
	if err != nil {
		t.Fatal(err)
	}
	b := bindingForTable(&tbl.Schema, "r")
	where := randReadPathWhere(rng)
	f := newRowFilter(where, b, "r")
	stopAfter := -1
	if rng.Intn(4) == 0 {
		stopAfter = 1 + rng.Intn(5)
	}
	same := func(path string, got, want []Tuple, gerr, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s WHERE %s: err %v, reference %v", path, exprString(where), gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s WHERE %s (stop %d):\n got %v\nwant %v", path, exprString(where), stopAfter, got, want)
		}
	}
	if ap := chooseAccessPath(where, tbl, "r"); ap != nil {
		rids, err := indexCandidates(src, "r", ap)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := fetchCandidates(src, "r", tbl, rids, f, stopAfter)
		want, werr := refIndexRows(src, "r", tbl, rids, b, where, stopAfter)
		same(ap.describe(), got, want, gerr, werr)
	}
	if scan {
		var got []Tuple
		gerr := src.scanWhere("r", f, func(_ RID, tup Tuple) bool {
			got = append(got, tup)
			return stopAfter < 0 || len(got) < stopAfter
		})
		want, werr := refScanRows(src, tbl, "r", b, where, stopAfter)
		same("seq scan", got, want, gerr, werr)
		if sn, ok := src.(*Snap); ok {
			// ScanRecords hands over the same rows, unfiltered, encoded.
			got = nil
			gerr = sn.ScanRecords("r", func(_ RID, rec []byte) bool {
				tup, err := DecodeTuple(rec)
				if err != nil {
					t.Fatalf("ScanRecords handed over a record DecodeTuple refuses (%v): %x", err, rec)
				}
				got = append(got, tup)
				return stopAfter < 0 || len(got) < stopAfter
			})
			want, werr = refScanRows(src, tbl, "r", b, nil, stopAfter)
			same("record scan", got, want, gerr, werr)
		}
	}
}

// TestIndexReadMatchesRowAtATime: page runs with encoded-predicate
// filtering (and, for a snapshot, ScanRecords' encoded rows) return
// exactly the rows, in exactly the order, of the row-at-a-time path they
// replaced — for random tables with string, int,
// float and NULL columns and random WHERE clauses (= < > AND OR NOT,
// mixed-type literals, non-sargable residuals), through a Txn and through
// snapshots whose rows carry version chains, batch markers and an
// in-flight writer, while another writer commits and aborts beside them.
func TestIndexReadMatchesRowAtATime(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		rng := rand.New(rand.NewSource(trial))
		db, err := Open(NewMemPager(), NewMemWAL(), Options{BufferPages: 24})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(readPathSchema); err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"s", "i", "f"} {
			if err := db.CreateIndex("r", col); err != nil {
				t.Fatal(err)
			}
		}
		// Two writers own disjoint rows: one stays in flight under the
		// snapshots, the other keeps committing and aborting beside them.
		hold := &readPathWriter{db: db, rng: rand.New(rand.NewSource(100 + trial))}
		busy := &readPathWriter{db: db, rng: rand.New(rand.NewSource(200 + trial))}
		for i := 0; i < 250; i++ {
			if err := hold.write(true); err != nil {
				t.Fatal(err)
			}
			if err := busy.write(i%5 != 0); err != nil {
				t.Fatal(err)
			}
		}

		tx := db.Begin()
		for q := 0; q < 60; q++ {
			checkReadPath(t, rng, tx, true)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		// Snapshot old sees neither the later writes nor the bulk-loaded
		// rows (their batch marker is pending for it); snapshot mid sees
		// the bulk rows through the marker's heap-resident version.
		old := db.BeginSnapshot()
		for i := 0; i < 40; i++ {
			if err := hold.write(i%3 != 0); err != nil {
				t.Fatal(err)
			}
			if err := busy.write(i%4 != 0); err != nil {
				t.Fatal(err)
			}
		}
		bulk := make([]Tuple, 120)
		for i := range bulk {
			bulk[i] = randReadPathRow(rng)
		}
		if _, err := db.BulkLoad(context.Background(), "r", bulk); err != nil {
			t.Fatal(err)
		}
		mid := db.BeginSnapshot()
		inflight := db.Begin()
		for i := 0; i < 30 && len(hold.rids) > 0; i++ {
			rid := hold.rids[rng.Intn(len(hold.rids))]
			var err error
			if i%3 == 0 {
				_, err = inflight.Insert("r", randReadPathRow(rng))
			} else if i%3 == 1 {
				_, err = inflight.Update("r", rid, randReadPathRow(rng))
			} else {
				err = inflight.Delete("r", rid)
			}
			if err != nil && !strings.Contains(err.Error(), "missing row") {
				t.Fatal(err)
			}
		}

		if db.Versions().Chains() == 0 || db.Versions().BatchPages() == 0 {
			t.Fatalf("trial %d: want chained and batch-covered rows, got %d chains, %d batch pages",
				trial, db.Versions().Chains(), db.Versions().BatchPages())
		}
		for _, sn := range []*Snap{old, mid} {
			for q := 0; q < 40; q++ {
				checkReadPath(t, rng, sn, true)
			}
		}

		// Index reads stay identical while a writer commits and aborts.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := busy.write(i%3 != 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for _, sn := range []*Snap{old, mid} {
			for q := 0; q < 60; q++ {
				checkReadPath(t, rng, sn, false)
			}
		}
		close(stop)
		wg.Wait()
		if err := inflight.Abort(); err != nil {
			t.Fatal(err)
		}
		old.Close()
		mid.Close()
	}
}

// --- the encoded matcher on arbitrary records -------------------------------

var fuzzMatchSchema = TableSchema{Name: "r", Columns: []ColumnDef{
	{Name: "s", Type: TString},
	{Name: "i", Type: TInt},
	{Name: "f", Type: TFloat},
	{Name: "b", Type: TBool},
}}

// FuzzEncodedPredicate: the encoded matcher agrees with decode + evalExpr
// on arbitrary record bytes, malformed ones included. It may reject a
// record only when DecodeTuple accepts it and the WHERE evaluates to a
// non-true value without error; and when every top-level conjunct is
// compiled, it must reject every well-formed record the WHERE refuses
// without error.
func FuzzEncodedPredicate(f *testing.F) {
	recs := [][]byte{
		EncodeTuple(Tuple{NewString("a"), NewInt(2), NewFloat(2), NewBool(true)}),
		EncodeTuple(Tuple{NewString("ab"), NewInt(-1), NewFloat(1.5), NewBool(false)}),
		EncodeTuple(Tuple{Null(), Null(), Null(), Null()}),
		EncodeTuple(Tuple{NewString(""), NewInt(1 << 53), NewFloat(math.NaN()), Null()}),
		EncodeTuple(Tuple{NewInt(3), NewString("x"), NewBool(true), NewFloat(0.5)}), // columns of the wrong types
		EncodeTuple(Tuple{NewString("a"), NewInt(2), NewFloat(2)}),                  // short arity
		{4, 0, 0, 0, byte(TString), 9, 0, 0, 0, 'a'},                                // string body overruns
		{4, 0, 0, 0, 7},    // bad type tag
		{4, 0, 0},          // short header
		{255, 255, 255, 0}, // implausible arity
	}
	wheres := []string{
		"s = 'a'",
		"s = 'a' AND i < 3",
		"i = 2.0 AND f >= 2",
		"f > 1 AND s = 'ab'",
		"2 < i AND s <= 'b'",
		"s = 3 AND i = 1",
		"i = 1 AND s = 3",
		"s = 'a' AND NOT (i = 2)",
		"i + 1 > 2 AND s = 'a'",
		"s = 'zz' AND i + 'x' > 2",
		"b = 1 AND s = 'a'",
		"i = 9007199254740993",
		"f = f AND s > ''",
		"(s = 'a' OR i = 2) AND f < 3",
		"s = NULL AND i = 2",
		// A true conjunct, then one evalExpr fails on, then a false one.
		"s = 'a' AND i = 'x' AND f = 9",
		"s = 'a' AND i + 'x' > 1 AND f = 9",
		// Each operator at its boundary against the first record's values.
		"i < 2", "i > 2", "i <= 1", "i >= 3", "i = 3",
		"s < 'a'", "s > 'a'", "s <= ''", "s >= 'b'",
		"f < 2", "f > 2.0", "f <= 1.5", "f >= 2.5", "f = 2.5",
	}
	for _, rec := range recs {
		for _, w := range wheres {
			f.Add(rec, w)
		}
	}
	f.Fuzz(func(t *testing.T, rec []byte, where string) {
		stmt, err := ParseSQL("SELECT * FROM r WHERE " + where)
		if err != nil {
			return
		}
		s, ok := stmt.(SelectStmt)
		if !ok || s.Where == nil {
			return
		}
		b := bindingForTable(&fuzzMatchSchema, "r")
		m := compileMatcher(s.Where, b, "r")
		rejects := m.rejects(rec)
		// Only records of the schema's arity can be evaluated; skip the
		// decode of an implausible arity the matcher refused up front.
		if len(rec) < 4 || int(rec[0])|int(rec[1])<<8|int(rec[2])<<16|int(rec[3])<<24 != len(b.cols) {
			if rejects {
				t.Fatalf("rejected a record of arity other than the schema's: %x", rec)
			}
			return
		}
		tup, derr := DecodeTuple(rec)
		if derr != nil {
			if rejects {
				t.Fatalf("rejected a record DecodeTuple refuses (%v): %x", derr, rec)
			}
			return
		}
		v, eerr := evalExpr(s.Where, b, tup)
		if rejects {
			if eerr != nil {
				t.Fatalf("WHERE %s: rejected %v, which evalExpr fails on: %v", where, tup, eerr)
			}
			if truthy(v) {
				t.Fatalf("WHERE %s: rejected %v, which it accepts", where, tup)
			}
			return
		}
		allCompiled := len(m.conj) > 0
		for _, c := range m.conj {
			allCompiled = allCompiled && c.compiled
		}
		if allCompiled && eerr == nil && !truthy(v) {
			t.Fatalf("WHERE %s: every conjunct compiled, yet %v (WHERE %v) was not rejected", where, tup, v)
		}
	})
}
