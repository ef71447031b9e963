package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdbms"
	"repro/internal/uql"
)

func generateTestStructure(t *testing.T, s *System) {
	t.Helper()
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
}

// viewSQL parses one SELECT and runs it at the View's snapshot.
func viewSQL(v *View, query string) (*rdbms.ResultSet, error) {
	stmt, err := rdbms.ParseSQL(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(rdbms.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("viewSQL: %T is not a SELECT", stmt)
	}
	return v.ExecSelect(sel)
}

// viewCountAndHash reads the extracted table through the View's SQL path
// twice over: once as a COUNT and once as an order-independent content
// hash of a full SELECT, so two invocations on one View prove repeatable
// reads at its LSN.
func viewCountAndHash(t *testing.T, v *View) (int64, uint64) {
	t.Helper()
	rs, err := viewSQL(v, "SELECT COUNT(*) FROM extracted")
	if err != nil {
		t.Fatal(err)
	}
	count := rs.Rows[0][0].I
	all, err := viewSQL(v, "SELECT entity, attribute, qualifier, value FROM extracted")
	if err != nil {
		t.Fatal(err)
	}
	var hash uint64
	for _, row := range all.Rows {
		h := fnv.New64a()
		for _, val := range row {
			fmt.Fprintf(h, "%s|", val.S)
		}
		hash += h.Sum64()
	}
	return count, hash
}

// TestViewRepeatableRead: a View pins the structure at its LSN — writes
// committed after it opened are invisible to every exploitation mode on
// the View, while a fresh View (and one-shot System reads) see them.
func TestViewRepeatableRead(t *testing.T) {
	s, _ := newSystem(t, 12, 4, 0)
	defer s.Close()
	generateTestStructure(t, s)
	ctx := context.Background()

	v, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	count0, hash0 := viewCountAndHash(t, v)
	if count0 == 0 {
		t.Fatal("no extracted rows")
	}
	lsn0 := v.LSN()

	// Commit a write behind the View's back through the writer path.
	if _, err := s.SQL(ctx, "INSERT INTO extracted VALUES ('Viewville', 'temperature', 'July', '99', 99.0, 1.0)"); err != nil {
		t.Fatal(err)
	}

	count1, hash1 := viewCountAndHash(t, v)
	if count1 != count0 || hash1 != hash0 {
		t.Fatalf("view drifted: count %d->%d hash %x->%x", count0, count1, hash0, hash1)
	}
	if v.LSN() != lsn0 {
		t.Fatalf("view LSN moved: %d -> %d", lsn0, v.LSN())
	}
	b, err := v.Browse()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Rows()); int64(got) != count0 {
		t.Fatalf("view browse sees %d rows, want %d", got, count0)
	}

	// A fresh View observes the write, at a later LSN.
	v2, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	count2, _ := viewCountAndHash(t, v2)
	if count2 != count0+1 {
		t.Fatalf("fresh view count = %d, want %d", count2, count0+1)
	}
	if v2.LSN() <= lsn0 {
		t.Fatalf("fresh view LSN %d not after %d", v2.LSN(), lsn0)
	}
}

// TestViewGuidedAndKeywordAtSnapshot: AskGuided executes its structured
// candidate at the View's LSN (a correction committed after the View
// opened must not leak in), and KeywordSearch still answers on the View.
func TestViewGuidedAndKeywordAtSnapshot(t *testing.T) {
	s, _ := newSystem(t, 12, 4, 0)
	defer s.Close()
	generateTestStructure(t, s)
	ctx := context.Background()

	v, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	before, err := v.AskGuided("average March September temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Candidates) == 0 || before.Answer == nil {
		t.Fatalf("guided on view: %+v", before)
	}
	want, ok := AverageFromRows(before.Answer)
	if !ok {
		t.Fatal("no numeric answer")
	}

	// Skew every Madison temperature through the writer path.
	if _, err := s.SQL(ctx, "UPDATE extracted SET value = '1000', num = 1000.0 WHERE entity = 'Madison, Wisconsin'"); err != nil {
		t.Fatal(err)
	}

	after, err := v.AskGuided("average March September temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := AverageFromRows(after.Answer)
	if !ok {
		t.Fatal("no numeric answer after write")
	}
	if got != want {
		t.Fatalf("view's guided answer drifted: %v -> %v", want, got)
	}
	hits, err := v.KeywordSearch("temperature Madison Wisconsin", 3)
	if err != nil || len(hits) == 0 {
		t.Fatalf("keyword on view: %v %v", hits, err)
	}

	// The one-shot path sees the committed skew.
	live, err := s.AskGuided(ctx, "average March September temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if liveAvg, _ := AverageFromRows(live.Answer); liveAvg != 1000 {
		t.Fatalf("one-shot guided = %v, want 1000", liveAvg)
	}
}

// TestViewRejectsWritesAndUseAfterClose: a View takes only a parsed
// SELECT (View.ExecSelect), so no mutation can reach it, and a closed
// View refuses further work instead of touching a released snapshot.
func TestViewRejectsWritesAndUseAfterClose(t *testing.T) {
	s, _ := newSystem(t, 8, 2, 0)
	defer s.Close()
	generateTestStructure(t, s)

	v, err := s.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inflight := s.InFlightOps()
	if inflight == 0 {
		t.Fatal("open view not counted in-flight")
	}
	v.Close()
	v.Close() // idempotent
	if got := s.InFlightOps(); got != inflight-1 {
		t.Fatalf("in-flight after close = %d, want %d", got, inflight-1)
	}
	if _, err := viewSQL(v, "SELECT COUNT(*) FROM extracted"); err == nil {
		t.Fatal("closed view served a query")
	}
}

// TestViewZeroLockAcquisitions: a View's entire exploitation surface —
// SQL, guided, browse, keyword — runs without a single lock-manager
// acquisition. The catalog is warmed first so the measured window holds
// pure read traffic.
func TestViewZeroLockAcquisitions(t *testing.T) {
	s, _ := newSystem(t, 12, 4, 0)
	defer s.Close()
	generateTestStructure(t, s)
	ctx := context.Background()
	// Warm the published catalog (the first build scans via a snapshot —
	// also lock-free — but keep the measured window minimal anyway).
	if _, err := s.Catalog(ctx); err != nil {
		t.Fatal(err)
	}

	base := s.DB.LockManager().Acquisitions()
	v, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	viewCountAndHash(t, v)
	if _, err := v.AskGuided("average temperature Madison Wisconsin", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Browse(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.KeywordSearch("temperature", 3); err != nil {
		t.Fatal(err)
	}
	if got := s.DB.LockManager().Acquisitions() - base; got != 0 {
		t.Fatalf("reader acquired %d locks, want 0", got)
	}
}

// TestViewRaceReadersVsWritersAndCheckpointer is the core-layer MVCC
// torture test: concurrent Views assert snapshot-consistent repeatable
// reads (COUNT and content hash stable within a View) while writers
// insert and delete through the System writer path and a checkpointer
// runs fuzzy checkpoints — all under -race.
func TestViewRaceReadersVsWritersAndCheckpointer(t *testing.T) {
	s, _ := newSystem(t, 10, 2, 0)
	defer s.Close()
	generateTestStructure(t, s)
	ctx := context.Background()

	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup

	// Writers: each owns a disjoint entity and alternates insert/delete
	// so totals churn but stay bounded.
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			entity := fmt.Sprintf("Churn-%d", w)
			present := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				var stmt string
				if present {
					stmt = fmt.Sprintf("DELETE FROM extracted WHERE entity = '%s'", entity)
				} else {
					stmt = fmt.Sprintf(
						"INSERT INTO extracted VALUES ('%s', 'temperature', 'July', '%d', %d.0, 1.0)",
						entity, rng.Intn(100), rng.Intn(100))
				}
				if _, err := s.SQL(ctx, stmt); err != nil {
					if errors.Is(err, rdbms.ErrDeadlock) {
						continue
					}
					fail("writer %d: %v", w, err)
					return
				}
				present = !present
			}
		}(w)
	}

	// Checkpointer: fuzzy checkpoints against live traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				fail("checkpoint: %v", err)
				return
			}
		}
	}()

	// Readers: open a View, read the world twice, demand identical
	// results — then guided-query it for good measure.
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := s.View(ctx)
				if err != nil {
					fail("reader %d view: %v", r, err)
					return
				}
				c1, h1 := readCountAndHash(v)
				c2, h2 := readCountAndHash(v)
				if c1 != c2 || h1 != h2 {
					fail("reader %d: view not repeatable: count %d/%d hash %x/%x", r, c1, c2, h1, h2)
					v.Close()
					return
				}
				if _, err := v.AskGuided("average temperature Madison Wisconsin", 3); err != nil {
					fail("reader %d guided: %v", r, err)
					v.Close()
					return
				}
				v.Close()
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// readCountAndHash is viewCountAndHash without the testing.T plumbing
// (race-test goroutines must not call t.Fatal).
func readCountAndHash(v *View) (int64, uint64) {
	rs, err := viewSQL(v, "SELECT COUNT(*) FROM extracted")
	if err != nil {
		return -1, 0
	}
	count := rs.Rows[0][0].I
	all, err := viewSQL(v, "SELECT entity, attribute, qualifier, value FROM extracted")
	if err != nil {
		return -2, 0
	}
	var hash uint64
	for _, row := range all.Rows {
		h := fnv.New64a()
		for _, val := range row {
			fmt.Fprintf(h, "%s|", val.S)
		}
		hash += h.Sum64()
	}
	return count, hash
}
