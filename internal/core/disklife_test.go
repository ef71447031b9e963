package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/reformulate"
	"repro/internal/synth"
	"repro/internal/uql"
)

// Tests for the single-root disk lifecycle (OpenDir/Close): the engine's
// files under dir/db are the only persisted state, so a clean restart and
// a kill both resume the catalog, the task queue and its progress from
// them.

// onlyDBUnder fails unless dir holds nothing but the database directory.
func onlyDBUnder(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "db" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("%s holds %v, want only db", dir, names)
	}
}

// kill abandons s as a killed process would leave it: no Close, no
// checkpoint, only the directory lock released.
func kill(t *testing.T, s *System) {
	t.Helper()
	for s.checkpointing.Load() {
		runtime.Gosched() // a background checkpoint still writing would race the reopen
	}
	if err := s.DB.Abandon(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})
	setup := func(s *System) error {
		if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
			return err
		}
		if err := s.PlanIncremental(context.Background(), "city", []string{"population"}, 4); err != nil {
			return err
		}
		_, err := s.ExtractPending(context.Background(), "city", 2)
		return err
	}

	// First life: fresh directory, setup generates the structure.
	a, repA, err := OpenDir(dir, Config{Corpus: corpus}, setup)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Reopened {
		t.Fatal("fresh directory reported as reopened")
	}
	catA, err := a.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rowsA, err := a.extractedRowCount()
	if err != nil {
		t.Fatal(err)
	}
	if rowsA == 0 {
		t.Fatal("setup produced no rows")
	}
	pendingA := a.PendingTasks()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	onlyDBUnder(t, dir)

	// Second life: the database reopens from disk — setup must NOT run
	// (a sentinel would double the rows) — and the queue comes back from
	// the tasks table.
	b, repB, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
		t.Fatal("setup ran on reopen")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !repB.Reopened {
		t.Fatal("existing database not detected")
	}
	rowsB, err := b.extractedRowCount()
	if err != nil {
		t.Fatal(err)
	}
	if rowsB != rowsA {
		t.Fatalf("rows after reopen: %d, want %d", rowsB, rowsA)
	}
	if b.PendingTasks() != pendingA {
		t.Fatalf("pending tasks after reopen: %d, want %d", b.PendingTasks(), pendingA)
	}
	// The first catalog read after the reopen rebuilds by one record scan;
	// it must equal the first life's catalog and the decoded reference.
	catB, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(catA, catB) {
		t.Fatalf("catalog after reopen differs:\ngot  %+v\nwant %+v", catB, catA)
	}
	ref, err := referenceCatalog(b.DB, TableName)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(catB, ref) {
		t.Fatalf("catalog after reopen differs from the reference rebuild:\ngot  %+v\nwant %+v", catB, ref)
	}
	// The recovered structure answers queries.
	rs, err := b.SQL(context.Background(), "SELECT COUNT(*) AS n FROM extracted WHERE attribute = 'temperature'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I == 0 {
		t.Fatalf("reopened database gave no temperature rows: %v", rs.Rows)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: still there after a second full cycle.
	c, repC, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !repC.Reopened {
		t.Fatal("third open did not reopen")
	}
	rowsC, _ := c.extractedRowCount()
	if rowsC != rowsA {
		t.Fatalf("rows in third life: %d, want %d", rowsC, rowsA)
	}
	catC, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(catA, catC) {
		t.Fatalf("catalog in third life differs:\ngot  %+v\nwant %+v", catC, catA)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	onlyDBUnder(t, dir)
}

// TestWarmLoadVerifiesInO1OnReopen: a clean reopen reads nothing of the
// extracted table — its indexes load from their checkpoint chains and
// the catalog waits for its first read — and that first read rebuilds
// the catalog with its one scan.
func TestWarmLoadVerifiesInO1OnReopen(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})
	a, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
		_, err := s.Generate(context.Background(), warmGenProgram, uql.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, rep, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !rep.Reopened {
		t.Fatal("reopen not detected")
	}
	if st := b.DB.LastOpenStats(); st.IndexesRebuilt != 0 || st.IndexesLoaded == 0 {
		t.Fatalf("reopen rebuilt indexes by heap scan: %+v", st)
	}
	b.mu.Lock()
	built := b.cat.valid
	b.mu.Unlock()
	if built {
		t.Fatal("the catalog was rebuilt at open, before any read")
	}
	got, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first catalog read after reopen:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWarmStartRestoresCatalogAndQueue: a clean restart resumes the
// catalog, the pending queue (in the same pop order: Demand's boosts are
// written back at Close) and the coverage counters, and the resumed queue
// drains.
func TestWarmStartRestoresCatalogAndQueue(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})
	a, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
		_, err := s.Generate(context.Background(), warmGenProgram, uql.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4); err != nil {
		t.Fatal(err)
	}
	a.Demand(context.Background(), "founded", 2) // non-trivial priorities must survive the restart
	if _, err := a.ExtractPending(context.Background(), "city", 3); err != nil {
		t.Fatal(err)
	}
	a.Demand(context.Background(), "population", 1)
	wantCat, err := a.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantQueue := queueOrder(a)
	wantByAttr := a.PendingByAttribute()
	wantCovPop, wantCovFounded := a.Coverage("population"), a.Coverage("founded")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, rep, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !rep.Reopened {
		t.Fatal("restart not detected")
	}
	gotCat, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCat, wantCat) {
		t.Fatalf("restored catalog differs:\ngot  %+v\nwant %+v", gotCat, wantCat)
	}
	if got := queueOrder(b); !reflect.DeepEqual(got, wantQueue) {
		t.Fatalf("restored queue order:\ngot  %v\nwant %v", got, wantQueue)
	}
	if got := b.PendingByAttribute(); !reflect.DeepEqual(got, wantByAttr) {
		t.Fatalf("pending by attribute: %v, want %v", got, wantByAttr)
	}
	if b.Coverage("population") != wantCovPop || b.Coverage("founded") != wantCovFounded {
		t.Fatalf("coverage: population %v founded %v, want %v %v",
			b.Coverage("population"), b.Coverage("founded"), wantCovPop, wantCovFounded)
	}

	// The restored queue runs to completion.
	if _, err := b.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	if b.PendingTasks() != 0 || b.Coverage("population") != 1 || b.Coverage("founded") != 1 {
		t.Fatalf("restored queue did not drain: %d pending", b.PendingTasks())
	}
	assertCatalogFresh(t, b, "after draining restored queue")
	ans, err := b.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Answer == nil || len(ans.Answer.Rows) == 0 {
		t.Fatal("no guided answer after restart")
	}
}

// TestWarmStartLatestSnapshotWins: across repeated clean restarts the
// latest life's state wins — its extraction progress and the boosts it
// wrote back at Close, over rows an earlier Close had already rewritten.
func TestWarmStartLatestSnapshotWins(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})
	open := func() *System {
		s, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
			return s.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := open()
	a.Demand(context.Background(), "founded", 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := open()
	if _, err := b.ExtractPending(context.Background(), "city", 2); err != nil {
		t.Fatal(err)
	}
	b.Demand(context.Background(), "population", 5)
	b.Demand(context.Background(), "founded", 1)
	wantQueue := queueOrder(b)
	wantCov := []float64{b.Coverage("population"), b.Coverage("founded")}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	c := open()
	defer c.Close()
	if got := queueOrder(c); !reflect.DeepEqual(got, wantQueue) {
		t.Fatalf("third life restored an older queue:\ngot  %v\nwant %v", got, wantQueue)
	}
	if got := []float64{c.Coverage("population"), c.Coverage("founded")}; !reflect.DeepEqual(got, wantCov) {
		t.Fatalf("third life coverage %v, want %v", got, wantCov)
	}
}

// TestWarmStartStaleRowCount: the catalog has no persisted form, so a
// reopened system cannot serve a stale one. Rows written after the last
// clean close — here by direct SQL, which bypasses the cache, followed by
// a kill — appear in the reopened catalog, whether the table grew or
// kept its row count with different content.
func TestWarmStartStaleRowCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  func(before reformulate.Catalog) string
	}{
		{"extra-row", func(reformulate.Catalog) string {
			return "INSERT INTO extracted (entity, attribute, qualifier, value, num, conf) VALUES ('Gotham', 'mayor', '', 'Bruce', NULL, 0.5)"
		}},
		{"same-count", func(before reformulate.Catalog) string {
			return "UPDATE extracted SET entity = 'Gotham' WHERE entity = '" + before.Entities[0] + "'"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			corpus, _ := synth.Generate(synth.Config{
				Seed: 7, Cities: 10, People: 3, Filler: 5, MentionsPerPerson: 2,
			})
			a, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
				_, err := s.Generate(context.Background(), warmGenProgram, uql.Options{})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			before, err := a.Catalog(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			b, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rowsBefore, _ := b.ExtractedRows()
			if _, err := b.SQL(context.Background(), tc.sql(before)); err != nil {
				t.Fatal(err)
			}
			rowsAfter, _ := b.ExtractedRows()
			kill(t, b)

			c, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if rows, _ := c.ExtractedRows(); rows != rowsAfter {
				t.Fatalf("rows after the kill: %d, want %d (before the write: %d)", rows, rowsAfter, rowsBefore)
			}
			got, err := c.Catalog(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, before) || !slices.Contains(got.Entities, "Gotham") {
				t.Fatalf("reopened catalog misses the write made after the last close: %+v", got)
			}
			assertCatalogFresh(t, c, "after reopening past a cache-bypassing write")
		})
	}
}

// queueOrder lists the pending tasks in pop order as attribute/part/priority.
func queueOrder(s *System) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, tk := range s.queue.snapshot() {
		out = append(out, fmt.Sprintf("%s/%d/%g", tk.attribute, tk.part, tk.priority))
	}
	return out
}

// TestWarmStartEqualsColdRebuild: the catalog a reopened system serves —
// rebuilt by one record scan at its first read — equals a cold rebuild
// and the decoded reference.
func TestWarmStartEqualsColdRebuild(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: 10, People: 3, Filler: 5, MentionsPerPerson: 2,
	})
	a, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
		_, err := s.Generate(context.Background(), warmGenProgram, uql.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	warmed, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceCatalog(b.DB, TableName)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.RefreshCatalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(warmed.Entities) == 0 || !reflect.DeepEqual(warmed, cold) || !reflect.DeepEqual(warmed, ref) {
		t.Fatalf("reopened catalog != cold rebuild\nwarm: %+v\ncold: %+v\nref:  %+v", warmed, cold, ref)
	}
}

// TestWarmStartMissingDirIsCold: a root that does not exist yet opens
// fresh — setup runs, nothing is pending — and holds only the database.
func TestWarmStartMissingDirIsCold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	corpus, _ := synth.Generate(synth.Config{Seed: 3, Cities: 6, People: 2, Filler: 4, MentionsPerPerson: 2})
	ran := false
	s, rep, err := OpenDir(dir, Config{Corpus: corpus}, func(*System) error { ran = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reopened || !ran {
		t.Fatalf("missing dir: reopened=%v setup ran=%v", rep.Reopened, ran)
	}
	if s.PendingTasks() != 0 || s.Coverage("population") != 1 {
		t.Fatalf("fresh root has %d pending tasks", s.PendingTasks())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	onlyDBUnder(t, dir)
}

// TestKilledExtractionKeepsTaskProgress: a process killed after
// extracting part of its plan — no Close — reopens with the same queue
// and coverage, and draining it runs only the tasks that had not
// completed: the table ends exactly as one uninterrupted run leaves it.
func TestKilledExtractionKeepsTaskProgress(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})
	plan := func(s *System) error {
		return s.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4)
	}
	a, _, err := OpenDir(dir, Config{Corpus: corpus}, plan)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := a.ExtractPending(context.Background(), "city", 5)
	if err != nil || ran != 5 {
		t.Fatalf("extracted %d tasks (%v), want 5", ran, err)
	}
	wantPending, wantByAttr := a.PendingTasks(), a.PendingByAttribute()
	wantCovPop, wantCovFounded := a.Coverage("population"), a.Coverage("founded")
	wantRows, _ := a.extractedRowCount()
	if wantCovPop == 1 && wantCovFounded == 1 {
		t.Fatal("plan finished before the kill; nothing to resume")
	}
	kill(t, a)

	b, rep, err := OpenDir(dir, Config{Corpus: corpus}, func(*System) error {
		t.Fatal("setup ran after the kill: the plan was lost")
		return nil
	})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer b.Close()
	if !rep.Reopened {
		t.Fatal("reopen after kill not detected")
	}
	if got := b.PendingTasks(); got != wantPending {
		t.Fatalf("pending after kill: %d, want %d", got, wantPending)
	}
	if got := b.PendingByAttribute(); !reflect.DeepEqual(got, wantByAttr) {
		t.Fatalf("pending by attribute after kill: %v, want %v", got, wantByAttr)
	}
	if b.Coverage("population") != wantCovPop || b.Coverage("founded") != wantCovFounded {
		t.Fatalf("coverage after kill: population %v founded %v, want %v %v",
			b.Coverage("population"), b.Coverage("founded"), wantCovPop, wantCovFounded)
	}
	if rows, _ := b.extractedRowCount(); rows != wantRows {
		t.Fatalf("rows after kill: %d, want %d", rows, wantRows)
	}

	// No completed task runs again: the drain runs exactly the pending
	// ones, and the table matches an uninterrupted run's.
	if n, err := b.ExtractPending(context.Background(), "city", 0); err != nil || n != wantPending {
		t.Fatalf("drain ran %d tasks (%v), want %d", n, err, wantPending)
	}
	ref, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	gotID, gotRows := tableDigests(t, b.DB)
	wantID, wantAll := tableDigests(t, ref.DB)
	if gotID != wantID || gotRows != wantAll {
		t.Fatal("table after kill and drain differs from an uninterrupted run: a task ran twice or not at all")
	}
}

// oversizedExtractor yields one value too large for a heap page, so the
// transaction materializing it aborts.
type oversizedExtractor struct{}

func (oversizedExtractor) Name() string { return "oversized" }
func (oversizedExtractor) Extract(d *doc.Document) []extract.Field {
	return []extract.Field{{Entity: d.Title, Attribute: "blob", Value: strings.Repeat("x", 8<<10), Conf: 1}}
}

// TestAbortedExtractionStaysPending: a task whose extraction transaction
// aborts is not marked done — it stays queued, in this life and the next.
func TestAbortedExtractionStaysPending(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{Seed: 3, Cities: 6, People: 2, Filler: 4, MentionsPerPerson: 2})
	open := func() *System {
		s, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Env.Extractors["oversized"] = uql.RegisteredExtractor{Pipeline: extract.NewPipeline(oversizedExtractor{})}
		return s
	}
	a := open()
	if err := a.PlanIncremental(context.Background(), "oversized", []string{"blob"}, 2); err != nil {
		t.Fatal(err)
	}
	n, err := a.ExtractPending(context.Background(), "oversized", 0)
	if err == nil || n != 0 {
		t.Fatalf("oversized extraction ran %d tasks, err %v; want 0 and an error", n, err)
	}
	if a.PendingTasks() != 2 || a.Coverage("blob") != 0 {
		t.Fatalf("after the abort: %d pending, coverage %v; want 2 and 0", a.PendingTasks(), a.Coverage("blob"))
	}
	kill(t, a)

	b := open()
	defer b.Close()
	if b.PendingTasks() != 2 || b.Coverage("blob") != 0 {
		t.Fatalf("after reopen: %d pending, coverage %v; want 2 and 0", b.PendingTasks(), b.Coverage("blob"))
	}
	if rows, _ := b.extractedRowCount(); rows != 0 {
		t.Fatalf("an aborted extraction left %d rows", rows)
	}
}

// TestTaskRowDeletedBySQLIsDropped: a task whose row a direct SQL write
// deleted leaves the plan — ExtractPending drops it instead of failing
// on it forever — and a later plan reusing the freed slots is not
// mistaken for it.
func TestTaskRowDeletedBySQLIsDropped(t *testing.T) {
	dir := t.TempDir()
	corpus, _ := synth.Generate(synth.Config{Seed: 3, Cities: 6, People: 2, Filler: 4, MentionsPerPerson: 2})
	s, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlanIncremental(context.Background(), "city", []string{"population"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL(context.Background(), "DELETE FROM tasks"); err != nil {
		t.Fatal(err)
	}
	if err := s.PlanIncremental(context.Background(), "city", []string{"founded"}, 2); err != nil {
		t.Fatal(err)
	}
	n, err := s.ExtractPending(context.Background(), "city", 0)
	if err != nil || n != 2 {
		t.Fatalf("extraction ran %d tasks (%v), want the 2 planned after the delete", n, err)
	}
	check := func(when string, s *System) {
		t.Helper()
		if s.PendingTasks() != 0 || s.Coverage("population") != 1 || s.Coverage("founded") != 1 {
			t.Fatalf("%s: %d pending, coverage population %v founded %v", when, s.PendingTasks(),
				s.Coverage("population"), s.Coverage("founded"))
		}
		rs, err := s.SQL(context.Background(), "SELECT COUNT(*) FROM tasks WHERE attribute = 'founded' AND done = TRUE")
		if err != nil || rs.Rows[0][0].I != 2 {
			t.Fatalf("%s: done founded task rows: %v (%v), want 2", when, rs, err)
		}
	}
	check("after the drain", s)
	if rows, _ := s.extractedRowCount(); rows == 0 {
		t.Fatal("the founded tasks extracted nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err = OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after reopen", s)
}
