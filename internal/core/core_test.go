package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/hi"
	"repro/internal/synth"
	"repro/internal/uql"
)

func newSystem(t *testing.T, cities, people int, corrupt float64) (*System, *synth.Truth) {
	t.Helper()
	corpus, truth := synth.Generate(synth.Config{
		Seed: 11, Cities: cities, People: people, Filler: 10,
		MentionsPerPerson: 2, CorruptFrac: corrupt,
	})
	s, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	return s, truth
}

func TestGenerateAndGuidedAnswerPaperFlow(t *testing.T) {
	s, truth := newSystem(t, 12, 4, 0)
	// Generation: the developer's declarative program.
	plan, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain, "extract") {
		t.Fatalf("plan: %s", plan.Explain)
	}
	// Exploitation: an ordinary user's keyword query, guided to structure.
	ans, err := s.AskGuided(context.Background(), "average March September temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	got, ok := AverageFromRows(ans.Answer)
	if !ok {
		t.Fatalf("no numeric answer: %+v", ans.Answer)
	}
	madison := truth.CityTruth("Madison, Wisconsin")
	want := madison.AvgTemp(2, 8) // March..September
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("guided answer = %v, truth = %v", got, want)
	}
}

func TestKeywordSearchBaselineCannotAggregate(t *testing.T) {
	s, _ := newSystem(t, 8, 2, 0)
	hits, err := s.KeywordSearch(context.Background(), "average temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("keyword hits: %+v", hits)
	}
	// The baseline returns documents — the snippet contains *a* monthly
	// temperature sentence, never the March-September average itself.
	if strings.Contains(hits[0].Snippet, "average of") {
		t.Fatal("IR baseline should not compute")
	}
}

func TestIncrementalBestEffort(t *testing.T) {
	s, truth := newSystem(t, 10, 2, 0)
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 5); err != nil {
		t.Fatal(err)
	}
	if s.PendingTasks() != 10 {
		t.Fatalf("pending = %d", s.PendingTasks())
	}
	if cov := s.Coverage("temperature"); cov != 0 {
		t.Fatalf("initial coverage = %v", cov)
	}
	// The user demands temperatures: those tasks run first.
	s.Demand(context.Background(), "temperature", 10)
	n, err := s.ExtractPending(context.Background(), "city", 5)
	if err != nil || n != 5 {
		t.Fatalf("ExtractPending: %d %v", n, err)
	}
	if cov := s.Coverage("temperature"); cov != 1 {
		t.Fatalf("temperature coverage = %v, want 1 (demanded first)", cov)
	}
	if cov := s.Coverage("population"); cov != 0 {
		t.Fatalf("population coverage = %v, want 0", cov)
	}
	// Queries already work on the partial structure.
	rs, err := s.SQL(context.Background(), "SELECT COUNT(*) FROM extracted WHERE attribute = 'temperature'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != int64(12*len(truth.Cities)) {
		t.Fatalf("temperature rows: %v", rs.Rows)
	}
	// Finish the rest.
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	if s.PendingTasks() != 0 {
		t.Fatal("tasks remain")
	}
	if cov := s.Coverage("population"); cov != 1 {
		t.Fatalf("final population coverage = %v", cov)
	}
}

func TestAlertsFireOnMaterialization(t *testing.T) {
	s, truth := newSystem(t, 10, 0, 0)
	big := 0
	for _, c := range truth.Cities {
		if c.Population > 500000 {
			big++
		}
	}
	if _, err := s.Subscribe(alert.Subscription{
		User: "alice", Attribute: "population", Op: alert.OpGT, Threshold: 500000,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.PlanIncremental(context.Background(), "city", []string{"population"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	fired := s.Stats.Counter("core.alerts.fired")
	if fired == 0 && big > 0 {
		t.Fatalf("no alerts fired; %d cities qualify", big)
	}
}

func TestSweepSuspiciousFindsCorruption(t *testing.T) {
	s, truth := newSystem(t, 40, 0, 0.15)
	if len(truth.Corruptions) == 0 {
		t.Skip("no corruption generated")
	}
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature"}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	violations, err := s.SweepSuspicious(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every injected corruption should be flagged.
	flagged := map[string]bool{}
	for _, v := range violations {
		flagged[v.Entity] = true
	}
	missed := 0
	for _, c := range truth.Corruptions {
		if !flagged[c.DocTitle] {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("debugger missed %d/%d corruptions", missed, len(truth.Corruptions))
	}
}

// TestSweepSuspiciousRepeatable: a sweep learns its constraints from the
// rows at its snapshot alone, so a second sweep over the same rows gives
// the same violations, and the sweep of a reopened system equals the
// fresh system's. A debugger kept across sweeps fails both: it learns
// every value once more per sweep, and the values an ingest path showed
// it once more, so rows weigh by how often they were seen. The rows here
// come from two paths: a STORE of every city's temperatures, then the
// incremental extraction of half the corpus's again.
func TestSweepSuspiciousRepeatable(t *testing.T) {
	corpus, truth := synth.Generate(synth.Config{
		Seed: 11, Cities: 40, Filler: 10, CorruptFrac: 0.15,
	})
	if len(truth.Corruptions) == 0 {
		t.Skip("no corruption generated")
	}
	ctx := context.Background()
	dir := t.TempDir()
	s, _, err := OpenDir(dir, Config{Corpus: corpus}, func(s *System) error {
		if _, err := s.Generate(ctx, warmGenProgram, uql.Options{}); err != nil {
			return err
		}
		if err := s.PlanIncremental(ctx, "city", []string{"temperature"}, 4); err != nil {
			return err
		}
		_, err := s.ExtractPending(ctx, "city", 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.SweepSuspicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("the sweep flagged nothing over a corrupted corpus")
	}
	second, err := s.SweepSuspicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("a second sweep over the same rows differs:\nfirst  %v\nsecond %v", first, second)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, rep, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !rep.Reopened {
		t.Fatal("the second open did not reopen the directory")
	}
	reopened, err := r.SweepSuspicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, reopened) {
		t.Fatalf("the reopened system's sweep differs from the fresh system's:\nfresh    %v\nreopened %v", first, reopened)
	}
}

// TestStoreRefusesOtherTables: the STORE sink writes only the extracted
// table; any other is a typed refusal that creates no table.
func TestStoreRefusesOtherTables(t *testing.T) {
	s, _ := newSystem(t, 4, 0, 0)
	_, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE temps;
	`, uql.Options{})
	if !errors.Is(err, ErrStoreTable) {
		t.Fatalf("STORE into another table: got %v, want ErrStoreTable", err)
	}
	if s.DB.Table("temps") != nil {
		t.Fatal("the refused STORE created a table")
	}
	if n := s.Stats.Counter("uql.store.rows"); n != 0 {
		t.Fatalf("the refused STORE counted %d rows", n)
	}
}

func TestCorrectValueAndIncentives(t *testing.T) {
	s, _ := newSystem(t, 5, 0, 0)
	s.Users.Register("alice", "pw", "ordinary")
	for i := 0; i < 8; i++ {
		s.Users.RecordFeedbackOutcome("alice", true)
	}
	s.PlanIncremental(context.Background(), "city", []string{"temperature"}, 1)
	s.ExtractPending(context.Background(), "city", 0)
	if err := s.CorrectValue(context.Background(), "alice", "Madison, Wisconsin", "temperature", "July", "74.0"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.SQL(context.Background(), "SELECT value, conf FROM extracted WHERE entity = 'Madison, Wisconsin' AND qualifier = 'July'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "74.0" {
		t.Fatalf("correction lost: %v", rs.Rows)
	}
	if rs.Rows[0][1].F != 0.9 { // alice's reputation weight
		t.Fatalf("conf should be corrector's weight: %v", rs.Rows[0][1])
	}
	if s.Users.Points("alice") != 5 {
		t.Fatalf("points: %d", s.Users.Points("alice"))
	}
	if err := s.CorrectValue(context.Background(), "alice", "Nowhere", "temperature", "July", "1"); err == nil {
		t.Fatal("correction of missing row should fail")
	}
}

func TestBrowseFacets(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 1)
	s.ExtractPending(context.Background(), "city", 0)
	b, err := s.Browse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	facets := b.Facets()
	var attrFacet []string
	for _, f := range facets {
		if f.Name == "attribute" {
			for _, v := range f.Values {
				attrFacet = append(attrFacet, v.Value)
			}
		}
	}
	if len(attrFacet) != 2 {
		t.Fatalf("attribute facet: %v", attrFacet)
	}
	if err := b.Refine("attribute", "temperature"); err != nil {
		t.Fatal(err)
	}
	if len(b.Rows()) != 6*12 {
		t.Fatalf("refined rows: %d", len(b.Rows()))
	}
}

func TestCatalogQualifierOrder(t *testing.T) {
	s, _ := newSystem(t, 4, 0, 0)
	s.PlanIncremental(context.Background(), "city", []string{"temperature"}, 1)
	s.ExtractPending(context.Background(), "city", 0)
	cat, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	quals := cat.Qualifiers["temperature"]
	if len(quals) != 12 || quals[0] != "January" || quals[8] != "September" {
		t.Fatalf("qualifier order: %v", quals)
	}
	if len(cat.Entities) != 4 {
		t.Fatalf("entities: %v", cat.Entities)
	}
}

func TestGenerateWithHIFeedback(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: 3, Cities: 5, People: 3, Filler: 0, MentionsPerPerson: 2})
	oracle := func(q hi.Question) (bool, int) { return true, 0 }
	crowd := hi.NewCrowd([]hi.Answerer{
		hi.NewSimulatedAnswerer("u1", 0.1, 1, oracle),
		hi.NewSimulatedAnswerer("u2", 0.1, 2, oracle),
		hi.NewSimulatedAnswerer("u3", 0.1, 3, oracle),
	}, nil)
	s, err := New(Config{Corpus: corpus, Crowd: crowd})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Generate(context.Background(), `
		EXTRACT person FROM docs USING person KIND person INTO people;
		ASK people MINCONF 0.7 BUDGET 10;
		STORE people INTO TABLE extracted;
	`, uql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Counter("uql.ask.questions") == 0 {
		t.Fatal("no questions asked")
	}
	// Confirmed facts should have risen above their raw extractor conf.
	rs, err := s.SQL(context.Background(), "SELECT MAX(conf) FROM extracted WHERE attribute = 'person'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].F <= 0.6 {
		t.Fatalf("feedback did not raise confidence: %v", rs.Rows)
	}
}

func TestSystemRequiresCorpus(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil corpus should fail")
	}
}
