package uql

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/extract"
	"repro/internal/hi"
	"repro/internal/synth"
)

func TestParseFullProgram(t *testing.T) {
	prog, err := Parse(`
		# extract city attributes
		EXTRACT temperature, population FROM docs USING city MINCONF 0.5 KIND city INTO raw;
		INTEGRATE extra INTO raw THRESHOLD 0.8;
		RESOLVE raw THRESHOLD 0.85 BUDGET 10 INTO resolved;
		ASK resolved MINCONF 0.6 BUDGET 5;
		STORE resolved INTO TABLE extracted;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 5 {
		t.Fatalf("got %d statements", len(prog.Stmts))
	}
	ex := prog.Stmts[0].(ExtractStmt)
	if len(ex.Attrs) != 2 || ex.Attrs[0] != "temperature" || ex.MinConf != 0.5 || ex.Kind != "city" || ex.Into != "raw" {
		t.Fatalf("extract: %+v", ex)
	}
	ig := prog.Stmts[1].(IntegrateStmt)
	if ig.Src != "extra" || ig.Dst != "raw" || ig.Threshold != 0.8 {
		t.Fatalf("integrate: %+v", ig)
	}
	rs := prog.Stmts[2].(ResolveStmt)
	if rs.Threshold != 0.85 || rs.Budget != 10 || rs.Into != "resolved" {
		t.Fatalf("resolve: %+v", rs)
	}
	ask := prog.Stmts[3].(AskStmt)
	if ask.MinConf != 0.6 || ask.Budget != 5 {
		t.Fatalf("ask: %+v", ask)
	}
	st := prog.Stmts[4].(StoreStmt)
	if st.Rel != "resolved" || st.Table != "extracted" {
		t.Fatalf("store: %+v", st)
	}
}

func TestParseExtractAll(t *testing.T) {
	prog, err := Parse("EXTRACT all FROM docs USING city INTO raw;")
	if err != nil {
		t.Fatal(err)
	}
	if attrs := prog.Stmts[0].(ExtractStmt).Attrs; attrs != nil {
		t.Fatalf("EXTRACT all should clear attrs: %v", attrs)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"EXTRACT FROM docs USING x INTO y;",
		"EXTRACT a FROM docs USING x;",
		"EXTRACT a FROM docs USING x INTO;",
		"STORE r INTO t;", // missing TABLE keyword
		"RESOLVE r;",
		"FROBNICATE x;",
		"EXTRACT a FROM docs USING x INTO y", // missing semicolon
		"EXTRACT a FROM docs USING x MINCONF abc INTO y;",
		"ASK EXTRACT;", // keyword as identifier
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func testEnv(t *testing.T, seed int64, cities, people int) (*Env, *synth.Truth) {
	t.Helper()
	corpus, truth := synth.Generate(synth.Config{
		Seed: seed, Cities: cities, People: people, Filler: 10, MentionsPerPerson: 3,
	})
	env := NewEnv()
	env.Sources["docs"] = corpus
	env.Extractors["city"] = RegisteredExtractor{
		Pipeline: extract.DefaultCityPipeline(),
		Hints: map[string]string{
			"temperature": "average temperature in",
			"population":  "population",
			"founded":     "founded",
		},
	}
	env.Extractors["person"] = RegisteredExtractor{Pipeline: extract.DefaultPersonPipeline()}
	env.Store = tableSink{}.store
	return env, truth
}

// tableSink is a STORE sink over in-memory tables, keyed by table name.
type tableSink map[string][]Row

func (ts tableSink) store(table string, rows []Row) error {
	ts[table] = append(ts[table], rows...)
	return nil
}

func TestExtractAndStoreEndToEnd(t *testing.T) {
	env, truth := testEnv(t, 9, 10, 3)
	tables := tableSink{}
	env.Store = tables.store
	plan, err := Exec(`
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE temps;
	`, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain, "prefilter") {
		t.Fatalf("plan should use prefilter: %s", plan.Explain)
	}
	rows := env.Relations["temps"]
	if len(rows) != 10*12 {
		t.Fatalf("extracted %d temperature rows, want 120", len(rows))
	}
	// The §2 Madison average, computed over the extracted relation.
	sum, n := 0.0, 0
	for _, r := range rows {
		if r.Entity == "Madison, Wisconsin" {
			if f, err := strconv.ParseFloat(r.Value, 64); err == nil {
				sum += f
				n++
			}
		}
	}
	madison := truth.CityTruth("Madison, Wisconsin")
	if n != 12 || !close2(sum/float64(n), madison.AvgTemp(0, 11)) {
		t.Fatalf("madison avg from rows: %v over %d", sum/float64(n), n)
	}
	// STORE handed the whole relation to the sink.
	if got := len(tables["temps"]); got != 120 {
		t.Fatalf("stored rows: %d, want 120", got)
	}
}

func close2(a, b float64) bool { return a-b < 0.01 && b-a < 0.01 }

func TestPrefilterReducesWork(t *testing.T) {
	env, _ := testEnv(t, 4, 20, 5)
	if _, err := Exec(`EXTRACT temperature FROM docs USING city INTO a;`, env, Options{}); err != nil {
		t.Fatal(err)
	}
	prefiltered := env.Stats.Counter("uql.extract.prefiltered")
	if prefiltered == 0 {
		t.Fatal("prefilter skipped nothing; person/filler docs should be skipped")
	}
	// Ablation: disabling the prefilter processes every document but must
	// return identical rows.
	env2, _ := testEnv(t, 4, 20, 5)
	if _, err := Exec(`EXTRACT temperature FROM docs USING city INTO a;`, env2, Options{NoPrefilter: true}); err != nil {
		t.Fatal(err)
	}
	if len(env.Relations["a"]) != len(env2.Relations["a"]) {
		t.Fatalf("prefilter changed results: %d vs %d", len(env.Relations["a"]), len(env2.Relations["a"]))
	}
	if env2.Stats.Counter("uql.extract.prefiltered") != 0 {
		t.Fatal("ablation still prefiltered")
	}
	if env2.Stats.Counter("uql.extract.docs") <= env.Stats.Counter("uql.extract.docs") {
		t.Fatal("ablation should process more documents")
	}
}

func TestParallelExtractionMatchesSequential(t *testing.T) {
	env, _ := testEnv(t, 6, 15, 5)
	env.Cluster = cluster.New(cluster.Config{Workers: 4})
	if _, err := Exec(`EXTRACT temperature, population FROM docs USING city INTO a;`, env, Options{}); err != nil {
		t.Fatal(err)
	}
	envSeq, _ := testEnv(t, 6, 15, 5)
	if _, err := Exec(`EXTRACT temperature, population FROM docs USING city INTO a;`, envSeq, Options{NoParallel: true}); err != nil {
		t.Fatal(err)
	}
	a, b := env.Relations["a"], envSeq.Relations["a"]
	if len(a) != len(b) {
		t.Fatalf("parallel %d rows vs sequential %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || a[i].Value != b[i].Value || a[i].Attribute != b[i].Attribute {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestIntegrateRenamesAttributes(t *testing.T) {
	env := NewEnv()
	env.Relations["left"] = []Row{
		{Entity: "a", Attribute: "address", Value: "Madison, WI", Conf: 0.9},
	}
	env.Relations["right"] = []Row{
		{Entity: "b", Attribute: "location", Value: "Chicago, IL", Conf: 0.9},
	}
	prog, err := Parse(`INTEGRATE right INTO left THRESHOLD 0.7;`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(prog, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Run(env); err != nil {
		t.Fatal(err)
	}
	left := env.Relations["left"]
	if len(left) != 2 {
		t.Fatalf("union size %d", len(left))
	}
	for _, r := range left {
		if r.Attribute != "address" {
			t.Fatalf("location should be renamed to address: %+v", r)
		}
	}
	if env.Stats.Counter("uql.integrate.renamed") != 1 {
		t.Fatal("rename not counted")
	}
}

func TestResolveUnifiesEntities(t *testing.T) {
	env := NewEnv()
	env.Relations["people"] = []Row{
		{Entity: "David Smith", Attribute: "born", Value: "1962", Conf: 0.9},
		{Entity: "D. Smith", Attribute: "lives", Value: "Madison", Conf: 0.9},
		{Entity: "Sarah Johnson", Attribute: "born", Value: "1970", Conf: 0.9},
	}
	if _, err := Exec(`RESOLVE people THRESHOLD 0.82 INTO resolved;`, env, Options{}); err != nil {
		t.Fatal(err)
	}
	resolved := env.Relations["resolved"]
	entities := map[string]bool{}
	for _, r := range resolved {
		entities[r.Entity] = true
	}
	if entities["D. Smith"] {
		t.Fatalf("D. Smith should be canonicalized: %v", entities)
	}
	if !entities["David Smith"] || !entities["Sarah Johnson"] {
		t.Fatalf("entities: %v", entities)
	}
}

func TestAskRaisesConfidence(t *testing.T) {
	env := NewEnv()
	env.Relations["facts"] = []Row{
		{Entity: "e1", Attribute: "a", Value: "right", Conf: 0.55},
		{Entity: "e2", Attribute: "a", Value: "wrong", Conf: 0.55},
		{Entity: "e3", Attribute: "a", Value: "confident", Conf: 0.95},
	}
	// Oracle: "right"/"confident" are true, "wrong" is false.
	oracle := func(q hi.Question) (bool, int) {
		return !strings.Contains(q.Subject, "wrong"), 0
	}
	members := []hi.Answerer{
		hi.NewSimulatedAnswerer("u1", 0, 1, oracle),
		hi.NewSimulatedAnswerer("u2", 0, 2, oracle),
		hi.NewSimulatedAnswerer("u3", 0, 3, oracle),
	}
	env.Crowd = hi.NewCrowd(members, nil)
	if _, err := Exec(`ASK facts MINCONF 0.7;`, env, Options{}); err != nil {
		t.Fatal(err)
	}
	rows := env.Relations["facts"]
	if rows[0].Conf <= 0.55 {
		t.Fatalf("confirmed fact conf should rise: %v", rows[0].Conf)
	}
	if rows[1].Conf >= 0.55 {
		t.Fatalf("rejected fact conf should fall: %v", rows[1].Conf)
	}
	if rows[2].Conf != 0.95 {
		t.Fatalf("confident fact should not be asked: %v", rows[2].Conf)
	}
	if env.Stats.Counter("uql.ask.questions") != 2 {
		t.Fatalf("questions asked: %d", env.Stats.Counter("uql.ask.questions"))
	}
}

func TestAskBudgetPrioritizesMostUncertain(t *testing.T) {
	env := NewEnv()
	env.Relations["facts"] = []Row{
		{Entity: "near-threshold", Attribute: "a", Value: "v", Conf: 0.69},
		{Entity: "most-uncertain", Attribute: "a", Value: "v", Conf: 0.50},
	}
	oracle := func(hi.Question) (bool, int) { return true, 0 }
	env.Crowd = hi.NewCrowd([]hi.Answerer{hi.NewSimulatedAnswerer("u", 0, 1, oracle)}, nil)
	if _, err := Exec(`ASK facts MINCONF 0.7 BUDGET 1;`, env, Options{}); err != nil {
		t.Fatal(err)
	}
	rows := env.Relations["facts"]
	if rows[1].Conf <= 0.5 && rows[0].Conf != 0.69 {
		t.Fatalf("budget should go to the 0.50 fact first: %+v", rows)
	}
	if rows[0].Conf != 0.69 {
		t.Fatalf("near-threshold fact should be left alone under budget 1: %+v", rows[0])
	}
}

func TestCompileErrors(t *testing.T) {
	env := NewEnv()
	cases := []string{
		`EXTRACT a FROM nowhere USING city INTO x;`,
		`EXTRACT a FROM docs USING ghost INTO x;`,
		`STORE r INTO TABLE t;`, // no store
	}
	env.Sources["docs"] = nil
	for _, q := range cases {
		prog, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := Compile(prog, env, Options{}); err == nil {
			t.Errorf("Compile(%q) should fail", q)
		}
	}
}

func TestRunErrorsOnMissingRelations(t *testing.T) {
	env := NewEnv()
	for _, q := range []string{
		`RESOLVE ghost INTO out;`,
		`INTEGRATE ghost INTO other;`,
	} {
		if _, err := Exec(q, env, Options{}); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	// ASK without a crowd.
	env.Relations["r"] = []Row{{Entity: "e", Attribute: "a", Value: "v", Conf: 0.1}}
	if _, err := Exec(`ASK r;`, env, Options{}); err == nil {
		t.Error("ASK without crowd should fail")
	}
}

func TestPlanExplain(t *testing.T) {
	env, _ := testEnv(t, 2, 5, 2)
	prog, _ := Parse(`
		EXTRACT temperature FROM docs USING city INTO a;
		STORE a INTO TABLE t;
	`)
	plan, err := Compile(prog, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain, "extract") || !strings.Contains(plan.Explain, "store") {
		t.Fatalf("explain: %s", plan.Explain)
	}
	// Ablated plan explains differently.
	plain, _ := Compile(prog, env, Options{NoPrefilter: true})
	if strings.Contains(plain.Explain, "prefilter") {
		t.Fatalf("ablated explain still mentions prefilter: %s", plain.Explain)
	}
}
