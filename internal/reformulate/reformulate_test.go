package reformulate

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

func cityCatalog() Catalog {
	return Catalog{
		Table: "extracted",
		Entities: []string{
			"Madison, Wisconsin", "Milwaukee, Wisconsin", "Chicago, Illinois",
			"Springfield, Illinois", "Denver, Colorado",
		},
		Attributes: []string{"temperature", "population", "founded"},
		Qualifiers: map[string][]string{"temperature": synth.Months},
	}
}

func TestPaperQueryAverageTemperatureMadison(t *testing.T) {
	// The paper's §2 query: "find the average March-September temperature
	// in Madison, Wisconsin" as keywords.
	r := New(cityCatalog())
	cands := r.Candidates("average March September temperature Madison Wisconsin", 5)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	top := cands[0]
	if top.Agg != AggAvg || top.Attribute != "temperature" {
		t.Fatalf("top candidate: %+v", top)
	}
	if top.Entity != "Madison, Wisconsin" {
		t.Fatalf("entity: %+v", top)
	}
	if top.QualFrom != "March" || top.QualTo != "September" {
		t.Fatalf("qualifier range: %+v", top)
	}
	if !strings.Contains(top.SQL, "AVG") ||
		!strings.Contains(top.SQL, "entity = 'Madison, Wisconsin'") ||
		!strings.Contains(top.SQL, "qualifier = 'June'") {
		t.Fatalf("SQL: %s", top.SQL)
	}
	if !strings.Contains(top.Form(), "AVG of temperature for Madison, Wisconsin from March to September") {
		t.Fatalf("form: %q", top.Form())
	}
}

func TestSimpleLookupNoAggregate(t *testing.T) {
	r := New(cityCatalog())
	cands := r.Candidates("population Chicago", 3)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	top := cands[0]
	if top.Agg != AggNone || top.Attribute != "population" || top.Entity != "Chicago, Illinois" {
		t.Fatalf("top: %+v", top)
	}
	if !strings.Contains(top.SQL, "SELECT value FROM extracted") {
		t.Fatalf("SQL: %s", top.SQL)
	}
}

func TestAggregateSynonyms(t *testing.T) {
	r := New(cityCatalog())
	cases := map[string]Aggregate{
		"warmest temperature Denver": AggMax,
		"coldest temperature Denver": AggMin,
		"total population":           AggSum,
		"how many count population":  AggCount,
		"mean temperature":           AggAvg,
	}
	for q, want := range cases {
		cands := r.Candidates(q, 1)
		if len(cands) == 0 {
			t.Fatalf("no candidates for %q", q)
		}
		if cands[0].Agg != want {
			t.Errorf("query %q: agg %v, want %v", q, cands[0].Agg, want)
		}
	}
}

func TestSingleQualifier(t *testing.T) {
	r := New(cityCatalog())
	cands := r.Candidates("temperature Madison September", 3)
	top := cands[0]
	if top.QualFrom != "September" || top.QualTo != "September" {
		t.Fatalf("single month: %+v", top)
	}
	if !strings.Contains(top.Form(), "in September") {
		t.Fatalf("form: %q", top.Form())
	}
	// SQL has exactly one qualifier disjunct.
	if strings.Count(top.SQL, "qualifier =") != 1 {
		t.Fatalf("SQL: %s", top.SQL)
	}
}

func TestFuzzyAttributeMatch(t *testing.T) {
	r := New(cityCatalog())
	// Misspelled attribute still matches.
	cands := r.Candidates("temprature Madison", 3)
	if len(cands) == 0 || cands[0].Attribute != "temperature" {
		t.Fatalf("fuzzy match failed: %+v", cands)
	}
}

func TestNoMatch(t *testing.T) {
	r := New(cityCatalog())
	if cands := r.Candidates("quarterly earnings report", 3); len(cands) != 0 {
		t.Fatalf("unexpected candidates: %+v", cands)
	}
	if cands := r.Candidates("", 3); cands != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestVariantsIncludeEntityFreeForm(t *testing.T) {
	r := New(cityCatalog())
	cands := r.Candidates("average temperature Madison Wisconsin", 6)
	foundAll := false
	for _, c := range cands {
		if c.Entity == "" && c.Agg == AggAvg {
			foundAll = true
		}
	}
	if !foundAll {
		t.Fatalf("expected an all-entities variant: %+v", cands)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Score < cands[i].Score {
			t.Fatal("candidates not sorted")
		}
	}
}

// TestIncrementalEqualsRebuilt grows a reformulator delta by delta — in
// an order unlike the sorted catalog — and checks it answers every probe
// identically to one rebuilt whole from the final catalog.
func TestIncrementalEqualsRebuilt(t *testing.T) {
	full := cityCatalog()
	full.Entities = append(full.Entities, "Madison, Illinois") // ambiguous with Madison, WI
	full.Attributes = append(full.Attributes, "temperament")   // fuzzy-collides with temperature

	// Start from a one-entity seed and add the rest in reverse order.
	seed := Catalog{
		Table:      full.Table,
		Entities:   []string{full.Entities[0]},
		Attributes: []string{full.Attributes[0]},
		Qualifiers: map[string][]string{},
	}
	inc := New(seed)
	for i := len(full.Entities) - 1; i >= 1; i-- {
		inc.AddEntity(full.Entities[i])
	}
	for i := len(full.Attributes) - 1; i >= 1; i-- {
		inc.AddAttribute(full.Attributes[i])
	}
	for _, m := range full.Qualifiers["temperature"] {
		inc.AddQualifier("temperature", m)
	}
	// Idempotence: replays must not duplicate index entries.
	inc.AddEntity(full.Entities[2])
	inc.AddAttribute("temperature")
	inc.AddQualifier("temperature", "March")

	rebuilt := New(full)
	probes := []string{
		"average March September temperature Madison Wisconsin",
		"temperature Madison", // ambiguous entity: tie order must match
		"population Chicago",
		"warmest temperature Denver",
		"temperament Springfield",
		"how many count population",
	}
	for _, q := range probes {
		a := inc.Candidates(q, 6)
		b := rebuilt.Candidates(q, 6)
		if len(a) != len(b) {
			t.Fatalf("%q: %d vs %d candidates\ninc: %+v\nreb: %+v", q, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q candidate %d:\ninc: %+v\nreb: %+v", q, i, a[i], b[i])
			}
		}
	}
}

// TestAddQualifierCopiesOnWrite: vocabulary slices handed out in earlier
// catalog snapshots must not be mutated by later deltas.
func TestAddQualifierCopiesOnWrite(t *testing.T) {
	r := New(Catalog{Table: "t", Qualifiers: map[string][]string{}})
	r.AddAttribute("temperature")
	r.AddQualifier("temperature", "March")
	before := r.cat.Qualifiers["temperature"]
	r.AddQualifier("temperature", "April")
	if len(before) != 1 || before[0] != "March" {
		t.Fatalf("earlier vocabulary mutated: %v", before)
	}
	if got := r.cat.Qualifiers["temperature"]; len(got) != 2 || got[1] != "April" {
		t.Fatalf("vocabulary after delta: %v", got)
	}
}

func TestSQLEscaping(t *testing.T) {
	cat := cityCatalog()
	cat.Entities = append(cat.Entities, "O'Fallon, Missouri")
	r := New(cat)
	cands := r.Candidates("population O'Fallon", 3)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if !strings.Contains(cands[0].SQL, "O''Fallon") {
		t.Fatalf("quote not escaped: %s", cands[0].SQL)
	}
}
