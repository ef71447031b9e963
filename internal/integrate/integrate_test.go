package integrate

import (
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"madison", "madison", 0},
		{"smith", "smyth", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	// Symmetry and identity-of-indiscernibles on small strings.
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d1 := Levenshtein(a, b)
		d2 := Levenshtein(b, a)
		if d1 != d2 {
			return false
		}
		if (d1 == 0) != (a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJaroWinkler(t *testing.T) {
	if s := JaroWinkler("martha", "marhta"); s < 0.94 || s > 0.97 {
		t.Fatalf("martha/marhta = %v", s) // canonical value 0.961
	}
	if s := JaroWinkler("abc", "abc"); s != 1 {
		t.Fatalf("identical = %v", s)
	}
	if s := JaroWinkler("abc", "xyz"); s != 0 {
		t.Fatalf("disjoint = %v", s)
	}
	if s := JaroWinkler("", ""); s != 1 {
		t.Fatalf("empty = %v", s)
	}
	if s := JaroWinkler("a", ""); s != 0 {
		t.Fatalf("one empty = %v", s)
	}
}

func TestSimilarityRanges(t *testing.T) {
	pairs := [][2]string{
		{"madison", "madisno"}, {"", "x"}, {"David Smith", "D. Smith"},
		{"population", "pop_total"}, {"aa", "aaaa"},
	}
	fns := map[string]func(a, b string) float64{
		"Jaro":           Jaro,
		"JaroWinkler":    JaroWinkler,
		"QgramJaccard":   QgramJaccard,
		"TokenJaccard":   TokenJaccard,
		"NameSimilarity": NameSimilarity,
	}
	for name, fn := range fns {
		for _, p := range pairs {
			s := fn(p[0], p[1])
			if s < 0 || s > 1.0001 {
				t.Errorf("%s(%q,%q) = %v out of range", name, p[0], p[1], s)
			}
			if s2 := fn(p[1], p[0]); s2 < s-1e-9 || s2 > s+1e-9 {
				// NameSimilarity is asymmetric only via normalization; all
				// these should be symmetric.
				t.Errorf("%s not symmetric on %v: %v vs %v", name, p, s, s2)
			}
		}
	}
}

func TestNameSimilarityPaperExample(t *testing.T) {
	// "David Smith" and "D. Smith" may refer to the same person: the score
	// must clear a resolution threshold.
	if s := NameSimilarity("David Smith", "D. Smith"); s < 0.82 {
		t.Fatalf("David Smith ~ D. Smith = %v, want >= 0.82", s)
	}
	if s := NameSimilarity("David Smith", "Smith, David"); s < 0.9 {
		t.Fatalf("comma reversal = %v", s)
	}
	// Different last names must score low.
	if s := NameSimilarity("David Smith", "David Jones"); s > 0.75 {
		t.Fatalf("different last names = %v", s)
	}
	// Conflicting initials must score low.
	if s := NameSimilarity("David Smith", "R. Smith"); s > 0.75 {
		t.Fatalf("conflicting initial = %v", s)
	}
}

func TestSchemaMatcherSynonyms(t *testing.T) {
	m := NewSchemaMatcher()
	matches := m.MatchAttributes(
		[]string{"location", "population", "founded"},
		[]string{"address", "pop_total", "founded", "area_sq_mi"},
		nil, nil)
	got := map[string]string{}
	for _, am := range matches {
		got[am.A] = am.B
	}
	if got["location"] != "address" {
		t.Fatalf("location should match address: %v", matches)
	}
	if got["population"] != "pop_total" {
		t.Fatalf("population should match pop_total: %v", matches)
	}
	if got["founded"] != "founded" {
		t.Fatalf("founded should match exactly: %v", matches)
	}
}

func TestSchemaMatcherValueEvidence(t *testing.T) {
	m := NewSchemaMatcher()
	m.Threshold = 0.4
	valuesA := map[string][]string{"city": {"Madison", "Chicago", "Denver"}}
	valuesB := map[string][]string{
		"municipality": {"Madison", "Chicago", "Boston"},
		"mayor":        {"Paul Soglin", "Lori Lightfoot"},
	}
	matches := m.MatchAttributes([]string{"city"}, []string{"municipality", "mayor"}, valuesA, valuesB)
	if len(matches) == 0 || matches[0].B != "municipality" {
		t.Fatalf("value overlap should pick municipality: %v", matches)
	}
}

func TestSchemaMatcherAddSynonym(t *testing.T) {
	m := NewSchemaMatcher()
	m.Threshold = 0.8
	if got := m.MatchAttributes([]string{"temp"}, []string{"heat_level"}, nil, nil); len(got) != 0 {
		t.Fatalf("unexpected match: %v", got)
	}
	m.AddSynonym("temp", "heat_level", 0.95) // HI confirmed
	got := m.MatchAttributes([]string{"temp"}, []string{"heat_level"}, nil, nil)
	if len(got) != 1 || got[0].Score != 0.95 {
		t.Fatalf("synonym not honoured: %v", got)
	}
}

func TestResolverClusterPaperExample(t *testing.T) {
	mentions := []Mention{
		{ID: 0, Surface: "David Smith", Context: "Madison, Wisconsin"},
		{ID: 1, Surface: "D. Smith", Context: "Madison, Wisconsin"},
		{ID: 2, Surface: "Smith, David", Context: "Madison, Wisconsin"},
		{ID: 3, Surface: "Sarah Johnson", Context: "Chicago"},
		{ID: 4, Surface: "S. Johnson", Context: "Chicago"},
		{ID: 5, Surface: "Robert Brown", Context: "Denver"},
	}
	r := NewResolver()
	clusters := r.Cluster(mentions, nil)
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters: %v", len(clusters), clusters)
	}
	if len(clusters[0]) != 3 || clusters[0][0] != 0 {
		t.Fatalf("Smith cluster: %v", clusters)
	}
}

func TestResolverHIDecisionsOverride(t *testing.T) {
	mentions := []Mention{
		{ID: 0, Surface: "David Smith"},
		{ID: 1, Surface: "D. Smith"},
		{ID: 2, Surface: "Robert Smith"},
	}
	r := NewResolver()
	// Without HI, "D. Smith" would link to "David Smith" (initial match).
	// A human says mention 1 is NOT mention 0, and IS mention 2 (the "D."
	// turned out to abbreviate a middle name of Robert, say).
	clusters := r.Cluster(mentions, []Decision{
		{A: 0, B: 1, Match: false},
		{A: 1, B: 2, Match: true},
	})
	// 1 and 2 together; "David Smith" vs "Robert Smith" is below
	// threshold, so we expect {0}, {1,2}.
	if len(clusters) != 2 {
		t.Fatalf("clusters: %v", clusters)
	}
	if len(clusters[0]) != 1 || clusters[0][0] != 0 {
		t.Fatalf("mention 0 should be alone: %v", clusters)
	}
	if len(clusters[1]) != 2 {
		t.Fatalf("mentions 1,2 should merge: %v", clusters)
	}
}

func TestCandidatePairsOrderingAndBlocking(t *testing.T) {
	mentions := []Mention{
		{ID: 0, Surface: "David Smith"},
		{ID: 1, Surface: "D. Smith"},
		{ID: 2, Surface: "Zoe Albright"}, // different block
	}
	r := NewResolver()
	pairs := r.CandidatePairs(mentions)
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Score < pairs[i].Score {
			t.Fatal("pairs not sorted by score")
		}
	}
	for _, p := range pairs {
		if p.B == 2 || p.A == 2 {
			t.Fatalf("blocking failed: cross-block pair %v", p)
		}
	}
}

func TestPairwiseF1(t *testing.T) {
	gold := [][]int{{0, 1, 2}, {3, 4}}
	perfect := [][]int{{0, 1, 2}, {3, 4}}
	p, r, f1 := PairwiseF1(perfect, gold)
	if p != 1 || r != 1 || f1 != 1 {
		t.Fatalf("perfect: %v %v %v", p, r, f1)
	}
	// Split cluster: misses pairs (recall < 1), no wrong pairs (precision 1).
	split := [][]int{{0, 1}, {2}, {3, 4}}
	p, r, f1 = PairwiseF1(split, gold)
	if p != 1 || r >= 1 || f1 >= 1 {
		t.Fatalf("split: %v %v %v", p, r, f1)
	}
	// Over-merged: extra pairs (precision < 1), full recall.
	merged := [][]int{{0, 1, 2, 3, 4}}
	p, r, f1 = PairwiseF1(merged, gold)
	if r != 1 || p >= 1 {
		t.Fatalf("merged: %v %v %v", p, r, f1)
	}
	// Both empty (all singletons).
	p, r, f1 = PairwiseF1([][]int{{0}, {1}}, [][]int{{0}, {1}})
	if f1 != 1 {
		t.Fatalf("singletons: %v %v %v", p, r, f1)
	}
}

func TestTopKSimilar(t *testing.T) {
	got := TopKSimilar("madison", []string{"madisno", "chicago", "madison", "boston"}, 2, JaroWinkler)
	if len(got) != 2 || got[0].Text != "madison" {
		t.Fatalf("topk: %v", got)
	}
	if got[0].Score < got[1].Score {
		t.Fatal("not sorted")
	}
	all := TopKSimilar("x", []string{"a", "b"}, 0, JaroWinkler)
	if len(all) != 2 {
		t.Fatalf("k=0 should return all: %v", all)
	}
}

func TestQgramJaccardBasics(t *testing.T) {
	if s := QgramJaccard("night", "nacht"); s <= 0 || s >= 1 {
		t.Fatalf("night/nacht = %v", s)
	}
	if s := QgramJaccard("same", "same"); s != 1 {
		t.Fatalf("identical = %v", s)
	}
}

func TestTokenJaccardBasics(t *testing.T) {
	if s := TokenJaccard("Madison, Wisconsin", "madison wisconsin"); s != 1 {
		t.Fatalf("punctuation/case fold = %v", s)
	}
	if s := TokenJaccard("a b", "b c"); s < 0.3 || s > 0.34 {
		t.Fatalf("partial overlap = %v", s)
	}
}
