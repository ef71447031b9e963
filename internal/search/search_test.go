package search

import (
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/synth"
)

func smallCorpus() *doc.Corpus {
	c := doc.NewCorpus()
	c.Add(doc.Document{Title: "Madison, Wisconsin", Text: "Madison is the capital of Wisconsin. The average temperature in September is 62 degrees."})
	c.Add(doc.Document{Title: "Chicago", Text: "Chicago is a large city in Illinois on Lake Michigan."})
	c.Add(doc.Document{Title: "Cheese", Text: "Wisconsin is famous for cheese. Cheese cheese cheese."})
	c.Add(doc.Document{Title: "Empty-ish", Text: "..."})
	return c
}

func TestBuildAndStats(t *testing.T) {
	c := smallCorpus()
	idx := BuildIndex(c)
	if idx.N() != 4 {
		t.Fatalf("N = %d", idx.N())
	}
	if idx.Terms() == 0 {
		t.Fatal("no terms indexed")
	}
	if df := idx.DocFreq("wisconsin"); df != 2 {
		t.Fatalf("DocFreq(wisconsin) = %d", df)
	}
	if df := idx.DocFreq("WISCONSIN"); df != 2 {
		t.Fatal("DocFreq must normalize case")
	}
	if df := idx.DocFreq("zebra"); df != 0 {
		t.Fatalf("DocFreq(zebra) = %d", df)
	}
}

func TestSearchRanking(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	hits := idx.Search("madison temperature", 10, BM25)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("top hit = %q", hits[0].Title)
	}
	if hits[0].Score <= 0 {
		t.Fatal("score must be positive")
	}
	// The snippet should contain a query term.
	if !strings.Contains(strings.ToLower(hits[0].Snippet), "temperature") &&
		!strings.Contains(strings.ToLower(hits[0].Snippet), "madison") {
		t.Fatalf("snippet %q lacks query terms", hits[0].Snippet)
	}
}

func TestSearchTFRepetitionSaturates(t *testing.T) {
	// BM25 saturates term frequency: the cheese-spam document should not
	// dominate a multi-term query mentioning wisconsin + capital.
	idx := BuildIndex(smallCorpus())
	hits := idx.Search("wisconsin capital", 10, BM25)
	if len(hits) == 0 || hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("hits: %+v", hits)
	}
}

func TestSearchTFIDF(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	hits := idx.Search("cheese", 10, TFIDF)
	if len(hits) != 1 || hits[0].Title != "Cheese" {
		t.Fatalf("tfidf hits: %+v", hits)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	if hits := idx.Search("", 10, BM25); hits != nil {
		t.Fatal("empty query should return nil")
	}
	if hits := idx.Search("madison", 0, BM25); hits != nil {
		t.Fatal("k=0 should return nil")
	}
	if hits := idx.Search("zzz qqq", 10, BM25); len(hits) != 0 {
		t.Fatal("no-match query should return empty")
	}
	hits := idx.Search("wisconsin", 1, BM25)
	if len(hits) != 1 {
		t.Fatalf("k=1 returned %d", len(hits))
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	c := doc.NewCorpus()
	c.Add(doc.Document{Title: "A", Text: "identical content here"})
	c.Add(doc.Document{Title: "B", Text: "identical content here"})
	idx := BuildIndex(c)
	h1 := idx.Search("identical content", 2, BM25)
	h2 := idx.Search("identical content", 2, BM25)
	if h1[0].DocID != h2[0].DocID {
		t.Fatal("tie-break not deterministic")
	}
	if h1[0].DocID > h1[1].DocID {
		t.Fatal("ties should order by DocID")
	}
}

func TestSearchOnSynthCorpus(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: 3, Cities: 30, People: 10, Filler: 20, MentionsPerPerson: 2})
	idx := BuildIndex(corpus)
	hits := idx.Search("average temperature Madison Wisconsin", 5, BM25)
	if len(hits) == 0 {
		t.Fatal("no hits on synth corpus")
	}
	if hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("top hit = %q", hits[0].Title)
	}
	// The crucial IR limitation the paper motivates: the top hit contains
	// the words, but nothing in the hit list IS the average — that is what
	// the structured pipeline computes in E1.
	for _, h := range hits {
		if strings.Contains(h.Snippet, "average of") {
			t.Fatal("keyword search should not compute aggregates")
		}
	}
}

func TestQueryTerms(t *testing.T) {
	got := QueryTerms("Average Temperature, Madison!")
	want := []string{"average", "temperature", "madison"}
	if len(got) != len(want) {
		t.Fatalf("QueryTerms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryTerms = %v", got)
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	idx := BuildIndex(smallCorpus())
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 200; j++ {
				idx.Search("wisconsin cheese madison", 3, BM25)
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
