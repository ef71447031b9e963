package search

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/doc"
	"repro/internal/synth"
)

// synthCorpus generates the served daemon's corpus shape: cities plus 20
// people and 30 filler articles.
func synthCorpus(cities int) (*doc.Corpus, *synth.Truth) {
	return synth.Generate(synth.Config{Seed: 1, Cities: cities, People: 20, Filler: 30, MentionsPerPerson: 2})
}

// sameHits compares two result lists exactly: scores by ==, and nil apart
// from empty.
func sameHits(got, want []Hit) bool {
	return (got == nil) == (want == nil) && reflect.DeepEqual(got, want)
}

// TestSearchMatchesReference runs every city x month query of the served
// search and ask shapes through the flat index and the map-based reference
// and requires identical hits: DocIDs, titles, snippets, and scores equal
// bit for bit, at k = 1, 5 and 20 under both rankings. The reference ranks
// by a strict total order (score, then DocID), so its top k is the first k
// of its top 20, and one reference run serves all three k. The check is
// single-goroutine and deterministic, so under -race (about ten times
// slower) it takes every tenth city; the full run is the non-race one.
func TestSearchMatchesReference(t *testing.T) {
	corpus, truth := synthCorpus(400)
	idx, ref := BuildIndex(corpus), buildRefIndex(corpus)
	stride := 1
	if raceEnabled {
		stride = 10
	}
	queries := 0
	for i := 0; i < len(truth.Cities); i += stride {
		c := truth.Cities[i]
		for _, month := range synth.Months {
			for _, q := range []string{
				fmt.Sprintf("%s %s temperature", c.Name, month),
				fmt.Sprintf("average %s temperature %s %s", month, c.Name, c.State),
			} {
				for _, ranking := range []Ranking{BM25, TFIDF} {
					want := ref.search(q, 20, ranking)
					for _, k := range []int{1, 5, 20} {
						if got := idx.Search(q, k, ranking); !sameHits(got, want[:min(k, len(want))]) {
							t.Fatalf("Search(%q, %d, %v)\n got %+v\nwant %+v", q, k, ranking, got, want[:min(k, len(want))])
						}
						queries++
					}
				}
			}
		}
	}
	t.Logf("%d searches matched", queries)
}

// checkSnippets indexes text (under a fixed title, beside a second
// document) and requires Search to match the reference
// for query, snippets included.
func checkSnippets(t *testing.T, text, query string) {
	t.Helper()
	corpus := doc.NewCorpus()
	corpus.Add(doc.Document{Title: "Fuzz D. Title", Text: text})
	corpus.Add(doc.Document{Title: "Other", Text: "The average temperature in April is 48.0 degrees. D. Smith lives here."})
	idx, ref := BuildIndex(corpus), buildRefIndex(corpus)
	for _, ranking := range []Ranking{BM25, TFIDF} {
		if got, want := idx.Search(query, 5, ranking), ref.search(query, 5, ranking); !sameHits(got, want) {
			t.Fatalf("Search(%q) over %q\n got %+v\nwant %+v", query, text, got, want)
		}
	}
}

func FuzzSnippet(f *testing.F) {
	long := "a" + strings.Repeat("temperature x ", 14) + "ééé temperature. Short one."
	for _, seed := range [][2]string{
		{"D. Smith met David Smith. Smith is 70.5 years old.", "smith"},
		{"The average is 1,024.5 degrees. U.S.A. e.g. x. Average again!", "average degrees"},
		{"First paragraph line\n\nSecond paragraph temperature\n\n\nthird temperature temperature", "temperature"},
		{"Zürich liegt am Zürichsee. Straße 5½ — São Paulo. Zürich! ΑΒΓ. Д. Иванов", "zürich д"},
		{long, "temperature"},
		{"bad \xff bytes\xfe. \xc3 Trunc \xe2\x82 A\x82. B. bytes", "bytes b"},
		{"   \n\n  ", "anything"},
		{"Title words only. fuzz title", "fuzz d title"},
		{"average temperature in April. april average temperature", "average temperature"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(checkSnippets)
}

func TestSnippetCutsAtRuneBoundary(t *testing.T) {
	// 199 ASCII bytes, then a two-byte rune straddling the 200-byte limit.
	sent := strings.Repeat("a", 198) + " é and more text past the limit."
	got := truncateSnippet(sent)
	if !utf8.ValidString(got) {
		t.Fatalf("snippet %q is not valid UTF-8", got)
	}
	if want := strings.Repeat("a", 198) + " ..."; got != want {
		t.Fatalf("snippet = %q, want %q", got, want)
	}
	ascii := strings.Repeat("b", 250)
	if got, want := truncateSnippet(ascii), ascii[:200]+"..."; got != want {
		t.Fatalf("ASCII cut = %q, want %q", got, want)
	}

	corpus := doc.NewCorpus()
	corpus.Add(doc.Document{Title: "Umlaut", Text: strings.Repeat("ü", 150) + " zürich."})
	hits := BuildIndex(corpus).Search("zürich", 1, BM25)
	if len(hits) != 1 || !utf8.ValidString(hits[0].Snippet) || !strings.HasSuffix(hits[0].Snippet, "...") {
		t.Fatalf("hits = %+v", hits)
	}
}

// guidedHotQueries returns the served search shape over every city and
// month, in a fixed interleaved order.
func guidedHotQueries(truth *synth.Truth) []string {
	var qs []string
	for i, c := range truth.Cities {
		qs = append(qs, fmt.Sprintf("%s %s temperature", c.Name, synth.Months[i%12]))
	}
	return qs
}

// TestSearchAllocBudget holds a served-shape search (k=5, snippets
// included) to at most 8 allocations. The map-based index made 1,818; the
// flat one makes 1, the returned slice.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	corpus, truth := synthCorpus(400)
	idx := BuildIndex(corpus)
	qs := guidedHotQueries(truth)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		idx.Search(qs[i%len(qs)], 5, BM25)
		i++
	})
	if allocs > 8 {
		t.Fatalf("Search made %.1f allocations per query, budget 8", allocs)
	}
}

// TestBuildIndexAllocBudget holds indexing the 400-city corpus to a fifth
// of the map-based index's 163,660 allocations. Measured: 7,826.
func TestBuildIndexAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	corpus, _ := synthCorpus(400)
	allocs := testing.AllocsPerRun(2, func() { BuildIndex(corpus) })
	if allocs > 163660/5 {
		t.Fatalf("BuildIndex made %.0f allocations, budget %d", allocs, 163660/5)
	}
}

// TestIndexHeapBudget holds the index's live heap to half the map-based
// index's: 2.59 MiB for the 400-city corpus and 20.69 MiB for 4,000 cities.
// Measured (go1.24, amd64), with the corpus kept alive across both
// readings: 1.01–1.02 MiB and 8.78 MiB. The document texts are shared with
// the corpus and not counted.
func TestIndexHeapBudget(t *testing.T) {
	for _, tc := range []struct {
		cities int
		parent float64 // MiB
	}{{400, 2.59}, {4000, 20.69}} {
		corpus, _ := synthCorpus(tc.cities)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		idx := BuildIndex(corpus)
		runtime.GC()
		runtime.ReadMemStats(&after)
		mib := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		// The corpus must outlive the second reading: collected between
		// the two, its documents would subtract from the index's bytes.
		runtime.KeepAlive(corpus)
		runtime.KeepAlive(idx)
		if mib > tc.parent/2 {
			t.Errorf("%d cities: index holds %.2f MiB, budget %.2f", tc.cities, mib, tc.parent/2)
		}
		t.Logf("%d cities: %d docs, %d terms, %.2f MiB", tc.cities, idx.N(), idx.Terms(), mib)
	}
}

// byTitle assigns a document to one of n partitions the way a sharded
// dataspace places the entity's rows.
func byTitle(n int) func(*doc.Document) int {
	return func(d *doc.Document) int { return cluster.Partition(d.Title, n) }
}

// liveHeap returns the live heap in bytes after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestPartitionHeapBudget holds each of two partitions of the 4,000-city
// corpus to 0.6x the whole index's live heap, and the two together to
// 1.1x: a sharded dataspace pays about one index, not one per shard.
// Measured (go1.24, amd64): 0.49x each of 8.78 MiB, 0.98x together.
func TestPartitionHeapBudget(t *testing.T) {
	corpus, _ := synthCorpus(4000)
	base := liveHeap()
	whole := BuildIndex(corpus)
	wholeB := liveHeap() - base
	runtime.KeepAlive(whole)
	whole = nil

	base = liveHeap()
	parts := BuildPartitions(corpus, 2, byTitle(2))
	both := liveHeap() - base
	parts[1] = nil
	first := liveHeap() - base
	runtime.KeepAlive(parts)
	runtime.KeepAlive(corpus) // else the corpus dies mid-measurement
	second := both - first
	t.Logf("whole %.2f MiB; partitions %.2f + %.2f = %.2f MiB (%.2fx, %.2fx, %.2fx)",
		wholeB/(1<<20), first/(1<<20), second/(1<<20), both/(1<<20), first/wholeB, second/wholeB, both/wholeB)
	for i, b := range []float64{first, second} {
		if b > 0.6*wholeB {
			t.Errorf("partition %d holds %.2f MiB, budget 0.6 x %.2f MiB", i, b/(1<<20), wholeB/(1<<20))
		}
	}
	if both > 1.1*wholeB {
		t.Errorf("partitions hold %.2f MiB together, budget 1.1 x %.2f MiB", both/(1<<20), wholeB/(1<<20))
	}
}

// TestPartitionStatisticsSumToWhole: every partition's collection is the
// whole corpus's: its document count and total length, and for each of
// its terms the whole index's document frequency, which is also the sum
// of the partitions' own frequencies.
func TestPartitionStatisticsSumToWhole(t *testing.T) {
	corpus, _ := synthCorpus(400)
	whole := BuildIndex(corpus)
	for _, n := range []int{1, 2, 3, 4} {
		parts := BuildPartitions(corpus, n, byTitle(n))
		docs, totalLen := 0, 0
		localDF := map[string]int{}
		for i, p := range parts {
			if p.coll.n != len(whole.docs) || p.coll.totalLen != whole.totalLen {
				t.Fatalf("n=%d partition %d: collection N=%d len=%d, whole N=%d len=%d",
					n, i, p.coll.n, p.coll.totalLen, len(whole.docs), whole.totalLen)
			}
			docs += len(p.docs)
			totalLen += p.totalLen
			for term, id := range p.dict {
				wid, ok := whole.dict[term]
				if !ok {
					t.Fatalf("n=%d partition %d: term %q unknown to the whole index", n, i, term)
				}
				if got, want := int(p.coll.df[id]), len(whole.postings[wid]); got != want {
					t.Fatalf("n=%d partition %d: df(%q) = %d, whole %d", n, i, term, got, want)
				}
				localDF[term] += len(p.postings[id])
			}
		}
		if docs != len(whole.docs) || totalLen != whole.totalLen {
			t.Fatalf("n=%d: partitions sum to N=%d len=%d, whole N=%d len=%d", n, docs, totalLen, len(whole.docs), whole.totalLen)
		}
		if len(localDF) != len(whole.dict) {
			t.Fatalf("n=%d: partitions know %d terms, whole %d", n, len(localDF), len(whole.dict))
		}
		for term, df := range localDF {
			if want := len(whole.postings[whole.dict[term]]); df != want {
				t.Fatalf("n=%d: partition dfs of %q sum to %d, whole %d", n, term, df, want)
			}
		}
	}
}

func TestRebuildKeepsPointer(t *testing.T) {
	corpus := doc.NewCorpus()
	d := corpus.Add(doc.Document{Title: "Madison", Text: "Cold winters."})
	idx := BuildIndex(corpus)
	if hits := idx.Search("cold", 1, BM25); len(hits) != 1 || hits[0].Snippet != "Cold winters." {
		t.Fatalf("before: %+v", hits)
	}
	d.Text = "Warm summers."
	idx.Rebuild(corpus)
	if hits := idx.Search("cold", 1, BM25); len(hits) != 0 {
		t.Fatalf("after: stale hits %+v", hits)
	}
	if hits := idx.Search("warm", 1, BM25); len(hits) != 1 || hits[0].Snippet != "Warm summers." {
		t.Fatalf("after: %+v", hits)
	}
}

var benchHits []Hit

// BenchmarkSearch runs the served search shape on the 400-city corpus.
func BenchmarkSearch(b *testing.B) {
	corpus, truth := synthCorpus(400)
	idx := BuildIndex(corpus)
	qs := guidedHotQueries(truth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = idx.Search(qs[i%len(qs)], 5, BM25)
	}
}

var benchIndex *Index

// BenchmarkBuildIndex indexes the 400- and 4,000-city corpora.
func BenchmarkBuildIndex(b *testing.B) {
	for _, cities := range []int{400, 4000} {
		corpus, _ := synthCorpus(cities)
		b.Run(fmt.Sprintf("cities=%d", cities), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchIndex = BuildIndex(corpus)
			}
		})
	}
}
