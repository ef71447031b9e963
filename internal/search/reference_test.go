package search

import (
	"container/heap"
	"math"

	"repro/internal/doc"
)

// refIndex is the map-based index the flat one replaced, kept as the
// reference it must match hit for hit: a map from term to postings, maps
// keyed by DocID, a map accumulator, and snippets that tokenize every
// sentence of a hit on its own. The one change is the snippet cut, which
// shares truncateSnippet's rune-boundary fix.
type refIndex struct {
	postings map[string][]refPosting
	docLen   map[doc.DocID]int
	titles   map[doc.DocID]string
	corpus   *doc.Corpus
	sents    map[doc.DocID][]refSentence
	totalLen int
	n        int
}

type refPosting struct {
	docID doc.DocID
	tf    int
}

func buildRefIndex(corpus *doc.Corpus) *refIndex {
	idx := &refIndex{
		postings: make(map[string][]refPosting),
		docLen:   make(map[doc.DocID]int),
		titles:   make(map[doc.DocID]string),
		corpus:   corpus,
		sents:    make(map[doc.DocID][]refSentence),
	}
	for _, d := range corpus.Docs() {
		idx.add(d)
	}
	return idx
}

func (idx *refIndex) add(d *doc.Document) {
	terms := map[string][]int{}
	pos := 0
	for _, tk := range doc.Tokenize(d.Title) {
		t := doc.NormalizeTerm(tk.Text)
		if t != "" {
			terms[t] = append(terms[t], pos)
			pos++
		}
	}
	for _, tk := range doc.Tokenize(d.Text) {
		t := doc.NormalizeTerm(tk.Text)
		if t != "" {
			terms[t] = append(terms[t], pos)
			pos++
		}
	}
	for t, positions := range terms {
		idx.postings[t] = append(idx.postings[t], refPosting{docID: d.ID, tf: len(positions)})
	}
	idx.docLen[d.ID] = pos
	idx.titles[d.ID] = d.Title
	idx.totalLen += pos
	idx.n++
}

func (idx *refIndex) search(query string, k int, ranking Ranking) []Hit {
	terms := QueryTerms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	avgLen := 1.0
	if idx.n > 0 {
		avgLen = float64(idx.totalLen) / float64(idx.n)
	}
	scores := map[doc.DocID]float64{}
	for _, term := range terms {
		plist := idx.postings[term]
		if len(plist) == 0 {
			continue
		}
		df := float64(len(plist))
		var idf float64
		switch ranking {
		case BM25:
			idf = math.Log(1 + (float64(idx.n)-df+0.5)/(df+0.5))
		case TFIDF:
			idf = math.Log(float64(idx.n+1) / (df + 1))
		}
		for _, p := range plist {
			tf := float64(p.tf)
			var s float64
			switch ranking {
			case BM25:
				dl := float64(idx.docLen[p.docID])
				s = idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
			case TFIDF:
				s = idf * (1 + math.Log(tf))
			}
			scores[p.docID] += s
		}
	}
	h := make(hitHeap, 0, k)
	for id, s := range scores {
		hit := Hit{DocID: id, Score: s}
		if len(h) < k {
			hit.Title = idx.titles[id]
			heap.Push(&h, hit)
			continue
		}
		if hitBeats(hit, h[0]) {
			hit.Title = idx.titles[id]
			h[0] = hit
			heap.Fix(&h, 0)
		}
	}
	hits := make([]Hit, len(h))
	for i := len(hits) - 1; i >= 0; i-- {
		hits[i] = heap.Pop(&h).(Hit)
	}
	for i := range hits {
		hits[i].Snippet = idx.snippet(hits[i].DocID, terms)
	}
	return hits
}

// hitBeats reports whether a outranks b: higher score wins, ties go to the
// lower DocID (deterministic).
func hitBeats(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// hitHeap is a min-heap by rank: the root is the worst of the kept hits.
type hitHeap []Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return hitBeats(h[j], h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (idx *refIndex) snippet(id doc.DocID, terms []string) string {
	want := map[string]bool{}
	for _, t := range terms {
		want[t] = true
	}
	best := ""
	bestScore := -1
	for _, sent := range idx.sentences(id) {
		score := 0
		for _, t := range sent.terms {
			if want[t] {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			best = sent.text
		}
	}
	return truncateSnippet(best)
}

// refSentence is one sentence of a document and the normalized terms of
// its tokens.
type refSentence struct {
	text  string
	terms []string
}

// sentences splits document id into sentences and tokenizes each sentence
// on its own, as the old snippet did on every call. The result is cached
// per document only so the oracle runs in seconds.
func (idx *refIndex) sentences(id doc.DocID) []refSentence {
	if sents, ok := idx.sents[id]; ok {
		return sents
	}
	var sents []refSentence
	if d := idx.corpus.Get(id); d != nil {
		for _, sp := range doc.Sentences(d.Text) {
			sent := refSentence{text: d.Slice(sp)}
			for _, tk := range doc.Tokenize(sent.text) {
				sent.terms = append(sent.terms, doc.NormalizeTerm(tk.Text))
			}
			sents = append(sents, sent)
		}
	}
	idx.sents[id] = sents
	return sents
}
