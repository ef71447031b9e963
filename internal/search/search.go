// Package search is the IR substrate: an inverted index over a corpus with
// BM25 and TF-IDF ranking plus snippet generation. It plays two roles in
// the reproduction: (1) the keyword-search baseline that Section 2 of the
// paper argues cannot answer structured questions like "the average
// March-September temperature in Madison", and (2) the keyword entry mode
// of the user layer, from which queries are reformulated into structured
// ones.
//
// The index is a handful of flat arrays. A term dictionary maps each term
// to a term ID; each term's postings are sorted by dense document ordinal;
// every posting's token positions live in one shared arena; and the
// per-document tables (DocID, title, text, length, sentences) are slices
// indexed by ordinal. A query scores into a pooled dense accumulator and
// answers each hit's snippet from the stored positions and sentence
// boundaries, so nothing is tokenized at query time except the query.
//
// An index scores against its collection: the document count, total
// length and per-term document frequencies that BM25 and TF-IDF read. A
// whole-corpus index (BuildIndex) is its own collection. A partition
// (BuildPartitions) holds only some documents but scores against the
// whole corpus's statistics, so its scores are == to the whole index's
// and MergeHits over every partition's top k is the whole index's top k.
package search

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/doc"
)

// Ranking selects the scoring function.
type Ranking int

const (
	// BM25 is Okapi BM25 with k1=1.2, b=0.75.
	BM25 Ranking = iota
	// TFIDF is ln-scaled term frequency times inverse document frequency.
	TFIDF
)

const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// maxSnippet is the byte length past which a snippet is cut.
const maxSnippet = 200

// posting is one document's entry in a term's posting list: the document
// ordinal, the term frequency, and where the tf token positions (ascending)
// start in Index.positions.
type posting struct {
	ord, tf, off uint32
}

// docEntry is the per-document table, indexed by ordinal.
type docEntry struct {
	id    doc.DocID
	title string
	text  string // the text the document was indexed from, for snippets
	len   uint32 // tokens, title included
	sents uint32 // the document's sentences start here in tables.sents
}

// sentence is one body sentence: its byte span in the text and the
// position of its first token. Positions count the title tokens first, so
// a document's first sentence starts after them.
type sentence struct {
	start, end, firstTok uint32
}

// tables is everything an index holds; Rebuild swaps it whole.
type tables struct {
	dict      map[string]uint32 // term -> term ID
	postings  [][]posting       // by term ID, each sorted by ordinal
	positions []uint32          // every posting's positions, addressed by posting.off
	docs      []docEntry        // by ordinal
	sents     []sentence        // every document's sentences, in ordinal order
	totalLen  int
	// coll is the collection a partition scores against; nil for a
	// whole-corpus index, whose collection is itself.
	coll *collection
}

// collection is the whole corpus's scoring statistics, as a partition
// holds them: document count, total length in tokens, and each term's
// document frequency by the partition's own term ID.
type collection struct {
	n, totalLen int
	df          []uint32
}

// Index is an inverted index. Build once, then query concurrently.
type Index struct {
	mu sync.RWMutex
	tables
	add     addScratch
	queries sync.Pool // *queryScratch
}

// addScratch is Add's reused working memory.
type addScratch struct {
	term     []byte   // normalized form of the current token
	toks     []uint32 // term ID at each position of the document
	bodyOffs []uint32 // byte offset of each body token
	sents    []doc.Span
	count    []uint32 // by term ID: tf, then the arena write cursor
	distinct []uint32 // the document's term IDs, first occurrence order
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{tables: tables{dict: make(map[string]uint32)}}
}

// BuildIndex indexes every document in the corpus.
func BuildIndex(corpus *doc.Corpus) *Index {
	return buildOf(corpus.Docs())
}

func buildOf(docs []*doc.Document) *Index {
	idx := NewIndex()
	for _, d := range docs {
		idx.Add(d)
	}
	idx.add = addScratch{}
	return idx
}

// BuildPartitions indexes the corpus as n partitions, one goroutine
// each: partition i holds the documents d with part(d) == i, in corpus
// order. It then sums the partitions' document counts, lengths and
// per-term document frequencies, and gives every partition those
// whole-corpus statistics to score against.
func BuildPartitions(corpus *doc.Corpus, n int, part func(*doc.Document) int) []*Index {
	docs := make([][]*doc.Document, n)
	for _, d := range corpus.Docs() {
		i := part(d)
		docs[i] = append(docs[i], d)
	}
	parts := make([]*Index, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = buildOf(docs[i])
		}()
	}
	wg.Wait()

	var whole collection
	df := make(map[string]uint32)
	for _, p := range parts {
		whole.n += len(p.docs)
		whole.totalLen += p.totalLen
		for term, id := range p.dict {
			df[term] += uint32(len(p.postings[id]))
		}
	}
	for _, p := range parts {
		c := &collection{n: whole.n, totalLen: whole.totalLen, df: make([]uint32, len(p.postings))}
		for term, id := range p.dict {
			c.df[id] = df[term]
		}
		p.coll = c
	}
	return parts
}

// Rebuild re-indexes corpus off to the side and then swaps the result in,
// so a query sees either the old documents or the new ones, and callers
// holding idx never need a new pointer. The result is a whole-corpus
// index, whatever idx was before.
func (idx *Index) Rebuild(corpus *doc.Corpus) {
	fresh := BuildIndex(corpus)
	idx.mu.Lock()
	idx.tables = fresh.tables
	idx.mu.Unlock()
}

// Add indexes one new document. Title terms are indexed too (titles
// matter for entity-style queries like "Madison Wisconsin"); they take the
// first positions, ahead of the body.
func (idx *Index) Add(d *doc.Document) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	sc := &idx.add
	ord := uint32(len(idx.docs))
	sc.toks = idx.appendTerms(sc.toks[:0], nil, d.Title)
	titleLen := uint32(len(sc.toks))
	sc.bodyOffs = sc.bodyOffs[:0]
	sc.toks = idx.appendTerms(sc.toks, &sc.bodyOffs, d.Text)

	// Sentence boundaries as token positions: a sentence's first token is
	// the first body token at or after its start.
	idx.docs = append(idx.docs, docEntry{
		id: d.ID, title: d.Title, text: d.Text,
		len: uint32(len(sc.toks)), sents: uint32(len(idx.sents)),
	})
	sc.sents = doc.AppendSentences(sc.sents[:0], d.Text)
	j := 0
	for _, sp := range sc.sents {
		for j < len(sc.bodyOffs) && sc.bodyOffs[j] < uint32(sp.Start) {
			j++
		}
		idx.sents = append(idx.sents, sentence{
			start: uint32(sp.Start), end: uint32(sp.End), firstTok: titleLen + uint32(j),
		})
	}

	// Count each term's frequency, give each term's positions a run of the
	// arena, then drop every position into its term's run.
	if n := len(idx.postings); len(sc.count) < n {
		sc.count = append(sc.count, make([]uint32, n-len(sc.count))...)
	}
	sc.distinct = sc.distinct[:0]
	for _, t := range sc.toks {
		if sc.count[t] == 0 {
			sc.distinct = append(sc.distinct, t)
		}
		sc.count[t]++
	}
	next := uint32(len(idx.positions))
	idx.positions = slices.Grow(idx.positions, len(sc.toks))[:int(next)+len(sc.toks)]
	for _, t := range sc.distinct {
		tf := sc.count[t]
		idx.postings[t] = append(idx.postings[t], posting{ord: ord, tf: tf, off: next})
		sc.count[t] = next
		next += tf
	}
	for p, t := range sc.toks {
		idx.positions[sc.count[t]] = uint32(p)
		sc.count[t]++
	}
	for _, t := range sc.distinct {
		sc.count[t] = 0
	}
	idx.totalLen += len(sc.toks)
}

// appendTerms appends the term ID of each of text's tokens to toks, adding
// new terms to the dictionary, and the byte offset of each to offs when it
// is not nil.
func (idx *Index) appendTerms(toks []uint32, offs *[]uint32, text string) []uint32 {
	sc := &idx.add
	for sp, ok := doc.NextToken(text, 0); ok; sp, ok = doc.NextToken(text, sp.End) {
		sc.term = doc.AppendTerm(sc.term[:0], text[sp.Start:sp.End])
		if len(sc.term) == 0 {
			continue
		}
		id, ok := idx.dict[string(sc.term)]
		if !ok {
			id = uint32(len(idx.postings))
			idx.dict[string(sc.term)] = id
			idx.postings = append(idx.postings, nil)
		}
		toks = append(toks, id)
		if offs != nil {
			*offs = append(*offs, uint32(sp.Start))
		}
	}
	return toks
}

// Hit is one ranked search result.
type Hit struct {
	DocID   doc.DocID
	Title   string
	Score   float64
	Snippet string
}

// queryScratch is one query's working memory, pooled per index. scores
// and seen are indexed by ordinal and are all zero between queries; a
// query clears the entries it touched.
type queryScratch struct {
	term    []byte
	terms   []uint32 // the query's known term IDs, in query order
	want    []uint32 // the distinct ones, for snippets
	scores  []float64
	seen    []bool   // touched ordinals: a TF-IDF score can stay 0
	touched []uint32 // ordinals with a score, first-touch order
	top     []uint32 // min-heap of the best ordinals, worst at the root
	counts  []uint32 // per-sentence query-term counts of one document
	docs    []docEntry
}

func (idx *Index) getScratch() *queryScratch {
	s, _ := idx.queries.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	return s
}

func (idx *Index) putScratch(s *queryScratch) {
	s.docs = nil
	idx.queries.Put(s)
}

// lookup fills s.terms with the term IDs of query's terms that the index
// knows, in query order and with repeats, and s.want with the distinct
// ones. It returns the number of terms in the query, known or not.
func (idx *Index) lookup(s *queryScratch, query string) int {
	s.terms, s.want = s.terms[:0], s.want[:0]
	n := 0
	for sp, ok := doc.NextToken(query, 0); ok; sp, ok = doc.NextToken(query, sp.End) {
		s.term = doc.AppendTerm(s.term[:0], query[sp.Start:sp.End])
		if len(s.term) == 0 {
			continue
		}
		n++
		id, ok := idx.dict[string(s.term)]
		if !ok {
			continue
		}
		s.terms = append(s.terms, id)
		if !slices.Contains(s.want, id) {
			s.want = append(s.want, id)
		}
	}
	return n
}

// Search ranks documents for a free-text query and returns the top k.
func (idx *Index) Search(query string, k int, ranking Ranking) []Hit {
	if k <= 0 {
		return nil
	}
	s := idx.getScratch()
	defer idx.putScratch(s)
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if idx.lookup(s, query) == 0 {
		return nil
	}
	n, totalLen := len(idx.docs), idx.totalLen
	if idx.coll != nil {
		n, totalLen = idx.coll.n, idx.coll.totalLen
	}
	avgLen := 1.0
	if n > 0 {
		avgLen = float64(totalLen) / float64(n)
	}
	if len(s.scores) < len(idx.docs) {
		s.scores = make([]float64, len(idx.docs))
		s.seen = make([]bool, len(idx.docs))
	}
	// Accumulate in query-term order, as a per-document sum, so every score
	// is bit-identical to summing the same terms one at a time.
	s.touched = s.touched[:0]
	for _, t := range s.terms {
		plist := idx.postings[t]
		df := float64(len(plist))
		if idx.coll != nil {
			df = float64(idx.coll.df[t])
		}
		var idf float64
		switch ranking {
		case BM25:
			idf = math.Log(1 + (float64(n)-df+0.5)/(df+0.5))
		case TFIDF:
			idf = math.Log(float64(n+1) / (df + 1))
		}
		for _, p := range plist {
			tf := float64(p.tf)
			var sc float64
			switch ranking {
			case BM25:
				dl := float64(idx.docs[p.ord].len)
				sc = idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
			case TFIDF:
				sc = idf * (1 + math.Log(tf))
			}
			if !s.seen[p.ord] {
				s.seen[p.ord] = true
				s.touched = append(s.touched, p.ord)
			}
			s.scores[p.ord] += sc
		}
	}
	// Bounded top-k selection: a min-heap of the k best hits seen so far
	// (worst at the root), O(n log k). Higher score ranks first, then the
	// lower DocID.
	s.docs = idx.docs
	s.top = s.top[:0]
	for _, ord := range s.touched {
		if len(s.top) < k {
			s.top = append(s.top, ord)
			s.up(len(s.top) - 1)
		} else if s.beats(ord, s.top[0]) {
			s.top[0] = ord
			s.down(0, len(s.top))
		}
	}
	hits := make([]Hit, len(s.top))
	for i := len(s.top) - 1; i >= 0; i-- {
		ord := s.top[0]
		s.top[0] = s.top[i]
		s.down(0, i)
		d := &idx.docs[ord]
		hits[i] = Hit{DocID: d.id, Title: d.title, Score: s.scores[ord], Snippet: idx.snippet(s, ord)}
	}
	for _, ord := range s.touched {
		s.scores[ord], s.seen[ord] = 0, false
	}
	return hits
}

// beats reports whether ordinal a outranks b: higher score wins, ties go
// to the lower DocID (deterministic).
func (s *queryScratch) beats(a, b uint32) bool {
	if s.scores[a] != s.scores[b] {
		return s.scores[a] > s.scores[b]
	}
	return s.docs[a].id < s.docs[b].id
}

// MergeHits merges the top-k lists of disjoint partitions into one top
// k in Search's rank order: higher score first, then the lower DocID. Like
// Search, it returns nil for k <= 0, and for a query with no terms (every
// list nil).
func MergeHits(k int, lists ...[]Hit) []Hit {
	if k <= 0 {
		return nil
	}
	var out []Hit
	for _, l := range lists {
		if l != nil && out == nil {
			out = []Hit{}
		}
		out = append(out, l...)
	}
	slices.SortFunc(out, func(a, b Hit) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.DocID, b.DocID)
	})
	return out[:min(k, len(out))]
}

// up and down restore the heap order of s.top[:n] (worst at the root)
// after entry i changed.
func (s *queryScratch) up(i int) {
	h := s.top
	for i > 0 {
		p := (i - 1) / 2
		if !s.beats(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (s *queryScratch) down(i, n int) {
	h := s.top
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && s.beats(h[c], h[c+1]) {
			c++
		}
		if !s.beats(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// find returns the posting of document ord in plist.
func find(plist []posting, ord uint32) (posting, bool) {
	i := sort.Search(len(plist), func(i int) bool { return plist[i].ord >= ord })
	if i < len(plist) && plist[i].ord == ord {
		return plist[i], true
	}
	return posting{}, false
}

// snippet returns the document's first sentence holding the most
// occurrences of the query's terms (s.want). It counts each term's stored
// positions per sentence; nothing is tokenized.
func (idx *Index) snippet(s *queryScratch, ord uint32) string {
	d := &idx.docs[ord]
	end := uint32(len(idx.sents))
	if int(ord)+1 < len(idx.docs) {
		end = idx.docs[ord+1].sents
	}
	sents := idx.sents[d.sents:end]
	if len(sents) == 0 {
		return ""
	}
	s.counts = append(s.counts[:0], make([]uint32, len(sents))...)
	for _, t := range s.want {
		p, ok := find(idx.postings[t], ord)
		if !ok {
			continue
		}
		for _, pos := range idx.positions[p.off : p.off+p.tf] {
			// The sentence holding pos is the last one starting at or
			// before it; title positions precede every sentence.
			if i := sort.Search(len(sents), func(i int) bool { return sents[i].firstTok > pos }) - 1; i >= 0 {
				s.counts[i]++
			}
		}
	}
	best := 0
	for i, c := range s.counts {
		if c > s.counts[best] {
			best = i
		}
	}
	return truncateSnippet(d.text[sents[best].start:sents[best].end])
}

// truncateSnippet cuts a sentence longer than maxSnippet bytes at the last
// rune boundary within the limit and marks the cut with "...".
func truncateSnippet(sent string) string {
	if len(sent) > maxSnippet {
		cut := maxSnippet
		for cut > maxSnippet-utf8.UTFMax && !utf8.RuneStart(sent[cut]) {
			cut--
		}
		sent = sent[:cut] + "..."
	}
	return strings.TrimSpace(sent)
}
