package search

import "repro/internal/doc"

// N returns the number of indexed documents.
func (idx *Index) N() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.docs)
}

// Terms returns the number of distinct terms.
func (idx *Index) Terms() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.dict)
}

// DocFreq returns how many of the index's own documents contain term.
func (idx *Index) DocFreq(term string) int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	id, ok := idx.dict[doc.NormalizeTerm(term)]
	if !ok {
		return 0
	}
	return len(idx.postings[id])
}

// QueryTerms normalizes a free-text query into index terms.
func QueryTerms(query string) []string {
	var out []string
	for _, tk := range doc.Tokenize(query) {
		if t := doc.NormalizeTerm(tk.Text); t != "" {
			out = append(out, t)
		}
	}
	return out
}
