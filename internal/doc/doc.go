// Package doc defines the document model shared by every layer of the
// system: documents, character spans, tokens, and corpora. It is the
// "unstructured data" side of the DGE model — everything the extraction
// pipeline consumes is expressed in these types.
package doc

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// DocID identifies a document within a corpus. IDs are assigned by the
// corpus and are stable across snapshots of the same logical document.
type DocID uint64

// Span is a half-open character range [Start, End) into a document's text.
type Span struct {
	Start int
	End   int
}

// Len returns the number of bytes covered by the span.
func (s Span) Len() int { return s.End - s.Start }

// Contains reports whether s fully contains other.
func (s Span) Contains(other Span) bool {
	return s.Start <= other.Start && other.End <= s.End
}

// Overlaps reports whether the two spans share at least one position.
func (s Span) Overlaps(other Span) bool {
	return s.Start < other.End && other.Start < s.End
}

// Valid reports whether the span is well formed (0 <= Start <= End).
func (s Span) Valid() bool { return 0 <= s.Start && s.Start <= s.End }

func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Start, s.End) }

// Document is a single unstructured item: a web page, wiki article, email,
// or text file. Title and Source are metadata carried through extraction
// into provenance records.
type Document struct {
	ID     DocID
	Title  string
	Source string // origin URL or path
	Text   string
	Meta   map[string]string
}

// Slice returns the text covered by span, clamped to the document bounds.
func (d *Document) Slice(s Span) string {
	if s.Start < 0 {
		s.Start = 0
	}
	if s.End > len(d.Text) {
		s.End = len(d.Text)
	}
	if s.Start >= s.End {
		return ""
	}
	return d.Text[s.Start:s.End]
}

// Token is a tokenized word with its span in the original text.
type Token struct {
	Text string
	Span Span
}

// Tokenize splits text into word tokens. A token is a maximal run of
// letters/digits (with embedded '.' or '-' kept when flanked by
// alphanumerics, so "D. Smith" yields "D." and "Smith", and "70.5" stays
// whole). Positions refer to byte offsets in the input, and each token's
// Text is the input sliced at its span.
func Tokenize(text string) []Token {
	var toks []Token
	for sp, ok := NextToken(text, 0); ok; sp, ok = NextToken(text, sp.End) {
		toks = append(toks, Token{Text: text[sp.Start:sp.End], Span: sp})
	}
	return toks
}

// NextToken returns the span of the first token that starts at or after
// byte offset from, and false when the rest of text holds none. It is the
// one tokenizer: Tokenize and the search index both walk text with it,
//
//	for sp, ok := NextToken(text, 0); ok; sp, ok = NextToken(text, sp.End) { ... }
//
// and it allocates nothing. Invalid UTF-8 bytes separate tokens.
func NextToken(text string, from int) (Span, bool) {
	i := from
	for i < len(text) {
		r, w := decodeRune(text, i)
		if isWordRune(r) {
			break
		}
		i += w
	}
	if i >= len(text) {
		return Span{}, false
	}
	start := i
	first, w := decodeRune(text, i)
	i += w
	firstEnd := i
	for i < len(text) {
		r, w := decodeRune(text, i)
		if isWordRune(r) {
			i += w
			continue
		}
		// Keep '.', '-', ',' inside numbers and abbreviations when the
		// next rune continues the token (e.g. "70.5", "1,024", "D.C").
		if r == '.' || r == '-' || r == ',' || r == '\'' {
			if next, nw := decodeRune(text, i+w); isWordRune(next) {
				i += w + nw
				continue
			}
		}
		// Trailing period after a single capital letter is an initial
		// ("D."): keep it attached.
		if r == '.' && i == firstEnd && unicode.IsUpper(first) {
			i += w
		}
		break
	}
	return Span{Start: start, End: i}, true
}

// decodeRune decodes the rune at byte offset i, with an ASCII fast path.
// Past the end of text it returns (utf8.RuneError, 0).
func decodeRune(text string, i int) (rune, int) {
	if i >= len(text) {
		return utf8.RuneError, 0
	}
	if c := text[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(text[i:])
}

func isWordRune(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Sentences splits text into sentence spans using a conservative rule:
// sentences end at '.', '!', '?' or newline boundaries followed by
// whitespace and an uppercase letter (or end of text). Abbreviation-like
// single-capital periods do not terminate sentences.
func Sentences(text string) []Span { return AppendSentences(nil, text) }

// AppendSentences appends text's sentence spans (see Sentences) to dst,
// so a caller splitting many texts can reuse one buffer.
func AppendSentences(dst []Span, text string) []Span {
	start := 0
	for i := 0; i < len(text); i++ {
		terminal := false
		switch text[i] {
		case '.', '!', '?':
			// "D. Smith" — single capital before the period is an initial.
			if text[i] == '.' && isInitial(text[:i]) {
				terminal = false
			} else if i+1 >= len(text) {
				terminal = true
			} else if r, _ := decodeRune(text, i+1); unicode.IsSpace(r) {
				terminal = true
			}
		case '\n':
			terminal = i+1 < len(text) && text[i+1] == '\n'
		}
		if terminal {
			if sp := trimSpan(text, Span{Start: start, End: i + 1}); sp.Len() > 0 {
				dst = append(dst, sp)
			}
			start = i + 1
		}
	}
	if start < len(text) {
		if sp := trimSpan(text, Span{Start: start, End: len(text)}); sp.Len() > 0 {
			dst = append(dst, sp)
		}
	}
	return dst
}

// isInitial reports whether before ends in a single capital letter that
// does not follow another letter, so a period after it marks an initial.
func isInitial(before string) bool {
	last, w := utf8.DecodeLastRuneInString(before)
	if w == 0 || !unicode.IsUpper(last) {
		return false
	}
	prev, pw := utf8.DecodeLastRuneInString(before[:len(before)-w])
	return pw == 0 || !unicode.IsLetter(prev)
}

func trimSpan(text string, s Span) Span {
	for s.Start < s.End && isSpaceByte(text[s.Start]) {
		s.Start++
	}
	for s.End > s.Start && isSpaceByte(text[s.End-1]) {
		s.End--
	}
	return s
}

func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// NormalizeTerm lowercases a token and strips leading and trailing
// characters that are neither letters nor digits; it is the canonical
// term form used by the search index and extractors. ASCII input that is
// already lower case comes back as a substring, without allocating.
func NormalizeTerm(s string) string {
	lo, hi, upper, ok := asciiTerm(s)
	if !ok {
		return strings.TrimFunc(strings.ToLower(s), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		})
	}
	if !upper {
		return s[lo:hi]
	}
	return string(appendLower(make([]byte, 0, hi-lo), s[lo:hi]))
}

// AppendTerm appends NormalizeTerm(s) to dst. For ASCII input it
// allocates nothing beyond dst's growth, so an index can look terms up
// with map[string(buf)] and copy a term only when it is new.
func AppendTerm(dst []byte, s string) []byte {
	lo, hi, _, ok := asciiTerm(s)
	if !ok {
		return append(dst, NormalizeTerm(s)...)
	}
	return appendLower(dst, s[lo:hi])
}

// asciiTerm trims s to its first and last ASCII letter or digit and
// reports whether the kept part holds an upper-case letter. ok is false
// when s is not all ASCII.
func asciiTerm(s string) (lo, hi int, upper, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return 0, 0, false, false
		}
	}
	lo, hi = 0, len(s)
	for lo < hi && !isWordRune(rune(s[lo])) {
		lo++
	}
	for hi > lo && !isWordRune(rune(s[hi-1])) {
		hi--
	}
	for i := lo; i < hi; i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			upper = true
			break
		}
	}
	return lo, hi, upper, true
}

// appendLower appends ASCII s to dst in lower case.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// Corpus is an in-memory, ordered collection of documents with stable IDs.
// It is safe for concurrent readers once construction is complete.
type Corpus struct {
	docs  []*Document
	byID  map[DocID]*Document
	next  DocID
	bytes int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{byID: make(map[DocID]*Document), next: 1}
}

// Add inserts a document, assigning its ID, and returns the stored copy.
func (c *Corpus) Add(d Document) *Document {
	d.ID = c.next
	c.next++
	stored := d
	c.docs = append(c.docs, &stored)
	c.byID[stored.ID] = &stored
	c.bytes += len(stored.Text)
	return &stored
}

// Get returns the document with the given id, or nil.
func (c *Corpus) Get(id DocID) *Document { return c.byID[id] }

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Bytes returns the total text size in bytes.
func (c *Corpus) Bytes() int { return c.bytes }

// Docs returns the documents in insertion order. The returned slice must
// not be modified.
func (c *Corpus) Docs() []*Document { return c.docs }

// FindByTitle returns the first document whose title equals title exactly,
// or nil if none matches.
func (c *Corpus) FindByTitle(title string) *Document {
	for _, d := range c.docs {
		if d.Title == title {
			return d
		}
	}
	return nil
}

// Partition splits the corpus documents into n nearly equal contiguous
// slices, for parallel processing. n must be >= 1.
func (c *Corpus) Partition(n int) [][]*Document {
	if n < 1 {
		n = 1
	}
	if n > len(c.docs) && len(c.docs) > 0 {
		n = len(c.docs)
	}
	parts := make([][]*Document, 0, n)
	if len(c.docs) == 0 {
		return parts
	}
	size := (len(c.docs) + n - 1) / n
	for i := 0; i < len(c.docs); i += size {
		end := i + size
		if end > len(c.docs) {
			end = len(c.docs)
		}
		parts = append(parts, c.docs[i:end])
	}
	return parts
}

// TitlesSorted returns all document titles in lexicographic order; useful
// for deterministic iteration in tests.
func (c *Corpus) TitlesSorted() []string {
	out := make([]string, 0, len(c.docs))
	for _, d := range c.docs {
		out = append(out, d.Title)
	}
	sort.Strings(out)
	return out
}
