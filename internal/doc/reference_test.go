package doc_test

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/doc"
	"repro/internal/synth"
)

// refTokenize is the rune-slice tokenizer doc.NextToken replaced, kept as
// the reference the byte-level one must match on valid UTF-8.
func refTokenize(text string) []doc.Token {
	var toks []doc.Token
	runes := []rune(text)
	byteOff := make([]int, len(runes)+1)
	off := 0
	for i, r := range runes {
		byteOff[i] = off
		off += refRuneLen(r)
	}
	byteOff[len(runes)] = off

	isWordRune := func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r)
	}
	i := 0
	for i < len(runes) {
		if !isWordRune(runes[i]) {
			i++
			continue
		}
		start := i
		for i < len(runes) {
			r := runes[i]
			if isWordRune(r) {
				i++
				continue
			}
			if (r == '.' || r == '-' || r == ',' || r == '\'') && i+1 < len(runes) && isWordRune(runes[i+1]) {
				i += 2
				continue
			}
			if r == '.' && i-start == 1 && unicode.IsUpper(runes[start]) {
				i++
			}
			break
		}
		sp := doc.Span{Start: byteOff[start], End: byteOff[i]}
		toks = append(toks, doc.Token{Text: string(runes[start:i]), Span: sp})
	}
	return toks
}

func refRuneLen(r rune) int {
	switch {
	case r < 0x80:
		return 1
	case r < 0x800:
		return 2
	case r < 0x10000:
		return 3
	default:
		return 4
	}
}

// refSentences is the rune-slice sentence splitter doc.AppendSentences
// replaced.
func refSentences(text string) []doc.Span {
	var out []doc.Span
	start := 0
	rs := []rune(text)
	pos := 0
	for i := 0; i < len(rs); i++ {
		r := rs[i]
		w := refRuneLen(r)
		terminal := false
		switch r {
		case '.', '!', '?':
			if r == '.' && i >= 1 && unicode.IsUpper(rs[i-1]) && (i < 2 || !unicode.IsLetter(rs[i-2])) {
				terminal = false
			} else if i+1 >= len(rs) {
				terminal = true
			} else if unicode.IsSpace(rs[i+1]) {
				terminal = true
			}
		case '\n':
			if i+1 < len(rs) && rs[i+1] == '\n' {
				terminal = true
			}
		}
		if terminal {
			end := pos + w
			if end > start {
				sp := refTrimSpan(text, doc.Span{Start: start, End: end})
				if sp.Len() > 0 {
					out = append(out, sp)
				}
			}
			start = pos + w
		}
		pos += w
	}
	if start < len(text) {
		sp := refTrimSpan(text, doc.Span{Start: start, End: len(text)})
		if sp.Len() > 0 {
			out = append(out, sp)
		}
	}
	return out
}

func refTrimSpan(text string, s doc.Span) doc.Span {
	isSpace := func(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }
	for s.Start < s.End && isSpace(text[s.Start]) {
		s.Start++
	}
	for s.End > s.Start && isSpace(text[s.End-1]) {
		s.End--
	}
	return s
}

// refNormalizeTerm is the always-allocating NormalizeTerm it replaced.
func refNormalizeTerm(s string) string {
	return strings.TrimFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// tokenizerSeeds mixes initials, decimals, joiners at token edges,
// paragraph breaks, non-ASCII letters and spaces, and invalid UTF-8.
var tokenizerSeeds = []string{
	"",
	"D. Smith met David Smith.",
	"The average temperature in Madison, Wisconsin is 70.5 degrees.",
	"Population 233,209 grew by 1.5-2 percent. Isn't it? Yes!",
	"First paragraph line\n\nSecond paragraph\n\n\nThird",
	"Ends with an initial A.",
	"U.S.A. and e.g. x.-y ,a a, -b b- 'c c' A.B. 3A. Ü. É.Smith",
	"Zürich liegt am Zürichsee. Straße 5½ — São Paulo, Ελλάδα. ΑΒΓ. Д. Иванов",
	"日本語のテキスト。東京は首都です. 東京 2020. Ok",
	"non breaking. Space. Line sep.\vVtab.\fFF",
	"tab\tsep.\tNext one.\r\nCRLF line.\r\n\r\nDone",
	"bad \xff bytes\xfe.\xc3 Trunc \xe2\x82 é\xcc\x81 A\x82. B.",
	"!!! ... --- ,,, '''",
	"{{Infobox settlement\n| name = Madison\n| area_sq_mi = 94.03\n}}\n\nClimate",
}

func synthTexts(t testing.TB) []string {
	corpus, _ := synth.Generate(synth.Config{Seed: 1, Cities: 40, People: 20, Filler: 30, MentionsPerPerson: 2})
	var out []string
	for _, d := range corpus.Docs() {
		out = append(out, d.Title, d.Text)
	}
	return out
}

// checkTokenizer compares Tokenize, Sentences and NormalizeTerm with their
// references. The references mis-place spans after an invalid UTF-8 byte
// (they count U+FFFD as three bytes), so on invalid input only the
// invariants are checked: every span is in bounds and slices to its token.
func checkTokenizer(t *testing.T, text string) {
	t.Helper()
	toks := doc.Tokenize(text)
	for _, tk := range toks {
		if !tk.Span.Valid() || tk.Span.End > len(text) || text[tk.Span.Start:tk.Span.End] != tk.Text {
			t.Fatalf("%q: token %+v does not slice back", text, tk)
		}
		if got, want := doc.NormalizeTerm(tk.Text), refNormalizeTerm(tk.Text); got != want {
			t.Fatalf("NormalizeTerm(%q) = %q, reference %q", tk.Text, got, want)
		}
		if got, want := string(doc.AppendTerm([]byte("x"), tk.Text)), "x"+refNormalizeTerm(tk.Text); got != want {
			t.Fatalf("AppendTerm(%q) = %q, want %q", tk.Text, got, want)
		}
	}
	for _, sp := range doc.Sentences(text) {
		if !sp.Valid() || sp.End > len(text) || sp.Len() == 0 {
			t.Fatalf("%q: bad sentence span %v", text, sp)
		}
	}
	if got, want := doc.NormalizeTerm(text), refNormalizeTerm(text); got != want {
		t.Fatalf("NormalizeTerm(%q) = %q, reference %q", text, got, want)
	}
	if !utf8.ValidString(text) {
		return
	}
	if want := refTokenize(text); !reflect.DeepEqual(toks, want) {
		t.Fatalf("Tokenize(%q)\n got %+v\nwant %+v", text, toks, want)
	}
	if got, want := doc.Sentences(text), refSentences(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sentences(%q)\n got %v\nwant %v", text, got, want)
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, text := range append(tokenizerSeeds, synthTexts(t)...) {
		checkTokenizer(t, text)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	f.Fuzz(checkTokenizer)
}

func TestNextTokenAllocatesNothing(t *testing.T) {
	text := "The average temperature in Madison, Wisconsin is 70.5 degrees. D. Smith, Zürich."
	allocs := testing.AllocsPerRun(100, func() {
		for sp, ok := doc.NextToken(text, 0); ok; sp, ok = doc.NextToken(text, sp.End) {
		}
	})
	if allocs != 0 {
		t.Fatalf("NextToken allocated %.0f times per walk", allocs)
	}
	var buf []byte
	allocs = testing.AllocsPerRun(100, func() {
		buf = doc.AppendTerm(buf[:0], "Madison,")
		_ = doc.NormalizeTerm("madison")
	})
	if allocs != 0 || string(buf) != "madison" {
		t.Fatalf("AppendTerm/NormalizeTerm: %.0f allocs, buf %q", allocs, buf)
	}
}
