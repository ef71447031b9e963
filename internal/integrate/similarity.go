// Package integrate is the information-integration (II) library of the
// processing layer: string similarity measures, attribute/schema matching
// ("location" vs "address"), and entity resolution ("David Smith" vs
// "D. Smith"), with match candidates that can be confirmed or rejected by
// human intervention. The paper's central integration examples are
// exactly these two.
package integrate

import (
	"sort"
	"strings"
)

// Levenshtein returns the edit distance between two strings (runes).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Jaro returns the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := maxInt(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := maxInt(0, i-window)
		hi := minInt(len(rb)-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Transpositions.
	trans := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts Jaro similarity for shared prefixes (p=0.1, max 4).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// qgrams returns the multiset of q-grams of s (padded).
func qgrams(s string, q int) map[string]int {
	padded := strings.Repeat("#", q-1) + strings.ToLower(s) + strings.Repeat("#", q-1)
	out := map[string]int{}
	runes := []rune(padded)
	for i := 0; i+q <= len(runes); i++ {
		out[string(runes[i:i+q])]++
	}
	return out
}

// QgramJaccard returns the Jaccard similarity of trigram sets.
func QgramJaccard(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	ga, gb := qgrams(a, 3), qgrams(b, 3)
	inter, union := 0, 0
	for g, ca := range ga {
		cb := gb[g]
		inter += minInt(ca, cb)
		union += maxInt(ca, cb)
	}
	for g, cb := range gb {
		if _, ok := ga[g]; !ok {
			union += cb
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TokenJaccard returns Jaccard similarity over lowercased word sets.
func TokenJaccard(a, b string) float64 {
	sa := tokenSet(a)
	sb := tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, t := range strings.Fields(strings.ToLower(s)) {
		t = strings.Trim(t, ".,;:!?'\"()")
		if t != "" {
			out[t] = true
		}
	}
	return out
}

// NameSimilarity scores two person-name surface forms, understanding the
// abbreviation and comma-reversal conventions ("D. Smith", "Smith, David").
// It normalizes both names to (first, last) and combines last-name
// similarity with first-name/initial compatibility.
func NameSimilarity(a, b string) float64 {
	fa, la := normalizeName(a)
	fb, lb := normalizeName(b)
	if la == "" || lb == "" {
		return JaroWinkler(strings.ToLower(a), strings.ToLower(b))
	}
	lastSim := JaroWinkler(la, lb)
	firstSim := firstNameSim(fa, fb)
	return 0.6*lastSim + 0.4*firstSim
}

// normalizeName splits a surface form into (first, last), handling
// "Last, First", initials, and trailing disambiguation parentheticals as
// in wiki titles ("John Smith (actor)").
func normalizeName(s string) (first, last string) {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, "("); i > 0 {
		s = strings.TrimSpace(s[:i])
	}
	if i := strings.Index(s, ","); i >= 0 {
		last = strings.ToLower(strings.TrimSpace(s[:i]))
		first = strings.ToLower(strings.TrimSpace(s[i+1:]))
		return first, last
	}
	parts := strings.Fields(s)
	if len(parts) == 0 {
		return "", ""
	}
	if len(parts) == 1 {
		return "", strings.ToLower(parts[0])
	}
	first = strings.ToLower(strings.Join(parts[:len(parts)-1], " "))
	last = strings.ToLower(parts[len(parts)-1])
	return first, last
}

// firstNameSim compares first names where either may be an initial.
func firstNameSim(a, b string) float64 {
	a = strings.TrimSuffix(a, ".")
	b = strings.TrimSuffix(b, ".")
	if a == "" || b == "" {
		return 0.5 // unknown first name: weak evidence either way
	}
	if a == b {
		return 1
	}
	if len(a) == 1 || len(b) == 1 {
		if a[0] == b[0] {
			return 0.85 // initial matches full name
		}
		return 0
	}
	return JaroWinkler(a, b)
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TopKSimilar returns the k candidates most similar to query under sim,
// in descending score order — the primitive behind "narrow the set of
// potential matches to a manageable number so users can spot the correct
// one" (the paper's recognition-vs-generation principle).
func TopKSimilar(query string, candidates []string, k int, sim func(a, b string) float64) []Scored {
	scored := make([]Scored, 0, len(candidates))
	for _, c := range candidates {
		scored = append(scored, Scored{Text: c, Score: sim(query, c)})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	if k > 0 && len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// Scored is a candidate with a similarity score.
type Scored struct {
	Text  string
	Score float64
}
