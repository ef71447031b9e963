// Package reformulate implements the user-layer transition the paper calls
// out as the coming bottleneck: ordinary users start with a keyword query
// ("average temperature Madison"), and the system guesses candidate
// structured queries over the extracted schema, shows them as forms, and
// lets the user *recognize* the right one instead of writing SQL — the
// recognition-vs-generation principle of Section 3.3.
package reformulate

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/doc"
	"repro/internal/integrate"
)

// Aggregate enumerates supported aggregates.
type Aggregate string

const (
	AggAvg   Aggregate = "AVG"
	AggSum   Aggregate = "SUM"
	AggMin   Aggregate = "MIN"
	AggMax   Aggregate = "MAX"
	AggCount Aggregate = "COUNT"
	AggNone  Aggregate = "" // plain lookup
)

var aggWords = map[string]Aggregate{
	"average": AggAvg, "avg": AggAvg, "mean": AggAvg,
	"total": AggSum, "sum": AggSum,
	"minimum": AggMin, "min": AggMin, "lowest": AggMin, "coldest": AggMin,
	"maximum": AggMax, "max": AggMax, "highest": AggMax, "warmest": AggMax, "hottest": AggMax,
	"count": AggCount, "many": AggCount,
}

// Candidate is one guessed structured query, renderable as a form.
type Candidate struct {
	Agg       Aggregate
	Attribute string
	Entity    string // resolved entity, empty = all entities
	QualFrom  string // inclusive qualifier range (e.g. months)
	QualTo    string
	Score     float64
	// SQL is the executable translation over the EAV table layout
	// (entity, attribute, qualifier, value, conf).
	SQL string
}

// Form renders the candidate the way a form interface would show it.
func (c Candidate) Form() string {
	var b strings.Builder
	if c.Agg != AggNone {
		fmt.Fprintf(&b, "%s of ", c.Agg)
	}
	b.WriteString(c.Attribute)
	if c.Entity != "" {
		fmt.Fprintf(&b, " for %s", c.Entity)
	}
	if c.QualFrom != "" && c.QualTo != "" && c.QualFrom != c.QualTo {
		fmt.Fprintf(&b, " from %s to %s", c.QualFrom, c.QualTo)
	} else if c.QualFrom != "" {
		fmt.Fprintf(&b, " in %s", c.QualFrom)
	}
	return b.String()
}

// Catalog describes the extracted structure the reformulator targets: the
// EAV table name plus the distinct entities, attributes, and qualifier
// vocabulary (with ordering for range qualifiers like months).
type Catalog struct {
	Table      string
	Entities   []string
	Attributes []string
	// Qualifiers maps an attribute to its ordered qualifier vocabulary
	// (e.g. temperature -> the twelve months in order). Order enables
	// range queries ("March to September").
	Qualifiers map[string][]string
}

// Reformulator guesses structured queries from keywords. It can be built
// whole from a catalog (New) or maintained incrementally on catalog deltas
// (AddEntity/AddAttribute/AddQualifier): candidate ranking breaks every
// tie by name, never by catalog position, so an incrementally grown
// reformulator answers identically to one rebuilt from the same catalog
// regardless of insertion order. Queries and deltas may run concurrently;
// an internal RWMutex keeps them safe.
type Reformulator struct {
	mu  sync.RWMutex
	cat Catalog
	// entity index: normalized token -> indexes into cat.Entities
	entityTokens map[string][]int
	entitySeen   map[string]bool
	attrSeen     map[string]bool
}

// New builds a reformulator over a catalog. The qualifier map is copied
// (vocabulary slices stay shared; AddQualifier copies them on write), so
// later deltas never mutate the caller's catalog — which may be a
// memoized snapshot other readers hold as read-only.
func New(cat Catalog) *Reformulator {
	quals := make(map[string][]string, len(cat.Qualifiers))
	for a, v := range cat.Qualifiers {
		quals[a] = v
	}
	cat.Qualifiers = quals
	r := &Reformulator{
		cat:          cat,
		entityTokens: map[string][]int{},
		entitySeen:   map[string]bool{},
		attrSeen:     map[string]bool{},
	}
	for i, e := range cat.Entities {
		r.entitySeen[e] = true
		r.indexEntityTokens(e, i)
	}
	for _, a := range cat.Attributes {
		r.attrSeen[a] = true
	}
	return r
}

func (r *Reformulator) indexEntityTokens(entity string, idx int) {
	for _, tk := range doc.Tokenize(entity) {
		t := doc.NormalizeTerm(tk.Text)
		if t != "" {
			r.entityTokens[t] = append(r.entityTokens[t], idx)
		}
	}
}

// AddEntity folds one new entity into the token index — tokenizing only
// that entity, not rebuilding the whole index. Idempotent.
func (r *Reformulator) AddEntity(entity string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entitySeen[entity] {
		return
	}
	r.entitySeen[entity] = true
	r.cat.Entities = append(r.cat.Entities, entity)
	r.indexEntityTokens(entity, len(r.cat.Entities)-1)
}

// AddAttribute registers one new attribute. Idempotent.
func (r *Reformulator) AddAttribute(attr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attrSeen[attr] {
		return
	}
	r.attrSeen[attr] = true
	r.cat.Attributes = append(r.cat.Attributes, attr)
}

// AddQualifier appends one qualifier to an attribute's vocabulary in
// arrival order (the order that defines qualifier ranges). Idempotent.
// The vocabulary slice is copied on write so previously shared catalog
// snapshots are never mutated.
func (r *Reformulator) AddQualifier(attr, qual string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vocab := r.cat.Qualifiers[attr]
	for _, q := range vocab {
		if q == qual {
			return
		}
	}
	if r.cat.Qualifiers == nil {
		r.cat.Qualifiers = map[string][]string{}
	}
	fresh := make([]string, 0, len(vocab)+1)
	fresh = append(fresh, vocab...)
	r.cat.Qualifiers[attr] = append(fresh, qual)
}

// Candidates returns the top-k guessed structured queries for a keyword
// query, best first.
func (r *Reformulator) Candidates(query string, k int) []Candidate {
	r.mu.RLock()
	defer r.mu.RUnlock()
	terms := []string{}
	for _, tk := range doc.Tokenize(query) {
		t := doc.NormalizeTerm(tk.Text)
		if t != "" {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 {
		return nil
	}

	agg, aggScore := detectAggregate(terms)
	entities := r.detectEntities(terms, 3)
	attrs := r.scoreAttributes(terms)
	if len(attrs) == 0 {
		return nil
	}

	var out []Candidate
	for _, as := range attrs {
		quals := r.detectQualifierRange(as.attr, terms)
		// One candidate per plausible entity (ambiguous city names yield
		// several forms the user can recognize among), plus variants.
		entityChoices := entities
		if len(entityChoices) == 0 {
			entityChoices = []scoredEntity{{name: "", score: 0}}
		}
		for rank, ent := range entityChoices {
			base := 0.5*as.score + 0.25*ent.score + 0.15*aggScore
			// Later-ranked entities decay so the best guess leads.
			base *= 1 - 0.15*float64(rank)
			c := Candidate{
				Agg: agg, Attribute: as.attr, Entity: ent.name,
				QualFrom: quals.from, QualTo: quals.to,
				Score: base + 0.1*quals.score,
			}
			c.SQL = r.toSQL(c)
			out = append(out, c)
			// Variant without the aggregate (plain lookup) when an
			// aggregate was guessed.
			if agg != AggNone && rank == 0 {
				v := Candidate{
					Attribute: as.attr, Entity: ent.name,
					QualFrom: quals.from, QualTo: quals.to,
					Score: base*0.8 + 0.1*quals.score,
				}
				v.SQL = r.toSQL(v)
				out = append(out, v)
			}
		}
		// Variant across all entities when an entity was guessed.
		if len(entities) > 0 {
			base := 0.5*as.score + 0.15*aggScore
			v := Candidate{
				Agg: agg, Attribute: as.attr,
				QualFrom: quals.from, QualTo: quals.to,
				Score: base * 0.6,
			}
			v.SQL = r.toSQL(v)
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func detectAggregate(terms []string) (Aggregate, float64) {
	for _, t := range terms {
		if a, ok := aggWords[t]; ok {
			return a, 1
		}
	}
	return AggNone, 0
}

type scoredEntity struct {
	name  string
	score float64
}

// detectEntities ranks the entities whose name tokens best cover query
// terms, returning up to k. Ambiguous references (a city name without its
// state) produce several candidates with equal votes; the form interface
// shows them all for the user to recognize among.
func (r *Reformulator) detectEntities(terms []string, k int) []scoredEntity {
	votes := map[int]int{}
	for _, t := range terms {
		for _, ei := range r.entityTokens[t] {
			votes[ei]++
		}
	}
	if len(votes) == 0 {
		return nil
	}
	type cand struct {
		idx   int
		votes int
	}
	cands := make([]cand, 0, len(votes))
	for ei, v := range votes {
		cands = append(cands, cand{ei, v})
	}
	// Ties break by entity name, not catalog position, so incremental and
	// rebuilt token indexes rank identically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		return r.cat.Entities[cands[i].idx] < r.cat.Entities[cands[j].idx]
	})
	if k > 0 && len(cands) > k {
		cands = cands[:k]
	}
	out := make([]scoredEntity, 0, len(cands))
	for _, c := range cands {
		name := r.cat.Entities[c.idx]
		nameTokens := len(doc.Tokenize(name))
		score := float64(c.votes) / float64(maxInt(nameTokens, 1))
		if score > 1 {
			score = 1
		}
		// Entities matching fewer than the leader's votes are weaker.
		out = append(out, scoredEntity{name: name, score: score})
	}
	return out
}

type attrScore struct {
	attr  string
	score float64
}

func (r *Reformulator) scoreAttributes(terms []string) []attrScore {
	var out []attrScore
	for _, attr := range r.cat.Attributes {
		best := 0.0
		for _, t := range terms {
			if aggWords[t] != "" && t != attr {
				continue
			}
			s := integrate.JaroWinkler(strings.ToLower(attr), t)
			if s > best {
				best = s
			}
		}
		if best >= 0.75 {
			out = append(out, attrScore{attr: attr, score: best})
		}
	}
	// Equal scores order by attribute name, independent of catalog order.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].attr < out[j].attr
	})
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

type qualRange struct {
	from, to string
	score    float64
}

// detectQualifierRange finds one or two qualifier vocabulary terms in the
// query; two define a range in vocabulary order.
func (r *Reformulator) detectQualifierRange(attr string, terms []string) qualRange {
	vocab := r.cat.Qualifiers[attr]
	if len(vocab) == 0 {
		return qualRange{}
	}
	var found []int
	for _, t := range terms {
		for i, q := range vocab {
			if strings.EqualFold(q, t) {
				found = append(found, i)
			}
		}
	}
	if len(found) == 0 {
		return qualRange{}
	}
	sort.Ints(found)
	lo, hi := found[0], found[len(found)-1]
	return qualRange{from: vocab[lo], to: vocab[hi], score: 1}
}

// toSQL translates a candidate into SQL over the EAV layout. Qualifier
// ranges expand to OR chains in vocabulary order (months are not
// lexicographically ordered, so BETWEEN on the string doesn't work).
func (r *Reformulator) toSQL(c Candidate) string {
	sel := "value"
	switch c.Agg {
	case AggAvg:
		sel = "AVG(num)"
	case AggSum:
		sel = "SUM(num)"
	case AggMin:
		sel = "MIN(num)"
	case AggMax:
		sel = "MAX(num)"
	case AggCount:
		sel = "COUNT(*)"
	}
	var where []string
	where = append(where, fmt.Sprintf("attribute = '%s'", escapeSQL(c.Attribute)))
	if c.Entity != "" {
		where = append(where, fmt.Sprintf("entity = '%s'", escapeSQL(c.Entity)))
	}
	if c.QualFrom != "" {
		vocab := r.cat.Qualifiers[c.Attribute]
		lo := indexOf(vocab, c.QualFrom)
		hi := indexOf(vocab, c.QualTo)
		if lo >= 0 && hi >= lo {
			var ors []string
			for i := lo; i <= hi; i++ {
				ors = append(ors, fmt.Sprintf("qualifier = '%s'", escapeSQL(vocab[i])))
			}
			where = append(where, "("+strings.Join(ors, " OR ")+")")
		}
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", sel, r.cat.Table, strings.Join(where, " AND "))
}

func escapeSQL(s string) string { return strings.ReplaceAll(s, "'", "''") }

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
