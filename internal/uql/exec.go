package uql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/hi"
	"repro/internal/integrate"
	"repro/internal/monitor"
	"repro/internal/uncertainty"
)

// Row is one tuple of a UQL relation: an uncertain attribute-value
// assertion in entity-attribute-value form. A row carries no lineage: the
// system that stores it re-derives lineage from the row and its document.
type Row struct {
	Entity    string
	Attribute string
	Qualifier string
	Value     string
	Conf      float64
}

// RegisteredExtractor couples a pipeline with per-attribute prefilter
// hints: a document that contains none of the hint substrings for the
// requested attributes cannot produce matches, so the optimizer can skip
// it cheaply.
type RegisteredExtractor struct {
	Pipeline *extract.Pipeline
	// Hints maps attribute -> substring that must appear in a document
	// for that attribute to be extractable.
	Hints map[string]string
}

// Env is the execution context binding names in programs to live objects.
type Env struct {
	Sources    map[string]*doc.Corpus
	Extractors map[string]RegisteredExtractor
	Crowd      *hi.Crowd // used by ASK and RESOLVE ... BUDGET
	Stats      *monitor.Stats
	Cluster    *cluster.Cluster // parallel extraction; nil = sequential

	// Store is STORE's sink: it writes a relation's rows into the named
	// table. The system that owns the table installs it.
	Store func(table string, rows []Row) error

	// Relations holds a program's intermediate results by name. They are
	// the program's working set, not a store: whoever runs programs
	// decides how long they live (core.System.Generate empties them when
	// the program returns).
	Relations map[string][]Row
}

// NewEnv returns an environment with empty registries.
func NewEnv() *Env {
	return &Env{
		Sources:    map[string]*doc.Corpus{},
		Extractors: map[string]RegisteredExtractor{},
		Stats:      monitor.NewStats(),
		Relations:  map[string][]Row{},
	}
}

// Options toggles optimizer rewrites (the E10 ablation knobs).
type Options struct {
	// NoPrefilter disables hint-based document skipping.
	NoPrefilter bool
	// NoEarlyConfFilter applies MINCONF after materializing all fields
	// instead of during extraction.
	NoEarlyConfFilter bool
	// NoParallel forces sequential extraction even when a cluster is set.
	NoParallel bool
}

// Plan is a compiled program: one physical operator per statement plus a
// textual explanation (the reformulator/optimizer output).
type Plan struct {
	ops     []planOp
	Explain string
}

type planOp interface {
	describe() string
	run(env *Env) error
}

// Compile parses nothing — it takes an already-parsed program and produces
// an optimized physical plan against the environment.
func Compile(prog *Program, env *Env, opts Options) (*Plan, error) {
	plan := &Plan{}
	var lines []string
	for _, stmt := range prog.Stmts {
		var op planOp
		switch s := stmt.(type) {
		case ExtractStmt:
			reg, ok := env.Extractors[s.Using]
			if !ok {
				return nil, fmt.Errorf("uql: unknown extractor %q", s.Using)
			}
			if _, ok := env.Sources[s.Source]; !ok {
				return nil, fmt.Errorf("uql: unknown document source %q", s.Source)
			}
			xop := &extractOp{stmt: s, reg: reg}
			// Optimizer: document prefiltering is applicable when every
			// requested attribute has a hint.
			if !opts.NoPrefilter && len(s.Attrs) > 0 {
				hints := make([]string, 0, len(s.Attrs))
				all := true
				for _, a := range s.Attrs {
					h, ok := reg.Hints[a]
					if !ok {
						all = false
						break
					}
					hints = append(hints, h)
				}
				if all {
					xop.prefilter = hints
				}
			}
			xop.earlyConf = !opts.NoEarlyConfFilter && s.MinConf > 0
			xop.parallel = !opts.NoParallel && env.Cluster != nil
			op = xop
		case IntegrateStmt:
			op = &integrateOp{stmt: s}
		case ResolveStmt:
			op = &resolveOp{stmt: s}
		case AskStmt:
			op = &askOp{stmt: s}
		case StoreStmt:
			if env.Store == nil {
				return nil, fmt.Errorf("uql: STORE requires a store in the environment")
			}
			op = &storeOp{stmt: s}
		default:
			return nil, fmt.Errorf("uql: unsupported statement %T", stmt)
		}
		plan.ops = append(plan.ops, op)
		lines = append(lines, op.describe())
	}
	plan.Explain = strings.Join(lines, "\n")
	return plan, nil
}

// Run executes the plan against the environment.
func (p *Plan) Run(env *Env) error {
	for _, op := range p.ops {
		if err := op.run(env); err != nil {
			return err
		}
	}
	return nil
}

// Exec parses, compiles, and runs a program in one call.
func Exec(program string, env *Env, opts Options) (*Plan, error) {
	prog, err := Parse(program)
	if err != nil {
		return nil, err
	}
	plan, err := Compile(prog, env, opts)
	if err != nil {
		return nil, err
	}
	if err := plan.Run(env); err != nil {
		return plan, err
	}
	return plan, nil
}

// --- EXTRACT ------------------------------------------------------------------

type extractOp struct {
	stmt      ExtractStmt
	reg       RegisteredExtractor
	prefilter []string
	earlyConf bool
	parallel  bool
}

func (o *extractOp) describe() string {
	parts := []string{fmt.Sprintf("extract %v from %s using %s", attrsOrAll(o.stmt.Attrs), o.stmt.Source, o.stmt.Using)}
	if len(o.prefilter) > 0 {
		parts = append(parts, fmt.Sprintf("prefilter on %d hints", len(o.prefilter)))
	}
	if o.earlyConf {
		parts = append(parts, fmt.Sprintf("early minconf %.2f", o.stmt.MinConf))
	}
	if o.parallel {
		parts = append(parts, "parallel")
	}
	return strings.Join(parts, " | ")
}

func attrsOrAll(attrs []string) any {
	if len(attrs) == 0 {
		return "all"
	}
	return attrs
}

func (o *extractOp) run(env *Env) error {
	corpus := env.Sources[o.stmt.Source]
	wanted := map[string]bool{}
	for _, a := range o.stmt.Attrs {
		wanted[a] = true
	}
	docs := corpus.Docs()
	var selected []*doc.Document
	for _, d := range docs {
		if o.stmt.Kind != "" && d.Meta["kind"] != o.stmt.Kind {
			continue
		}
		if len(o.prefilter) > 0 && !containsAny(d.Text, o.prefilter) {
			env.Stats.Inc("uql.extract.prefiltered", 1)
			continue
		}
		selected = append(selected, d)
	}
	env.Stats.Inc("uql.extract.docs", int64(len(selected)))

	extractDoc := func(d *doc.Document) ([]extract.Field, error) {
		fields := o.reg.Pipeline.ExtractDoc(d)
		var out []extract.Field
		for _, f := range fields {
			if len(wanted) > 0 && !wanted[f.Attribute] {
				continue
			}
			if o.earlyConf && f.Conf < o.stmt.MinConf {
				continue
			}
			out = append(out, f)
		}
		return out, nil
	}

	var perDoc [][]extract.Field
	var err error
	if o.parallel {
		perDoc, err = cluster.MapOnly(env.Cluster, selected, extractDoc)
		if err != nil {
			return err
		}
	} else {
		for _, d := range selected {
			fs, _ := extractDoc(d)
			perDoc = append(perDoc, fs)
		}
	}

	var rows []Row
	for _, fields := range perDoc {
		for _, f := range fields {
			if !o.earlyConf && o.stmt.MinConf > 0 && f.Conf < o.stmt.MinConf {
				continue
			}
			rows = append(rows, Row{
				Entity:    f.Entity,
				Attribute: f.Attribute,
				Qualifier: f.Qualifier,
				Value:     f.Value,
				Conf:      f.Conf,
			})
		}
	}
	env.Relations[o.stmt.Into] = append(env.Relations[o.stmt.Into], rows...)
	env.Stats.Inc("uql.extract.rows", int64(len(rows)))
	return nil
}

func containsAny(text string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(text, s) {
			return true
		}
	}
	return false
}

// --- INTEGRATE ----------------------------------------------------------------

type integrateOp struct {
	stmt IntegrateStmt
}

func (o *integrateOp) describe() string {
	return fmt.Sprintf("integrate %s into %s (schema match, threshold %.2f)", o.stmt.Src, o.stmt.Dst, o.stmt.Threshold)
}

func (o *integrateOp) run(env *Env) error {
	src, ok := env.Relations[o.stmt.Src]
	if !ok {
		return fmt.Errorf("uql: unknown relation %q", o.stmt.Src)
	}
	dst := env.Relations[o.stmt.Dst]
	matcher := integrate.NewSchemaMatcher()
	matcher.Threshold = o.stmt.Threshold
	srcAttrs, srcValues := attributeProfile(src)
	dstAttrs, dstValues := attributeProfile(dst)
	rename := map[string]string{}
	for _, m := range matcher.MatchAttributes(srcAttrs, dstAttrs, srcValues, dstValues) {
		if m.A != m.B {
			rename[m.A] = m.B
		}
	}
	for _, r := range src {
		if to, ok := rename[r.Attribute]; ok {
			env.Stats.Inc("uql.integrate.renamed", 1)
			r.Attribute = to
		}
		dst = append(dst, r)
	}
	env.Relations[o.stmt.Dst] = dst
	env.Stats.Inc("uql.integrate.rows", int64(len(src)))
	return nil
}

func attributeProfile(rows []Row) ([]string, map[string][]string) {
	seen := map[string]bool{}
	values := map[string][]string{}
	var attrs []string
	for _, r := range rows {
		if !seen[r.Attribute] {
			seen[r.Attribute] = true
			attrs = append(attrs, r.Attribute)
		}
		if len(values[r.Attribute]) < 50 {
			values[r.Attribute] = append(values[r.Attribute], r.Value)
		}
	}
	sort.Strings(attrs)
	return attrs, values
}

// --- RESOLVE ------------------------------------------------------------------

type resolveOp struct {
	stmt ResolveStmt
}

func (o *resolveOp) describe() string {
	s := fmt.Sprintf("resolve entities in %s (threshold %.2f)", o.stmt.Rel, o.stmt.Threshold)
	if o.stmt.Budget > 0 {
		s += fmt.Sprintf(" with HI budget %d", o.stmt.Budget)
	}
	return s
}

func (o *resolveOp) run(env *Env) error {
	rows, ok := env.Relations[o.stmt.Rel]
	if !ok {
		return fmt.Errorf("uql: unknown relation %q", o.stmt.Rel)
	}
	// Distinct entity surfaces become mentions.
	surfaces := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Entity] {
			seen[r.Entity] = true
			surfaces = append(surfaces, r.Entity)
		}
	}
	sort.Strings(surfaces)
	mentions := make([]integrate.Mention, len(surfaces))
	for i, s := range surfaces {
		mentions[i] = integrate.Mention{ID: i, Surface: s}
	}
	resolver := integrate.NewResolver()
	resolver.Threshold = o.stmt.Threshold

	// Borderline pairs go to the crowd within budget.
	var decisions []integrate.Decision
	if o.stmt.Budget > 0 && env.Crowd != nil {
		pairs := resolver.CandidatePairs(mentions)
		asked := 0
		for _, p := range pairs {
			if asked >= o.stmt.Budget {
				break
			}
			// Ambiguity band around the threshold.
			if p.Score < o.stmt.Threshold-0.22 || p.Score > o.stmt.Threshold+0.1 {
				continue
			}
			q := hi.Question{
				Kind:     hi.QMatch,
				Subject:  hi.MatchSubject(surfaces[p.A], surfaces[p.B]),
				Payload:  []string{surfaces[p.A], surfaces[p.B]},
				Priority: 1 - absFloat(p.Score-o.stmt.Threshold),
			}
			v := env.Crowd.Ask(q)
			decisions = append(decisions, integrate.Decision{A: p.A, B: p.B, Match: v.Yes})
			asked++
		}
		env.Stats.Inc("uql.resolve.questions", int64(asked))
	}

	clusters := resolver.Cluster(mentions, decisions)
	canonical := map[string]string{}
	for _, cl := range clusters {
		// Canonical surface: the longest (most informative) name.
		best := surfaces[cl[0]]
		for _, id := range cl {
			if len(surfaces[id]) > len(best) {
				best = surfaces[id]
			}
		}
		for _, id := range cl {
			canonical[surfaces[id]] = best
		}
	}
	out := make([]Row, 0, len(rows))
	renamed := 0
	for _, r := range rows {
		if c := canonical[r.Entity]; c != "" && c != r.Entity {
			r.Entity = c
			renamed++
		}
		out = append(out, r)
	}
	env.Relations[o.stmt.Into] = out
	env.Stats.Inc("uql.resolve.merged", int64(renamed))
	return nil
}

func absFloat(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// --- ASK ----------------------------------------------------------------------

type askOp struct {
	stmt AskStmt
}

func (o *askOp) describe() string {
	return fmt.Sprintf("ask humans about %s below conf %.2f (budget %d)", o.stmt.Rel, o.stmt.MinConf, o.stmt.Budget)
}

func (o *askOp) run(env *Env) error {
	rows, ok := env.Relations[o.stmt.Rel]
	if !ok {
		return fmt.Errorf("uql: unknown relation %q", o.stmt.Rel)
	}
	if env.Crowd == nil {
		return fmt.Errorf("uql: ASK requires a crowd in the environment")
	}
	queue := hi.NewQueue(o.stmt.Budget)
	type target struct{ idx int }
	targets := map[int]target{}
	for i := range rows {
		if rows[i].Conf >= o.stmt.MinConf {
			continue
		}
		q := hi.Question{
			Kind:    hi.QValueCheck,
			Subject: fmt.Sprintf("%s|%s|%s|%s", rows[i].Entity, rows[i].Attribute, rows[i].Qualifier, rows[i].Value),
			// Most uncertain first (closest to 0.5).
			Priority: 1 - absFloat(rows[i].Conf-0.5),
		}
		id := queue.Push(q)
		targets[id] = target{idx: i}
	}
	session := &hi.Session{Queue: queue, Crowd: env.Crowd}
	n := session.Run(0, func(q hi.Question, v hi.Verdict) {
		t := targets[q.ID]
		r := &rows[t.idx]
		reliability := 0.5 + 0.5*v.Support
		r.Conf = uncertainty.BayesUpdate(r.Conf, reliability, v.Yes)
	})
	env.Relations[o.stmt.Rel] = rows
	env.Stats.Inc("uql.ask.questions", int64(n))
	return nil
}

// --- STORE --------------------------------------------------------------------

type storeOp struct {
	stmt StoreStmt
}

func (o *storeOp) describe() string {
	return fmt.Sprintf("store %s into table %s", o.stmt.Rel, o.stmt.Table)
}

func (o *storeOp) run(env *Env) error {
	rows, ok := env.Relations[o.stmt.Rel]
	if !ok {
		return fmt.Errorf("uql: unknown relation %q", o.stmt.Rel)
	}
	return env.Store(o.stmt.Table, rows)
}
