// Package experiments reproduces the paper's claims E1–E10 as tests. Each
// test runs one claim's scenario at a small size and asserts it on counts
// and outcomes — answers against the synthetic truth, F1, accuracy,
// stored bytes, documents extracted, pages pinned — never on elapsed time.
// How fast the served system answers is measured by the bench/ benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/hi"
	"repro/internal/integrate"
	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/uql"
	"repro/internal/users"
	"repro/internal/vstore"
)

const seed = 7

// sizedCorpus is the corpus shape the experiments share: about n
// documents, half of them city pages.
func sizedCorpus(n int) synth.Config {
	return synth.Config{Seed: seed, Cities: n / 2, People: n / 5, Filler: n - n/2 - (n/5)*2, MentionsPerPerson: 2}
}

func newSystem(t *testing.T, corpus *doc.Corpus, workers int) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{Corpus: corpus, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// E1 (§2): keyword search finds the Madison page but leaves the average
// to the reader; extract-then-query computes it exactly.
func TestE1StructuredAnswersExactly(t *testing.T) {
	ctx := context.Background()
	corpus, truth := synth.Generate(sizedCorpus(100))
	sys := newSystem(t, corpus, 4)
	const query = "average March September temperature Madison Wisconsin"

	hits, err := sys.KeywordSearch(ctx, query, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rank := rankOf(hits, "Madison, Wisconsin"); rank < 1 {
		t.Fatalf("keyword search did not reach the Madison page: %v", hits)
	}

	if _, err := sys.Generate(ctx, `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.AskGuided(ctx, query, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := core.AverageFromRows(ans.Answer)
	want := truth.CityTruth("Madison, Wisconsin").AvgTemp(2, 8)
	if !ok || math.Abs(got-want) > 0.01 {
		t.Fatalf("structured answer %v (ok=%v), want %v", got, ok, want)
	}
}

// rankOf returns the 1-based position of title in hits, or -1.
func rankOf(hits []search.Hit, title string) int {
	for i, h := range hits {
		if h.Title == title {
			return i + 1
		}
	}
	return -1
}

// E1b: ranking decides where the right page lands — BM25 puts Madison
// first, TF-IDF also reaches it — but a ranking only ever finds pages.
func TestE1RankingAblationFindsMadison(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: seed, Cities: 50, People: 20, Filler: 40, MentionsPerPerson: 2})
	idx := search.BuildIndex(corpus)
	const query = "average March September temperature Madison Wisconsin"
	bm25 := rankOf(idx.Search(query, 20, search.BM25), "Madison, Wisconsin")
	tfidf := rankOf(idx.Search(query, 20, search.TFIDF), "Madison, Wisconsin")
	if bm25 != 1 {
		t.Fatalf("BM25 ranks Madison %d, want 1", bm25)
	}
	if tfidf < 1 {
		t.Fatal("TF-IDF did not reach the Madison page in its top 20")
	}
}

// docCounter wraps extractors and records which documents any of them was
// run on: the work an extraction plan actually did.
type docCounter struct {
	mu   sync.Mutex
	seen map[doc.DocID]bool
}

func (c *docCounter) pipeline() *extract.Pipeline {
	return extract.NewPipeline(
		countedExtractor{extract.NewInfoboxExtractor(), c},
		countedExtractor{extract.NewTemperatureExtractor(), c},
		countedExtractor{extract.NewPopulationExtractor(), c},
		countedExtractor{extract.NewFoundedExtractor(), c},
	)
}

func (c *docCounter) docs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

type countedExtractor struct {
	extract.Extractor
	c *docCounter
}

func (e countedExtractor) Extract(d *doc.Document) []extract.Field {
	e.c.mu.Lock()
	e.c.seen[d.ID] = true
	e.c.mu.Unlock()
	return e.Extractor.Extract(d)
}

// OutAttributes forwards the wrapped operator's scope, so the incremental
// planner still skips operators that cannot yield a demanded attribute.
func (e countedExtractor) OutAttributes() []string {
	if s, ok := e.Extractor.(extract.AttributeScoped); ok {
		return s.OutAttributes()
	}
	return nil
}

// withCountedCity swaps sys's city extractor for one that counts the
// documents it touches, keeping the registered hints.
func withCountedCity(sys *core.System) *docCounter {
	c := &docCounter{seen: map[doc.DocID]bool{}}
	reg := sys.Env.Extractors["city"]
	reg.Pipeline = c.pipeline()
	sys.Env.Extractors["city"] = reg
	return c
}

// E2 (§3.2): extracting only the demanded attribute answers the query
// after touching strictly fewer documents than whole-corpus extraction,
// and answers it identically.
func TestE2IncrementalFaster(t *testing.T) {
	ctx := context.Background()
	cfg := sizedCorpus(150)
	const query = "average temperature Madison Wisconsin"
	ask := func(sys *core.System) float64 {
		t.Helper()
		ans, err := sys.AskGuided(ctx, query, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := core.AverageFromRows(ans.Answer)
		if !ok {
			t.Fatalf("no answer to %q", query)
		}
		return v
	}

	corpus, truth := synth.Generate(cfg)
	oneShot := newSystem(t, corpus, 0)
	oneShotDocs := withCountedCity(oneShot)
	if _, err := oneShot.Generate(ctx, `
		EXTRACT all FROM docs USING city INTO facts;
		STORE facts INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	oneShotAnswer := ask(oneShot)

	corpus2, _ := synth.Generate(cfg)
	incr := newSystem(t, corpus2, 0)
	incrDocs := withCountedCity(incr)
	if err := incr.PlanIncremental(ctx, "city", []string{"temperature", "population", "founded"}, 16); err != nil {
		t.Fatal(err)
	}
	if err := incr.Demand(ctx, "temperature", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := incr.ExtractPending(ctx, "city", 16); err != nil {
		t.Fatal(err)
	}
	incrAnswer := ask(incr)

	if n, m := incrDocs.docs(), oneShotDocs.docs(); n == 0 || n >= m {
		t.Fatalf("incremental extracted %d documents, one-shot %d: want 0 < incremental < one-shot", n, m)
	}
	want := truth.CityTruth("Madison, Wisconsin").AvgTemp(0, 11)
	if math.Abs(incrAnswer-want) > 0.01 || math.Abs(oneShotAnswer-want) > 0.01 {
		t.Fatalf("answers: incremental %v, one-shot %v, truth %v", incrAnswer, oneShotAnswer, want)
	}
	if cov := incr.Coverage("temperature"); cov != 1 {
		t.Fatalf("temperature coverage %v at answer time, want 1 (demanded tasks run first)", cov)
	}
}

// erInstance builds an entity-resolution problem from a synthetic corpus:
// one mention per person-page title, the gold clusters, and an oracle
// answering "do these two titles name the same person?".
func erInstance() ([]integrate.Mention, [][]int, func(hi.Question) (bool, int)) {
	_, truth := synth.Generate(synth.Config{Seed: seed, Cities: 3, People: 40, MentionsPerPerson: 4})
	var mentions []integrate.Mention
	owner := map[string]int{}
	groups := map[int][]int{}
	for _, p := range truth.People {
		for _, m := range p.Mentions {
			id := len(mentions)
			mentions = append(mentions, integrate.Mention{ID: id, Surface: m.DocTitle, Context: p.City})
			owner[m.DocTitle] = p.ID
			groups[p.ID] = append(groups[p.ID], id)
		}
	}
	var gold [][]int
	for _, g := range groups {
		gold = append(gold, g)
	}
	oracle := func(q hi.Question) (bool, int) {
		if len(q.Payload) != 2 {
			return true, 0
		}
		return owner[q.Payload[0]] == owner[q.Payload[1]], 0
	}
	return mentions, gold, oracle
}

// ambiguousPairs returns the resolver's candidate pairs, least certain
// (score nearest the link threshold) first: the order a question router
// spends a feedback budget in.
func ambiguousPairs(r *integrate.Resolver, mentions []integrate.Mention) []integrate.MatchPair {
	pairs := r.CandidatePairs(mentions)
	sort.SliceStable(pairs, func(i, j int) bool {
		return math.Abs(pairs[i].Score-r.Threshold) < math.Abs(pairs[j].Score-r.Threshold)
	})
	return pairs
}

// E3 (§3.2): human feedback on the most ambiguous match pairs lifts
// entity-resolution F1 over the automatic baseline. Each decision takes
// three answers (majority vote), because one wrong "yes" merges clusters
// transitively.
func TestE3FeedbackLiftsF1(t *testing.T) {
	mentions, gold, oracle := erInstance()
	resolver := integrate.NewResolver()
	answerer := hi.NewSimulatedAnswerer("expert", 0.05, seed, oracle)
	_, _, baseline := integrate.PairwiseF1(resolver.Cluster(mentions, nil), gold)
	pairs := ambiguousPairs(resolver, mentions)

	f1 := func(budget int) float64 {
		var decisions []integrate.Decision
		for left := budget; left >= 3 && len(decisions) < len(pairs); left -= 3 {
			p := pairs[len(decisions)]
			q := hi.Question{Kind: hi.QMatch, Payload: []string{mentions[p.A].Surface, mentions[p.B].Surface}}
			yes := 0
			for rep := 0; rep < 3; rep++ {
				q.ID = budget*100000 + left*10 + rep
				if answerer.Answer(q).Yes {
					yes++
				}
			}
			decisions = append(decisions, integrate.Decision{A: p.A, B: p.B, Match: yes >= 2})
		}
		_, _, f := integrate.PairwiseF1(resolver.Cluster(mentions, decisions), gold)
		return f
	}
	if f := f1(0); f != baseline {
		t.Fatalf("budget 0 gave F1 %v, want the baseline %v", f, baseline)
	}
	if f := f1(200); f <= baseline {
		t.Fatalf("200 answers of feedback did not lift F1: %v -> %v", baseline, f)
	}
}

// E4 (§3.2 mass collaboration): at an equal question budget a crowd is not
// clearly worse than one unreliable user, and reputation weighting does not
// lose to flat voting. The crowd is one diligent curator among four
// near-coin-flip drive-by users: the long tail of open collaboration.
func TestE4CrowdOrdering(t *testing.T) {
	mentions, gold, oracle := erInstance()
	resolver := integrate.NewResolver()
	pairs := ambiguousPairs(resolver, mentions)
	um := users.NewManager()
	crowd := func(weighted bool) *hi.Crowd {
		var members []hi.Answerer
		for i, e := range []float64{0.05, 0.42, 0.45, 0.42, 0.45} {
			name := fmt.Sprintf("u%d", i)
			members = append(members, hi.NewSimulatedAnswerer(name, e, seed+int64(i), oracle))
			if weighted {
				um.Register(name, "pw", users.RoleOrdinary)
				for j := 0; j < 50; j++ { // reputation calibrated to true reliability
					um.RecordFeedbackOutcome(name, float64(j%100)/100 >= e)
				}
			}
		}
		if weighted {
			return hi.NewCrowd(members, um)
		}
		return hi.NewCrowd(members, nil)
	}
	f1 := func(c *hi.Crowd) float64 {
		const budget = 150
		var decisions []integrate.Decision
		for i, p := range pairs {
			if i == budget {
				break
			}
			q := hi.Question{ID: i + 1, Kind: hi.QMatch, Payload: []string{mentions[p.A].Surface, mentions[p.B].Surface}}
			decisions = append(decisions, integrate.Decision{A: p.A, B: p.B, Match: c.Ask(q).Yes})
		}
		_, _, f := integrate.PairwiseF1(resolver.Cluster(mentions, decisions), gold)
		return f
	}
	single := f1(hi.NewCrowd([]hi.Answerer{hi.NewSimulatedAnswerer("solo", 0.3, seed, oracle)}, nil))
	flat := f1(crowd(false))
	weighted := f1(crowd(true))
	if weighted < flat-0.02 {
		t.Fatalf("reputation weighting should not hurt: flat %v, weighted %v", flat, weighted)
	}
	if flat < single-0.05 {
		t.Fatalf("crowd should not be clearly worse than one noisy user: single %v, flat %v", single, flat)
	}
}

// E5 (§3.3 recognition over generation): the intended structured query
// appears in a short candidate list, over a workload of the messy forms
// users type — state-less city names, misspelled attributes, filler words.
func TestE5AccuracyMonotoneInK(t *testing.T) {
	_, truth := synth.Generate(synth.Config{Seed: seed, Cities: 30, People: 5, Filler: 10, MentionsPerPerson: 1})
	cat := reformulate.Catalog{
		Table:      "extracted",
		Attributes: []string{"temperature", "population", "founded"},
		Qualifiers: map[string][]string{"temperature": synth.Months},
	}
	for _, c := range truth.Cities {
		cat.Entities = append(cat.Entities, c.Title)
	}
	r := reformulate.New(cat)

	type labelled struct {
		query, attr, entity string
		agg                 reformulate.Aggregate
	}
	aggs := []struct {
		agg    reformulate.Aggregate
		phrase string
	}{{reformulate.AggAvg, "average"}, {reformulate.AggMax, "highest"}, {reformulate.AggMin, "lowest"}}
	var workload []labelled
	for i, c := range truth.Cities {
		full := strings.ReplaceAll(c.Title, ",", "")
		ap := aggs[i%len(aggs)]
		switch i % 4 {
		case 0: // clean, fully qualified
			workload = append(workload, labelled{ap.phrase + " temperature " + full, "temperature", c.Title, ap.agg})
		case 1: // city name only: ambiguous when several states share it
			workload = append(workload, labelled{ap.phrase + " temperature in " + c.Name, "temperature", c.Title, ap.agg})
		case 2: // misspelled attribute
			workload = append(workload, labelled{"what is the temprature of " + full + " please", "temperature", c.Title, reformulate.AggNone})
		default: // misspelled population lookup, name only
			workload = append(workload, labelled{"populaton of " + c.Name, "population", c.Title, reformulate.AggNone})
		}
	}

	accuracy := func(k int) float64 {
		hit := 0
		for _, w := range workload {
			for _, c := range r.Candidates(w.query, k) {
				if c.Agg == w.agg && c.Attribute == w.attr && c.Entity == w.entity {
					hit++
					break
				}
			}
		}
		return float64(hit) / float64(len(workload))
	}
	a1, a3, a10 := accuracy(1), accuracy(3), accuracy(10)
	if a1 > a3 || a3 > a10 {
		t.Fatalf("accuracy@k must be monotone: @1 %v, @3 %v, @10 %v", a1, a3, a10)
	}
	if a10 < 0.9 {
		t.Fatalf("accuracy@10 = %v, want >= 0.9", a10)
	}
}

// E6 (§4): extraction parallelizes near-linearly until the serial fraction
// dominates. The cluster makespan is simulated by list scheduling over a
// deterministic per-document cost — proportional to the document's length,
// as the regex operators' scans are — so the claim holds on any host, and
// the real cluster runtime must reproduce the serial extraction's output.
func TestE6SimulatedSpeedup(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: seed, Cities: 100, People: 20, Filler: 66, MentionsPerPerson: 2})
	pipeline := extract.DefaultCityPipeline()
	docs := corpus.Docs()

	const costPerByte = 100 * time.Nanosecond
	costs := make([]time.Duration, len(docs))
	serialFields := 0
	for i, d := range docs {
		costs[i] = time.Duration(len(d.Text)) * costPerByte
		serialFields += len(pipeline.ExtractDoc(d))
	}
	counts, err := cluster.MapOnly(cluster.New(cluster.Config{Workers: 4}), docs, func(d *doc.Document) (int, error) {
		return len(pipeline.ExtractDoc(d)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parallelFields := 0
	for _, n := range counts {
		parallelFields += n
	}
	if parallelFields != serialFields {
		t.Fatalf("4 workers extracted %d fields, serial %d: worker count changed the output", parallelFields, serialFields)
	}

	model := cluster.MakespanModel{
		PerTaskOverhead: 20 * time.Microsecond,
		SerialSetup:     2 * time.Millisecond,
		MergePerTask:    2 * time.Microsecond,
	}
	one := cluster.SimulateMakespan(costs, 1, model)
	four := cluster.SimulateMakespan(costs, 4, model)
	if speedup := float64(one) / float64(four); speedup < 2 {
		t.Fatalf("4 workers give a simulated speedup of %.2f, want >= 2", speedup)
	}
}

// E7 (§4 storage layer): storing diffs across overlapping daily crawls
// saves space roughly 1/churn-fold, so lower churn saves more.
func TestE7SavingsDecreaseWithChurn(t *testing.T) {
	savings := func(churn float64) float64 {
		corpus, _ := synth.Generate(synth.Config{Seed: seed, Cities: 60, People: 20, Filler: 40, MentionsPerPerson: 2})
		store := vstore.NewStore()
		current := map[string]string{}
		for _, d := range corpus.Docs() {
			current[d.Title] = d.Text
		}
		store.Commit(current)
		for day := 1; day < 15; day++ {
			next := map[string]string{}
			i := 0
			for title, text := range current {
				if float64(i%100)/100 < churn {
					text += fmt.Sprintf("\nDaily update %d for %s.\n", day, title)
				}
				next[title] = text
				i++
			}
			store.Commit(next)
			current = next
		}
		if err := store.Verify(); err != nil {
			t.Fatal(err)
		}
		return store.Stats().SavingsRatio()
	}
	low, high := savings(0.01), savings(0.2)
	if low <= high {
		t.Fatalf("1%% churn saved %.1fx, 20%% churn %.1fx: low churn must save more", low, high)
	}
	if low < 5 {
		t.Fatalf("1%% churn saved only %.1fx, want >= 5x", low)
	}
}

// E8: concurrent editors moving value between rows under strict 2PL. Every
// transfer eventually commits (a deadlock victim retries) and the total is
// conserved, which serializability requires.
func TestE8ConservedUnderConcurrency(t *testing.T) {
	const editors, opsPerEditor, nRows, perRow = 8, 50, 32, 1000
	db, err := rdbms.Open(rdbms.NewMemPager(), rdbms.NewMemWAL(), rdbms.Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(rdbms.TableSchema{Name: "cells", Columns: []rdbms.ColumnDef{
		{Name: "id", Type: rdbms.TInt}, {Name: "v", Type: rdbms.TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	rids := make([]rdbms.RID, nRows)
	tx := db.Begin()
	for i := range rids {
		if rids[i], err = tx.Insert("cells", rdbms.Tuple{rdbms.NewInt(int64(i)), rdbms.NewInt(perRow)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < opsPerEditor; i++ {
				from := (e*7 + i) % nRows
				to := (e*7 + i + 1 + i%5) % nRows
				if from == to {
					to = (to + 1) % nRows
				}
				err := transfer(db, rids[from], rids[to], 1)
				for errors.Is(err, rdbms.ErrDeadlock) {
					err = transfer(db, rids[from], rids[to], 1)
				}
				if err != nil {
					t.Error(err)
					return
				}
				committed.Add(1)
			}
		}(e)
	}
	wg.Wait()
	if n := committed.Load(); n != editors*opsPerEditor {
		t.Fatalf("%d of %d transfers committed", n, editors*opsPerEditor)
	}

	total := int64(0)
	tx = db.Begin()
	if err := tx.Scan("cells", func(_ rdbms.RID, t rdbms.Tuple) bool {
		total += t[1].I
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if total != nRows*perRow {
		t.Fatalf("total %d, want %d: money not conserved", total, nRows*perRow)
	}
}

func transfer(db *rdbms.DB, from, to rdbms.RID, amount int64) error {
	tx := db.Begin()
	err := func() error {
		src, live, err := tx.Get("cells", from)
		if err != nil {
			return fmt.Errorf("get src: %w", err)
		}
		dst, live2, err := tx.Get("cells", to)
		if err != nil {
			return fmt.Errorf("get dst: %w", err)
		}
		if !live || !live2 {
			return errors.New("row vanished")
		}
		if _, err := tx.Update("cells", from, rdbms.Tuple{src[0], rdbms.NewInt(src[1].I - amount)}); err != nil {
			return fmt.Errorf("update src: %w", err)
		}
		if _, err := tx.Update("cells", to, rdbms.Tuple{dst[0], rdbms.NewInt(dst[1].I + amount)}); err != nil {
			return fmt.Errorf("update dst: %w", err)
		}
		return nil
	}()
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// E8b: a B+tree index keeps a point query's work flat as the table grows,
// while a sequential scan's grows with it. Work is buffer-pool pins.
func TestE8IndexAblationSpeedup(t *testing.T) {
	type cost struct{ seq, idx int64 }
	measure := func(n int) cost {
		db, err := rdbms.Open(rdbms.NewMemPager(), rdbms.NewMemWAL(), rdbms.Options{BufferPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.CreateTable(rdbms.TableSchema{Name: "t", Columns: []rdbms.ColumnDef{
			{Name: "k", Type: rdbms.TInt}, {Name: "v", Type: rdbms.TString},
		}}); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if _, err := tx.Insert("t", rdbms.Tuple{rdbms.NewInt(int64(i)), rdbms.NewString(fmt.Sprintf("value-%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		probe := fmt.Sprintf("SELECT v FROM t WHERE k = %d", n/2)
		want := fmt.Sprintf("value-%d", n/2)
		pins := func(planWord string) int64 {
			before := db.BufferStats()
			rs, err := db.Exec(probe)
			if err != nil {
				t.Fatal(err)
			}
			after := db.BufferStats()
			if len(rs.Rows) != 1 || rs.Rows[0][0].S != want {
				t.Fatalf("%d rows: %s returned %v", n, probe, rs.Rows)
			}
			if !strings.Contains(rs.Plan, planWord) {
				t.Fatalf("plan %q, want %q", rs.Plan, planWord)
			}
			return after.Hits + after.Misses - before.Hits - before.Misses
		}
		seq := pins("seq scan")
		if err := db.CreateIndex("t", "k"); err != nil {
			t.Fatal(err)
		}
		return cost{seq: seq, idx: pins("index")}
	}
	small, large := measure(1000), measure(8000)
	if large.seq < 4*small.seq {
		t.Fatalf("seq scan pins %d -> %d over 8x the rows: the scan should grow with the table", small.seq, large.seq)
	}
	if large.idx > small.idx || large.idx*10 > large.seq {
		t.Fatalf("index pins %d -> %d (seq scan %d): the index lookup should stay flat and far below the scan", small.idx, large.idx, large.seq)
	}
}

// E9: the semantic debugger, having learned value ranges from the extracted
// data itself, flags injected 135-degree temperatures with high recall and
// precision.
func TestE9DebuggerCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	corpus, truth := synth.Generate(synth.Config{Seed: seed, Cities: 80, Filler: 10, MentionsPerPerson: 1, CorruptFrac: 0.1})
	sys := newSystem(t, corpus, 0)
	if err := sys.PlanIncremental(ctx, "city", []string{"temperature"}, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExtractPending(ctx, "city", 0); err != nil {
		t.Fatal(err)
	}
	violations, err := sys.SweepSuspicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := map[string]bool{}
	for _, c := range truth.Corruptions {
		corrupted[c.DocTitle] = true
	}
	flagged := map[string]bool{}
	for _, v := range violations {
		flagged[v.Entity] = true
	}
	tp := 0
	for e := range flagged {
		if corrupted[e] {
			tp++
		}
	}
	if len(corrupted) == 0 || len(flagged) == 0 {
		t.Fatalf("%d corrupted articles, %d flagged", len(corrupted), len(flagged))
	}
	if recall := float64(tp) / float64(len(corrupted)); recall < 0.95 {
		t.Fatalf("recall %v (%d of %d corrupted articles flagged)", recall, tp, len(corrupted))
	}
	if precision := float64(tp) / float64(len(flagged)); precision < 0.8 {
		t.Fatalf("precision %v (%d of %d flagged articles corrupted)", precision, tp, len(flagged))
	}
}

// E10: the UQL optimizer's rewrites (document prefiltering, early
// confidence filtering, parallel extraction) change how much work a
// program does, never what it outputs.
func TestE10SameResultsEveryConfig(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name    string
		opts    uql.Options
		workers int
	}{
		{"full optimizer", uql.Options{}, 4},
		{"no prefilter", uql.Options{NoPrefilter: true}, 4},
		{"no early conf filter", uql.Options{NoEarlyConfFilter: true}, 4},
		{"sequential", uql.Options{NoParallel: true}, 0},
		{"no optimizations", uql.Options{NoPrefilter: true, NoEarlyConfFilter: true, NoParallel: true}, 0},
	}
	docs := make([]int64, len(configs))
	rows := make([]int, len(configs))
	for i, cfg := range configs {
		corpus, _ := synth.Generate(synth.Config{Seed: seed, Cities: 100, People: 20, Filler: 100, MentionsPerPerson: 2})
		sys := newSystem(t, corpus, cfg.workers)
		if _, err := sys.Generate(ctx, `EXTRACT temperature, population FROM docs USING city MINCONF 0.5 INTO facts;`, cfg.opts); err != nil {
			t.Fatal(err)
		}
		docs[i] = sys.Stats.Counter("uql.extract.docs")
		rows[i] = len(sys.Env.Relations["facts"])
		if rows[i] != rows[0] {
			t.Fatalf("%s produced %d rows, %s %d", cfg.name, rows[i], configs[0].name, rows[0])
		}
	}
	if rows[0] == 0 {
		t.Fatal("the program extracted nothing")
	}
	if docs[1] <= docs[0] {
		t.Fatalf("prefilter had no effect: %d documents extracted with it, %d without", docs[0], docs[1])
	}
}
