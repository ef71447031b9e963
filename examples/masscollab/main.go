// Masscollab demonstrates the paper's mass-collaboration option: a crowd
// of simulated ordinary users (with mixed reliability) curates the
// entity-resolution step of a community portal. Reputation weighting
// makes the reliable curator's vote count more; the incentive manager
// keeps a leaderboard; contributions also flow through the wiki store
// with edit-conflict handling.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/hi"
	"repro/internal/integrate"
	"repro/internal/synth"
	"repro/internal/uql"
)

func main() {
	corpus, truth := synth.Generate(synth.Config{
		Seed: 5, Cities: 10, People: 30, Filler: 10, MentionsPerPerson: 4,
	})

	// Ground truth for simulated users: two page titles co-refer when they
	// belong to the same generated person.
	titleOwner := map[string]int{}
	for _, p := range truth.People {
		for _, m := range p.Mentions {
			titleOwner[m.DocTitle] = p.ID
		}
	}
	oracle := func(q hi.Question) (bool, int) {
		if len(q.Payload) == 2 {
			a, okA := titleOwner[q.Payload[0]]
			b, okB := titleOwner[q.Payload[1]]
			return okA && okB && a == b, 0
		}
		return true, 0
	}

	// A crowd: one diligent curator, several casual users.
	crowdSpec := []struct {
		name string
		err  float64
	}{
		{"curator", 0.02}, {"casual1", 0.25}, {"casual2", 0.25},
		{"casual3", 0.3}, {"driveby", 0.45},
	}
	sys, err := core.New(core.Config{Corpus: corpus})
	if err != nil {
		log.Fatal(err)
	}
	var members []hi.Answerer
	for i, u := range crowdSpec {
		sys.Users.Register(u.name, "pw", "ordinary")
		members = append(members, hi.NewSimulatedAnswerer(u.name, u.err, int64(i+1), oracle))
	}
	// Seed reputations from a calibration round with known answers (the
	// oracle sees "calib" as a self-match, so the truth is always "yes").
	titleOwner["calib"] = -1
	for i := 0; i < 40; i++ {
		q := hi.Question{ID: 1000 + i, Payload: []string{"calib", "calib"}}
		for _, m := range members {
			a := m.Answer(q)
			sys.Users.RecordFeedbackOutcome(a.UserID, a.Yes)
		}
	}
	fmt.Println("reputations after calibration:")
	for _, u := range crowdSpec {
		fmt.Printf("  %-8s weight %.2f\n", u.name, sys.Users.Weight(u.name))
	}

	// Run the person pipeline with HI-assisted entity resolution in an
	// environment of our own: a copy of the system's, with the
	// reputation-weighted crowd wired in. System.Generate would empty the
	// relations when the program returns; this one keeps them for scoring,
	// and its STORE still writes through the system's sink.
	env := *sys.Env
	env.Crowd = hi.NewCrowd(members, sys.Users)
	env.Relations = map[string][]uql.Row{}
	_, err = uql.Exec(`
		EXTRACT born FROM docs USING person KIND person INTO people;
		RESOLVE people THRESHOLD 0.82 BUDGET 80 INTO resolved;
		STORE resolved INTO TABLE extracted;
	`, &env, uql.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquestions asked of the crowd: %d\n", sys.Stats.Counter("uql.resolve.questions"))
	fmt.Printf("rows re-pointed at canonical entities: %d\n", sys.Stats.Counter("uql.resolve.merged"))

	// Score resolution quality against ground truth by pairing the rows
	// before and after RESOLVE (order is preserved).
	before := env.Relations["people"]
	after := env.Relations["resolved"]
	p, r, f1 := scoreResolution(before, after, titleOwner)
	fmt.Printf("entity resolution vs truth: precision %.2f, recall %.2f, F1 %.2f\n", p, r, f1)

	// Award contributors and show the leaderboard.
	for _, u := range crowdSpec {
		correct, wrong := sys.Users.Accuracy(u.name)
		sys.Users.Award(u.name, int64(correct-wrong))
	}
	fmt.Println("\nleaderboard:")
	for _, e := range sys.Users.Leaderboard(5) {
		fmt.Printf("  %-8s %4d points (weight %.2f)\n", e.Name, e.Points, e.Weight)
	}

	// Contributions also land in the wiki with optimistic concurrency.
	if err := sys.Wiki.Create("People portal", "Curated people directory.", "curator", "init"); err != nil {
		log.Fatal(err)
	}
	head, _ := sys.Wiki.Read("People portal")
	if _, err := sys.Wiki.Edit("People portal", head.Text+"\nReviewed by the crowd.", "casual1", "note", head.Num); err != nil {
		log.Fatal(err)
	}
	// A stale edit is rejected, not silently merged.
	if _, err := sys.Wiki.Edit("People portal", "clobber", "driveby", "oops", head.Num); err != nil {
		fmt.Printf("\nwiki conflict handled: %v\n", strings.SplitN(err.Error(), ":", 2)[0])
	}
}

// scoreResolution computes pairwise P/R/F1 of predicted title clusters
// (titles sharing a resolved entity) against gold clusters (titles of the
// same generated person).
func scoreResolution(before, after []uql.Row, titleOwner map[string]int) (p, r, f1 float64) {
	titleID := map[string]int{}
	idOf := func(title string) int {
		if id, ok := titleID[title]; ok {
			return id
		}
		id := len(titleID)
		titleID[title] = id
		return id
	}
	predGroups := map[string]map[int]bool{}
	goldGroups := map[int]map[int]bool{}
	for i := range before {
		title := before[i].Entity
		id := idOf(title)
		canon := after[i].Entity
		if predGroups[canon] == nil {
			predGroups[canon] = map[int]bool{}
		}
		predGroups[canon][id] = true
		owner, ok := titleOwner[title]
		if !ok {
			continue
		}
		if goldGroups[owner] == nil {
			goldGroups[owner] = map[int]bool{}
		}
		goldGroups[owner][id] = true
	}
	toClusters := func(groups map[int]bool) []int {
		var out []int
		for id := range groups {
			out = append(out, id)
		}
		return out
	}
	var pred, gold [][]int
	for _, g := range predGroups {
		pred = append(pred, toClusters(g))
	}
	for _, g := range goldGroups {
		gold = append(gold, toClusters(g))
	}
	return integrate.PairwiseF1(pred, gold)
}
