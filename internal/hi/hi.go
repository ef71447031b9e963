// Package hi implements the human-intervention (HI) framework the paper
// places at the heart of its DGE model: the system isolates decisions that
// are hard for automatic techniques but easy for people (is this match
// correct? is this extracted value right?), routes them as questions, and
// folds answers back in. Answers may come from a single expert or a crowd
// (mass collaboration), aggregated by reputation-weighted voting.
//
// Humans are simulated by SimulatedAnswerer: an oracle with a configurable
// error rate, so the paper's claims about HI accuracy lift can be
// measured without actual people (internal/experiments E3, E4).
package hi

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// QuestionKind classifies what is being asked.
type QuestionKind string

const (
	// QMatch asks whether two mentions/attributes refer to the same thing.
	QMatch QuestionKind = "match"
	// QValueCheck asks whether an extracted value is correct.
	QValueCheck QuestionKind = "value-check"
	// QFormChoice asks which candidate structured query matches an intent.
	QFormChoice QuestionKind = "form-choice"
)

// Question is one unit of work routed to humans.
type Question struct {
	ID      int
	Kind    QuestionKind
	Subject string // e.g. "David Smith ~ D. Smith" or "temperature=135"
	// Payload carries kind-specific data (e.g. candidate list for
	// QFormChoice).
	Payload []string
	// Priority orders the queue; higher first. The question router sets
	// this from expected information gain (e.g. match-score ambiguity).
	Priority float64
}

// Answer is one human response.
type Answer struct {
	QuestionID int
	UserID     string
	// Yes is the verdict for QMatch/QValueCheck; Choice indexes Payload
	// for QFormChoice.
	Yes    bool
	Choice int
}

// Queue is a priority queue of pending questions with a budget: the paper's
// point is that human attention is scarce, so the system must ask the most
// valuable questions first.
type Queue struct {
	mu      sync.Mutex
	nextID  int
	pending []Question
	asked   int
	budget  int // 0 = unlimited
}

// NewQueue returns a queue with the given question budget (0 = unlimited).
func NewQueue(budget int) *Queue {
	return &Queue{budget: budget}
}

// Push enqueues a question and returns its assigned ID.
func (q *Queue) Push(question Question) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	question.ID = q.nextID
	q.pending = append(q.pending, question)
	sort.SliceStable(q.pending, func(i, j int) bool {
		return q.pending[i].Priority > q.pending[j].Priority
	})
	return question.ID
}

// Pop returns the highest-priority question, or false when empty or the
// budget is exhausted.
func (q *Queue) Pop() (Question, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return Question{}, false
	}
	if q.budget > 0 && q.asked >= q.budget {
		return Question{}, false
	}
	question := q.pending[0]
	q.pending = q.pending[1:]
	q.asked++
	return question, true
}

// Len returns the number of pending questions.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Asked returns how many questions have been handed out.
func (q *Queue) Asked() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.asked
}

// Answerer produces an answer to a question. Implementations: simulated
// users (below); a real deployment would bridge to a UI.
type Answerer interface {
	// ID identifies the user for reputation accounting.
	ID() string
	// Answer responds to a question given the hidden truth oracle is
	// internal to the implementation.
	Answer(q Question) Answer
}

// Oracle supplies ground truth for simulated answerers: it returns the
// correct verdict/choice for a question.
type Oracle func(q Question) (yes bool, choice int)

// SimulatedAnswerer is a configurable human: it answers correctly except
// with probability ErrorRate, using a deterministic seeded RNG.
type SimulatedAnswerer struct {
	UserID    string
	ErrorRate float64
	oracle    Oracle
	rng       *rand.Rand
	mu        sync.Mutex
	answered  int
}

// NewSimulatedAnswerer builds a simulated user around a truth oracle.
func NewSimulatedAnswerer(id string, errorRate float64, seed int64, oracle Oracle) *SimulatedAnswerer {
	return &SimulatedAnswerer{
		UserID:    id,
		ErrorRate: errorRate,
		oracle:    oracle,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// ID implements Answerer.
func (s *SimulatedAnswerer) ID() string { return s.UserID }

// Answered returns how many questions this user has answered.
func (s *SimulatedAnswerer) Answered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.answered
}

// Answer implements Answerer.
func (s *SimulatedAnswerer) Answer(q Question) Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.answered++
	yes, choice := s.oracle(q)
	if s.rng.Float64() < s.ErrorRate {
		// A wrong answer: flip the verdict / pick a wrong choice.
		yes = !yes
		if len(q.Payload) > 1 {
			choice = (choice + 1 + s.rng.Intn(len(q.Payload)-1)) % len(q.Payload)
		}
	}
	return Answer{QuestionID: q.ID, UserID: s.UserID, Yes: yes, Choice: choice}
}

// ReputationSource supplies a weight for a user's vote; the users package
// implements it. A nil source weighs everyone equally.
type ReputationSource interface {
	Weight(userID string) float64
}

// Crowd aggregates several answerers with reputation-weighted voting —
// the paper's "mass collaboration" option.
type Crowd struct {
	Members []Answerer
	Rep     ReputationSource
}

// NewCrowd builds a crowd.
func NewCrowd(members []Answerer, rep ReputationSource) *Crowd {
	return &Crowd{Members: members, Rep: rep}
}

// Verdict is an aggregated crowd answer.
type Verdict struct {
	QuestionID int
	Yes        bool
	Choice     int
	// Support is the weighted fraction of the crowd agreeing with the
	// verdict, in [0,1]; downstream confidence updates use it.
	Support float64
	Answers []Answer
}

// Ask puts a question to every member and aggregates by weighted vote.
func (c *Crowd) Ask(q Question) Verdict {
	answers := make([]Answer, 0, len(c.Members))
	yesW, noW := 0.0, 0.0
	choiceW := map[int]float64{}
	total := 0.0
	for _, m := range c.Members {
		a := m.Answer(q)
		answers = append(answers, a)
		w := 1.0
		if c.Rep != nil {
			w = c.Rep.Weight(m.ID())
		}
		total += w
		if a.Yes {
			yesW += w
		} else {
			noW += w
		}
		choiceW[a.Choice] += w
	}
	v := Verdict{QuestionID: q.ID, Answers: answers}
	if total == 0 {
		return v
	}
	v.Yes = yesW >= noW
	if v.Yes {
		v.Support = yesW / total
	} else {
		v.Support = noW / total
	}
	best, bestW := 0, -1.0
	keys := make([]int, 0, len(choiceW))
	for k := range choiceW {
		keys = append(keys, k)
	}
	sort.Ints(keys) // deterministic tie-break
	for _, k := range keys {
		if choiceW[k] > bestW {
			best, bestW = k, choiceW[k]
		}
	}
	v.Choice = best
	return v
}

// Session drives a feedback loop: it drains a queue through a crowd and
// collects verdicts, reporting accuracy against the oracle when one is
// provided (experiment instrumentation).
type Session struct {
	Queue *Queue
	Crowd *Crowd
}

// Run processes up to max questions (0 = until empty/budget), invoking
// apply for each verdict.
func (s *Session) Run(max int, apply func(q Question, v Verdict)) int {
	n := 0
	for {
		if max > 0 && n >= max {
			return n
		}
		q, ok := s.Queue.Pop()
		if !ok {
			return n
		}
		v := s.Crowd.Ask(q)
		apply(q, v)
		n++
	}
}

// MatchSubject renders the standard subject line for a match question.
func MatchSubject(a, b string) string { return fmt.Sprintf("%s ~ %s", a, b) }
