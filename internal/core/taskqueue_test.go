package core

import (
	"context"
	"testing"

	"repro/internal/doc"
	"repro/internal/synth"
)

func TestTaskQueueOrdering(t *testing.T) {
	var q taskQueue
	// Three attributes, two parts each, all priority 0.
	for _, attr := range []string{"a", "b", "c"} {
		for p := 0; p < 2; p++ {
			q.push(task{attribute: attr, part: p})
		}
	}
	if q.len() != 6 {
		t.Fatalf("len = %d", q.len())
	}
	// Boost b: its tasks drain first, FIFO among themselves; the rest keep
	// insertion order (the stable-sort contract of the old implementation).
	q.boost("b", 5)
	want := []struct {
		attr string
		part int
	}{
		{"b", 0}, {"b", 1},
		{"a", 0}, {"a", 1}, {"c", 0}, {"c", 1},
	}
	for i, w := range want {
		tk, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if tk.attribute != w.attr || tk.part != w.part {
			t.Fatalf("pop %d = %s/%d, want %s/%d", i, tk.attribute, tk.part, w.attr, w.part)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestTaskQueueBoostAfterPartialDrain(t *testing.T) {
	var q taskQueue
	for i := 0; i < 4; i++ {
		q.push(task{attribute: "x", part: i})
	}
	q.push(task{attribute: "y", part: 0})
	// Drain two x tasks, then boost y: the per-attribute index must have
	// dropped the popped items.
	q.pop()
	q.pop()
	q.boost("y", 10)
	tk, _ := q.pop()
	if tk.attribute != "y" {
		t.Fatalf("after boost, popped %s", tk.attribute)
	}
	// Remaining x tasks keep FIFO order.
	tk, _ = q.pop()
	if tk.attribute != "x" || tk.part != 2 {
		t.Fatalf("popped %s/%d, want x/2", tk.attribute, tk.part)
	}
	tk, _ = q.pop()
	if tk.attribute != "x" || tk.part != 3 {
		t.Fatalf("popped %s/%d, want x/3", tk.attribute, tk.part)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d", q.len())
	}
	// Boosting a fully drained attribute is a no-op, not a panic.
	q.boost("x", 1)
}

func TestTaskQueueCumulativeBoosts(t *testing.T) {
	var q taskQueue
	q.push(task{attribute: "a"})
	q.push(task{attribute: "b"})
	q.push(task{attribute: "c"})
	q.boost("c", 1)
	q.boost("b", 1)
	q.boost("b", 1) // b overtakes c cumulatively
	order := []string{}
	for {
		tk, ok := q.pop()
		if !ok {
			break
		}
		order = append(order, tk.attribute)
	}
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
}

// TestPlanSplitsOversizedPartition: a task row carries its documents'
// titles and must fit in a heap page, so a partition whose titles exceed
// taskTitlesBudget is planned as several consecutive tasks under one part
// number — together covering the partition once, in corpus order — and
// the plan persists and drains like any other.
func TestPlanSplitsOversizedPartition(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: 2, Cities: 250, People: 80, Filler: 150, MentionsPerPerson: 1})
	titles := 0
	for _, d := range corpus.Docs() {
		titles += len(d.Title) + 1
	}
	if titles <= 2*taskTitlesBudget {
		t.Fatalf("corpus titles take %d bytes; the test needs more than two task rows' worth", titles)
	}
	dir := t.TempDir()
	s, _, err := OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlanIncremental(context.Background(), "city", []string{"population"}, 1); err != nil {
		t.Fatal(err)
	}
	tasks := queueTasks(s)
	if len(tasks) < 3 {
		t.Fatalf("one %d-byte partition planned as %d tasks, want at least 3", titles, len(tasks))
	}
	var covered []*doc.Document
	for _, tk := range tasks {
		if tk.part != 0 {
			t.Fatalf("split task has part %d, want 0", tk.part)
		}
		covered = append(covered, tk.docs...)
	}
	if len(covered) != corpus.Len() {
		t.Fatalf("split tasks cover %d documents, corpus has %d", len(covered), corpus.Len())
	}
	for i, d := range corpus.Docs() {
		if covered[i] != d {
			t.Fatalf("split tasks cover document %d out of corpus order", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, err = OpenDir(dir, Config{Corpus: corpus}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(queueTasks(s)); got != len(tasks) {
		t.Fatalf("reopened queue has %d tasks, want %d", got, len(tasks))
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	if s.PendingTasks() != 0 || s.Coverage("population") != 1 {
		t.Fatalf("after the drain: %d pending, coverage %v", s.PendingTasks(), s.Coverage("population"))
	}
}

// queueTasks returns the pending tasks in pop order.
func queueTasks(s *System) []task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.snapshot()
}
