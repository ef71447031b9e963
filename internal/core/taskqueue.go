package core

import (
	"container/heap"
	"errors"
	"sort"
	"strings"

	"repro/internal/doc"
	"repro/internal/rdbms"
)

// tasksTable is the engine table holding the incremental extraction plan:
// one row per task. PlanIncremental inserts a plan's rows in one
// transaction, and ExtractPending marks a task done in the transaction
// that inserts its extracted rows, so the queue and its progress recover
// with the database and no crash can lose or repeat a completed task.
// Demand boosts stay in memory (AskGuided raises them on every ask); Close
// writes the changed priorities back, so only a crash loses boosts.
const tasksTable = "tasks"

var tasksSchema = rdbms.TableSchema{Name: tasksTable, Columns: []rdbms.ColumnDef{
	{Name: "attribute", Type: rdbms.TString},
	{Name: "part", Type: rdbms.TInt},
	{Name: "priority", Type: rdbms.TFloat},
	{Name: "docs", Type: rdbms.TString}, // document titles, newline-separated
	{Name: "done", Type: rdbms.TBool},
}}

// taskTitlesBudget bounds one task row's joined document titles, so the
// row fits in a heap page.
const taskTitlesBudget = 3 << 10

// task is one unit of incremental best-effort extraction: one attribute
// over one partition of the corpus.
type task struct {
	attribute string
	docs      []*doc.Document
	priority  float64
	part      int

	rid   rdbms.RID // the task's row in tasksTable
	saved float64   // the priority its row holds
}

// row is the task's tasksTable row.
func (tk *task) row(done bool) rdbms.Tuple {
	titles := make([]string, len(tk.docs))
	for i, d := range tk.docs {
		titles[i] = d.Title
	}
	return rdbms.Tuple{
		rdbms.NewString(tk.attribute), rdbms.NewInt(int64(tk.part)),
		rdbms.NewFloat(tk.priority), rdbms.NewString(strings.Join(titles, "\n")),
		rdbms.NewBool(done),
	}
}

// errTaskGone reports that a task's row no longer holds the task: a
// direct SQL write deleted it, and its slot may since hold another row.
var errTaskGone = errors.New("core: task row removed by a direct write")

// updateTask rewrites tk's row in tx with its current priority and the
// given done flag, after checking the row still holds tk.
func updateTask(tx *rdbms.Txn, tk *task, done bool) error {
	cur, live, err := tx.Get(tasksTable, tk.rid)
	if err != nil {
		return err
	}
	want := tk.row(done)
	if !live || len(cur) != len(want) || cur[0].S != want[0].S || cur[1].I != want[1].I || cur[3].S != want[3].S {
		return errTaskGone
	}
	_, err = tx.Update(tasksTable, tk.rid, want)
	return err
}

// planTasks splits one partition into tasks whose joined titles fit
// taskTitlesBudget; a partition within the budget is one task.
func planTasks(attribute string, part int, docs []*doc.Document) []task {
	var out []task
	for len(docs) > 0 {
		n, size := 1, len(docs[0].Title)
		for n < len(docs) && size+1+len(docs[n].Title) <= taskTitlesBudget {
			size += 1 + len(docs[n].Title)
			n++
		}
		out = append(out, task{attribute: attribute, part: part, docs: docs[:n]})
		docs = docs[n:]
	}
	return out
}

// taskQueue is the pending-extraction queue: a priority queue over tasks
// (highest priority first, FIFO among equal priorities — the same order
// the previous stable-sort implementation produced) with a per-attribute
// index so demand boosts touch only the affected attribute's tasks.
//
// Complexities, n = pending tasks, k = tasks of one attribute:
//   - push:            O(log n)
//   - pop (highest):   O(log n)
//   - boost(attr):     O(k log n)   (was O(n) scan + O(n log n) sort per drain)
//
// Guarded by System.mu.
type taskQueue struct {
	items   taskHeap
	byAttr  map[string][]*taskItem
	nextSeq int64
}

// taskItem is a queued task plus its bookkeeping positions in the heap and
// in its attribute's index slice.
type taskItem struct {
	task
	seq     int64 // insertion order, breaks priority ties FIFO
	heapIdx int
	attrIdx int
}

type taskHeap []*taskItem

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *taskHeap) Push(x any) {
	it := x.(*taskItem)
	it.heapIdx = len(*h)
	*h = append(*h, it)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func (q *taskQueue) len() int { return len(q.items) }

// push enqueues one task.
func (q *taskQueue) push(t task) {
	if q.byAttr == nil {
		q.byAttr = map[string][]*taskItem{}
	}
	it := &taskItem{task: t, seq: q.nextSeq}
	q.nextSeq++
	it.attrIdx = len(q.byAttr[t.attribute])
	q.byAttr[t.attribute] = append(q.byAttr[t.attribute], it)
	heap.Push(&q.items, it)
}

// pop removes and returns the highest-priority task. ok is false when the
// queue is empty.
func (q *taskQueue) pop() (task, bool) {
	if len(q.items) == 0 {
		return task{}, false
	}
	it := heap.Pop(&q.items).(*taskItem)
	q.dropFromAttrIndex(it)
	return it.task, true
}

// dropFromAttrIndex swap-deletes the item from its attribute's index.
func (q *taskQueue) dropFromAttrIndex(it *taskItem) {
	idx := q.byAttr[it.attribute]
	last := len(idx) - 1
	moved := idx[last]
	idx[it.attrIdx] = moved
	moved.attrIdx = it.attrIdx
	idx[last] = nil
	if last == 0 {
		delete(q.byAttr, it.attribute)
	} else {
		q.byAttr[it.attribute] = idx[:last]
	}
}

// snapshot returns every pending task in pop order (priority desc, FIFO
// among equals) without draining the queue.
func (q *taskQueue) snapshot() []task {
	items := append([]*taskItem(nil), q.items...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].priority != items[j].priority {
			return items[i].priority > items[j].priority
		}
		return items[i].seq < items[j].seq
	})
	out := make([]task, len(items))
	for i, it := range items {
		out[i] = it.task
	}
	return out
}

// boost raises the priority of every pending task of one attribute and
// restores heap order for each.
func (q *taskQueue) boost(attribute string, delta float64) {
	for _, it := range q.byAttr[attribute] {
		it.priority += delta
		heap.Fix(&q.items, it.heapIdx)
	}
}

// loadTasks rebuilds the queue and the done/total counters from the tasks
// table (New; empty for a fresh database). Documents are resolved by
// title against the corpus; a title the corpus no longer holds is dropped
// from its task and counted in core.tasks.unresolved_docs.
func (s *System) loadTasks() error {
	var byTitle map[string]*doc.Document
	sn := s.DB.BeginSnapshot()
	defer sn.Close()
	return sn.Scan(tasksTable, func(rid rdbms.RID, t rdbms.Tuple) bool {
		attr := t[0].S
		s.total[attr]++
		if t[4].B {
			s.done[attr]++
			return true
		}
		if byTitle == nil {
			byTitle = make(map[string]*doc.Document, s.Corpus.Len())
			for _, d := range s.Corpus.Docs() {
				byTitle[d.Title] = d
			}
		}
		tk := task{attribute: attr, part: int(t[1].I), priority: t[2].F, saved: t[2].F, rid: rid}
		for _, title := range strings.Split(t[3].S, "\n") {
			if d := byTitle[title]; d != nil {
				tk.docs = append(tk.docs, d)
			} else {
				s.Stats.Inc("core.tasks.unresolved_docs", 1)
			}
		}
		s.queue.push(tk)
		return true
	})
}

// persistBoosts writes the priorities Demand changed back to the pending
// tasks' rows, in one transaction (Close, after the drain).
func (s *System) persistBoosts() error {
	s.mu.Lock()
	var changed []task
	for _, it := range s.queue.items {
		if it.priority != it.saved {
			changed = append(changed, it.task)
		}
	}
	s.mu.Unlock()
	if len(changed) == 0 {
		return nil
	}
	tx := s.DB.Begin()
	for i := range changed {
		if err := updateTask(tx, &changed[i], false); err != nil && !errors.Is(err, errTaskGone) {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		tx.Abort()
		return err
	}
	return nil
}
