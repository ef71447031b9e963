package rdbms

import (
	"fmt"
	"sync"
)

// BTree is an in-memory B+tree index mapping a single-column key Value to
// the RIDs of tuples with that key. Duplicate keys are supported; each key
// holds a posting list. Indexes need no WAL records of their own:
// recovery restores each from its checkpoint chain plus the WAL tail's
// row deltas, or rebuilds it from the heap (idxcheckpoint.go).
type BTree struct {
	mu    sync.RWMutex
	root  node
	order int   // max children of an internal node
	size  int   // number of (key, rid) pairs
	mut   int64 // mutation counter: bumps on every content change
}

const defaultBTreeOrder = 64

type node interface {
	isLeaf() bool
}

type leafNode struct {
	keys     []Value
	postings [][]RID
	next     *leafNode
}

func (*leafNode) isLeaf() bool { return true }

type innerNode struct {
	keys     []Value // separators: children[i] holds keys < keys[i]
	children []node
}

func (*innerNode) isLeaf() bool { return false }

// NewBTree returns an empty tree with the default order.
func NewBTree() *BTree { return NewBTreeOrder(defaultBTreeOrder) }

// NewBTreeOrder returns an empty tree with the given order (min 4).
func NewBTreeOrder(order int) *BTree {
	if order < 4 {
		order = 4
	}
	return &BTree{root: &leafNode{}, order: order}
}

// Len returns the number of (key, rid) entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Mutations returns the number of content changes (inserts and deletes)
// applied to the tree. Index checkpointing uses it to skip
// re-serializing an index whose contents have not moved since its chain
// was last written or loaded.
func (t *BTree) Mutations() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mut
}

func lessKey(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c < 0
}

func eqKey(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// findLeaf descends to the leaf that should contain key, recording the path.
func (t *BTree) findLeaf(key Value) (*leafNode, []*innerNode, []int) {
	var path []*innerNode
	var idxs []int
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		i := 0
		for i < len(in.keys) && !lessKey(key, in.keys[i]) {
			i++
		}
		path = append(path, in)
		idxs = append(idxs, i)
		n = in.children[i]
	}
	return n.(*leafNode), path, idxs
}

// Insert adds (key, rid).
func (t *BTree) Insert(key Value, rid RID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mut++
	leaf, path, idxs := t.findLeaf(key)
	// Position within leaf.
	i := 0
	for i < len(leaf.keys) && lessKey(leaf.keys[i], key) {
		i++
	}
	if i < len(leaf.keys) && eqKey(leaf.keys[i], key) {
		leaf.postings[i] = append(leaf.postings[i], rid)
		t.size++
		return
	}
	leaf.keys = insertValueAt(leaf.keys, i, key)
	leaf.postings = insertPostingAt(leaf.postings, i, []RID{rid})
	t.size++
	if len(leaf.keys) < t.order {
		return
	}
	// Split the leaf.
	mid := len(leaf.keys) / 2
	right := &leafNode{
		keys:     append([]Value(nil), leaf.keys[mid:]...),
		postings: append([][]RID(nil), leaf.postings[mid:]...),
		next:     leaf.next,
	}
	leaf.keys = leaf.keys[:mid:mid]
	leaf.postings = leaf.postings[:mid:mid]
	leaf.next = right
	t.propagateSplit(path, idxs, right.keys[0], right)
}

// propagateSplit inserts (sep, right) into the parent chain, splitting
// internal nodes as needed.
func (t *BTree) propagateSplit(path []*innerNode, idxs []int, sep Value, right node) {
	for level := len(path) - 1; level >= 0; level-- {
		parent := path[level]
		i := idxs[level]
		parent.keys = insertValueAt(parent.keys, i, sep)
		parent.children = insertNodeAt(parent.children, i+1, right)
		if len(parent.children) <= t.order {
			return
		}
		mid := len(parent.keys) / 2
		sep = parent.keys[mid]
		newRight := &innerNode{
			keys:     append([]Value(nil), parent.keys[mid+1:]...),
			children: append([]node(nil), parent.children[mid+1:]...),
		}
		parent.keys = parent.keys[:mid:mid]
		parent.children = parent.children[: mid+1 : mid+1]
		right = newRight
	}
	// Root split.
	t.root = &innerNode{keys: []Value{sep}, children: []node{t.root, right}}
}

// Delete removes one (key, rid) pair; it returns false if absent. Leaves
// may underflow — the tree does not rebalance on delete (acceptable for an
// index that is rebuilt at open; lookups remain correct).
func (t *BTree) Delete(key Value, rid RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, _, _ := t.findLeaf(key)
	for i, k := range leaf.keys {
		if !eqKey(k, key) {
			continue
		}
		for j, r := range leaf.postings[i] {
			if r == rid {
				leaf.postings[i] = append(leaf.postings[i][:j], leaf.postings[i][j+1:]...)
				t.size--
				t.mut++
				if len(leaf.postings[i]) == 0 {
					leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
					leaf.postings = append(leaf.postings[:i], leaf.postings[i+1:]...)
				}
				return true
			}
		}
		return false
	}
	return false
}

// Lookup returns the RIDs for key (nil if none).
func (t *BTree) Lookup(key Value) []RID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, _, _ := t.findLeaf(key)
	for i, k := range leaf.keys {
		if eqKey(k, key) {
			return append([]RID(nil), leaf.postings[i]...)
		}
	}
	return nil
}

// CountKey returns the number of entries for key without copying the
// posting list. The access-path chooser uses it as an exact cardinality
// estimate when several equality predicates could use an index.
func (t *BTree) CountKey(key Value) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, _, _ := t.findLeaf(key)
	for i, k := range leaf.keys {
		if eqKey(k, key) {
			return len(leaf.postings[i])
		}
	}
	return 0
}

// Range calls fn for every (key, rid) with lo <= key <= hi, in key order.
// A nil lo means unbounded below; nil hi unbounded above. Returning false
// stops the iteration.
func (t *BTree) Range(lo, hi *Value, fn func(key Value, rid RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaf *leafNode
	if lo != nil {
		leaf, _, _ = t.findLeaf(*lo)
	} else {
		n := t.root
		for !n.isLeaf() {
			n = n.(*innerNode).children[0]
		}
		leaf = n.(*leafNode)
	}
	for leaf != nil {
		for i, k := range leaf.keys {
			if lo != nil {
				if c, ok := Compare(k, *lo); !ok || c < 0 {
					continue
				}
			}
			if hi != nil {
				if c, ok := Compare(k, *hi); !ok || c > 0 {
					return
				}
			}
			for _, rid := range leaf.postings[i] {
				if !fn(k, rid) {
					return
				}
			}
		}
		leaf = leaf.next
	}
}

// GroupedRange calls fn once per distinct key with lo <= key <= hi (nil =
// unbounded), with that key's posting list, in ascending (desc=false) or
// descending (desc=true) key order. The posting slice is the tree's own
// storage: callers must not retain or mutate it past the callback.
// Returning false stops the iteration. The sorted-query index-order path
// uses this to stream rows in ORDER BY order without materializing the
// whole index.
func (t *BTree) GroupedRange(lo, hi *Value, desc bool, fn func(key Value, rids []RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if desc {
		groupedDesc(t.root, lo, hi, fn)
		return
	}
	var leaf *leafNode
	if lo != nil {
		leaf, _, _ = t.findLeaf(*lo)
	} else {
		n := t.root
		for !n.isLeaf() {
			n = n.(*innerNode).children[0]
		}
		leaf = n.(*leafNode)
	}
	for leaf != nil {
		for i, k := range leaf.keys {
			if lo != nil {
				if c, ok := Compare(k, *lo); !ok || c < 0 {
					continue
				}
			}
			if hi != nil {
				if c, ok := Compare(k, *hi); !ok || c > 0 {
					return
				}
			}
			if !fn(k, leaf.postings[i]) {
				return
			}
		}
		leaf = leaf.next
	}
}

// groupedDesc walks the subtree in descending key order. The leaf chain
// only links forward, so the descent recurses through internal nodes in
// reverse child order, pruning children entirely above hi; it returns
// false once a key below lo is reached (every later key is smaller).
func groupedDesc(n node, lo, hi *Value, fn func(key Value, rids []RID) bool) bool {
	if n.isLeaf() {
		leaf := n.(*leafNode)
		for i := len(leaf.keys) - 1; i >= 0; i-- {
			k := leaf.keys[i]
			if hi != nil {
				if c, ok := Compare(k, *hi); !ok || c > 0 {
					continue
				}
			}
			if lo != nil {
				if c, ok := Compare(k, *lo); ok && c < 0 {
					return false
				}
			}
			if !fn(k, leaf.postings[i]) {
				return false
			}
		}
		return true
	}
	in := n.(*innerNode)
	for ci := len(in.children) - 1; ci >= 0; ci-- {
		// children[ci] holds keys >= keys[ci-1] (for ci > 0): skip the
		// child when its lower separator already exceeds hi.
		if hi != nil && ci > 0 {
			if c, ok := Compare(in.keys[ci-1], *hi); ok && c > 0 {
				continue
			}
		}
		if !groupedDesc(in.children[ci], lo, hi, fn) {
			return false
		}
	}
	return true
}

// newBTreeFromSorted builds a tree from entries already in strictly
// ascending key order, each key owning its posting list. It is the index
// checkpoint loader's bulk path: leaves are filled left to right and the
// internal levels assembled bottom-up, so construction is O(n) with zero
// key comparisons — against O(n log n) comparison-driven inserts for a
// rebuild from the heap. The caller transfers ownership of keys and
// postings. Invalid input (out-of-order or duplicate keys, empty
// postings) returns an error; the loader then falls back to a rebuild.
func newBTreeFromSorted(order int, keys []Value, postings [][]RID) (*BTree, error) {
	t := NewBTreeOrder(order)
	if len(keys) != len(postings) {
		return nil, fmt.Errorf("btree: bulk load arity mismatch")
	}
	if len(keys) == 0 {
		return t, nil
	}
	size := 0
	for i := range keys {
		if len(postings[i]) == 0 {
			return nil, fmt.Errorf("btree: bulk load empty posting for %v", keys[i])
		}
		if i > 0 && !lessKey(keys[i-1], keys[i]) {
			return nil, fmt.Errorf("btree: bulk load keys out of order at %v", keys[i])
		}
		size += len(postings[i])
	}
	// Leaves hold at most order-1 keys (the in-place insert splits at
	// order), so filling to order-1 is the densest legal packing.
	fill := t.order - 1
	var leaves []*leafNode
	var mins []Value // each leaf's first key: the separator material above
	for i := 0; i < len(keys); i += fill {
		j := i + fill
		if j > len(keys) {
			j = len(keys)
		}
		lf := &leafNode{
			keys:     keys[i:j:j],
			postings: postings[i:j:j],
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = lf
		}
		leaves = append(leaves, lf)
		mins = append(mins, keys[i])
	}
	level := make([]node, len(leaves))
	for i, lf := range leaves {
		level[i] = lf
	}
	for len(level) > 1 {
		var up []node
		var upMins []Value
		for i := 0; i < len(level); i += t.order {
			j := i + t.order
			if j > len(level) {
				j = len(level)
			}
			in := &innerNode{children: append([]node(nil), level[i:j]...)}
			for k := i + 1; k < j; k++ {
				in.keys = append(in.keys, mins[k])
			}
			up = append(up, in)
			upMins = append(upMins, mins[i])
		}
		level, mins = up, upMins
	}
	t.root = level[0]
	t.size = size
	return t, nil
}

// ReplaceContents swaps t's contents for other's under t's own latch.
// The bulk loader builds a replacement tree off to the side
// (newBTreeFromSorted over the load's sorted runs) and installs it here:
// readers hold t.mu through every traversal, so they see either the old
// tree or the new one, never a torn mix — and the Table.Indexes map entry
// itself never changes, which is what keeps lockless map readers (Snap
// paths) safe. The mutation counter advances so the next checkpoint
// re-serializes the chain.
func (t *BTree) ReplaceContents(other *BTree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root = other.root
	t.order = other.order
	t.size = other.size
	t.mut++
}

// Keys returns all distinct keys in order (testing helper).
func (t *BTree) Keys() []Value {
	var out []Value
	t.Range(nil, nil, func(k Value, _ RID) bool {
		if len(out) == 0 || !eqKey(out[len(out)-1], k) {
			out = append(out, k)
		}
		return true
	})
	return out
}

// CheckInvariants validates key ordering and structure; used by tests.
func (t *BTree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := checkNode(t.root, nil, nil)
	if err != nil {
		return err
	}
	// Leaf chain must be sorted overall.
	n := t.root
	for !n.isLeaf() {
		n = n.(*innerNode).children[0]
	}
	var prev *Value
	for leaf := n.(*leafNode); leaf != nil; leaf = leaf.next {
		for i := range leaf.keys {
			k := leaf.keys[i]
			if prev != nil && !lessKey(*prev, k) {
				return fmt.Errorf("btree: leaf chain out of order: %v !< %v", *prev, k)
			}
			kk := k
			prev = &kk
			if len(leaf.postings[i]) == 0 {
				return fmt.Errorf("btree: empty posting for key %v", k)
			}
		}
	}
	return nil
}

func checkNode(n node, lo, hi *Value) (int, error) {
	if n.isLeaf() {
		leaf := n.(*leafNode)
		for _, k := range leaf.keys {
			if lo != nil && lessKey(k, *lo) {
				return 0, fmt.Errorf("btree: key %v below bound %v", k, *lo)
			}
			if hi != nil && !lessKey(k, *hi) {
				return 0, fmt.Errorf("btree: key %v not below bound %v", k, *hi)
			}
		}
		return 1, nil
	}
	in := n.(*innerNode)
	if len(in.children) != len(in.keys)+1 {
		return 0, fmt.Errorf("btree: inner node fanout mismatch")
	}
	depth := -1
	for i, c := range in.children {
		var clo, chi *Value
		if i == 0 {
			clo = lo
		} else {
			clo = &in.keys[i-1]
		}
		if i == len(in.keys) {
			chi = hi
		} else {
			chi = &in.keys[i]
		}
		d, err := checkNode(c, clo, chi)
		if err != nil {
			return 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, fmt.Errorf("btree: uneven depth")
		}
	}
	return depth + 1, nil
}

func insertValueAt(s []Value, i int, v Value) []Value {
	s = append(s, Value{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPostingAt(s [][]RID, i int, v []RID) [][]RID {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []node, i int, v node) []node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
