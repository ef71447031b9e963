package rdbms

import (
	"slices"
	"sync"
)

// freeSpace is a heap's page chain together with its free-space map: for
// each chain position, an upper bound on the longest record an insert
// could place on that page with no reservations held (insertBound). A
// bound never understates what insert would accept, so an insert skips a
// page only when insertInto would refuse it there, and first-fit over
// the bounds picks the page the walk of every page would pick.
//
// mu is a leaf lock: it is taken under h.mu and under page latches, and
// its holder never pins a page or takes another lock.
//
// Bounds are kept per position as one uint16 each, plus a max-tree over
// groups of fsGroup positions (tree[leaves+g] is group g's largest bound,
// tree[i] the larger of its two children, padding groups 0): firstFit
// finds the first qualifying group in O(log n) and scans it, and the
// whole map costs under 3 bytes per page beside the chain itself.
type freeSpace struct {
	mu     sync.Mutex
	pages  []PageID // chain order
	bound  []uint16 // bound[i] is pages[i]'s bound
	tree   []uint16
	sorted bool // pages ascend, so a page's position is a binary search
}

const (
	fsGroup = 16
	// fsUnknown is the bound of a page nothing has measured since it
	// last changed: no record is longer.
	fsUnknown = PageSize
)

// insertBound is the longest record insert could place on p if no slot
// were reserved: insert needs a tombstone slot or room for a new slot
// entry, beside the record, in what compaction would leave free.
func (p *slottedPage) insertBound() int {
	live, tomb := 0, false
	n := p.numSlots()
	for i := uint16(0); i < n; i++ {
		if _, l := p.slot(i); l == tombstoneLen {
			tomb = true
		} else {
			live += int(l)
		}
	}
	b := PageSize - pageHeaderSize - int(n)*slotSize - live
	if !tomb {
		b -= slotSize
	}
	return max(b, 0)
}

// add appends id to the chain with bound b.
func (f *freeSpace) add(id PageID, b int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sorted = len(f.pages) == 0 || f.sorted && id > f.pages[len(f.pages)-1]
	f.pages = append(f.pages, id)
	f.bound = append(f.bound, uint16(b))
	groups := (len(f.pages) + fsGroup - 1) / fsGroup
	if leaves := len(f.tree) / 2; groups > leaves {
		f.tree = make([]uint16, 2*max(2*leaves, 1))
		for g := range groups {
			f.tree[len(f.tree)/2+g] = f.groupMax(g)
		}
		for i := len(f.tree)/2 - 1; i > 0; i-- {
			f.tree[i] = max(f.tree[2*i], f.tree[2*i+1])
		}
		return
	}
	f.fix(len(f.pages) - 1)
}

// groupMax is the largest bound in group g.
func (f *freeSpace) groupMax(g int) uint16 {
	return slices.Max(f.bound[g*fsGroup : min((g+1)*fsGroup, len(f.bound))])
}

// fix refreshes the tree above position pos.
func (f *freeSpace) fix(pos int) {
	g := pos / fsGroup
	i := len(f.tree)/2 + g
	f.tree[i] = f.groupMax(g)
	for i /= 2; i > 0; i /= 2 {
		f.tree[i] = max(f.tree[2*i], f.tree[2*i+1])
	}
}

// position is id's chain position; the caller holds mu.
func (f *freeSpace) position(id PageID) (int, bool) {
	if f.sorted {
		return slices.BinarySearch(f.pages, id)
	}
	i := slices.Index(f.pages, id)
	return i, i >= 0
}

// set records page id's bound, if id is in the chain.
func (f *freeSpace) set(id PageID, b int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pos, ok := f.position(id); ok && f.bound[pos] != uint16(b) {
		f.bound[pos] = uint16(b)
		f.fix(pos)
	}
}

// forget resets page id's bound to unknown: a mutation other than an
// insert may have freed room on it.
func (f *freeSpace) forget(id PageID) { f.set(id, fsUnknown) }

// contains reports whether id is in the chain.
func (f *freeSpace) contains(id PageID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.position(id)
	return ok
}

// length is the number of pages in the chain.
func (f *freeSpace) length() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages)
}

// tail is the last page of the chain.
func (f *freeSpace) tail() PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pages[len(f.pages)-1]
}

// chain returns a copy of the page order.
func (f *freeSpace) chain() []PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.pages)
}

// firstFit returns the first chain position in [lo, hi) whose bound is at
// least need, and its page; ok is false when there is none.
func (f *freeSpace) firstFit(lo, hi, need int) (pos int, id PageID, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	lo, hi = max(lo, 0), min(hi, len(f.pages))
	leaves := len(f.tree) / 2
	for lo < hi {
		g := lo / fsGroup
		if int(f.tree[leaves+g]) >= need {
			for p := lo; p < min((g+1)*fsGroup, hi); p++ {
				if int(f.bound[p]) >= need {
					return p, f.pages[p], true
				}
			}
		}
		if g = f.nextGroup(g+1, need); g < 0 {
			break
		}
		lo = g * fsGroup
	}
	return 0, 0, false
}

// nextGroup returns the first group at or after g whose largest bound is
// at least need, or -1: from g's leaf, while the node falls short, climb
// out of right children and step to the next subtree on the right; then
// descend to the leftmost qualifying leaf.
func (f *freeSpace) nextGroup(g, need int) int {
	leaves := len(f.tree) / 2
	if g >= leaves {
		return -1
	}
	i := leaves + g
	for int(f.tree[i]) < need {
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++
	}
	for i < leaves {
		i *= 2
		if int(f.tree[i]) < need {
			i++
		}
	}
	return i - leaves
}
