package rdbms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDeadlock is returned to a transaction chosen as a deadlock victim; the
// caller should abort and may retry.
var ErrDeadlock = errors.New("rdbms: deadlock detected")

// LockMode is a multi-granularity lock mode. Intent modes (IS, IX) are
// taken on tables before locking individual rows.
type LockMode uint8

const (
	LockIS LockMode = iota + 1 // intent shared
	LockIX                     // intent exclusive
	LockShared
	LockExclusive
)

func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockShared:
		return "S"
	case LockExclusive:
		return "X"
	}
	return fmt.Sprintf("LockMode(%d)", uint8(m))
}

// compatible reports whether two modes may be held simultaneously by
// different transactions (standard multi-granularity matrix, without SIX).
func compatible(a, b LockMode) bool {
	switch a {
	case LockIS:
		return b != LockExclusive
	case LockIX:
		return b == LockIS || b == LockIX
	case LockShared:
		return b == LockIS || b == LockShared
	case LockExclusive:
		return false
	}
	return false
}

// covers reports whether holding `held` already satisfies a request for
// `want` by the same transaction.
func covers(held, want LockMode) bool {
	if held == want {
		return true
	}
	switch held {
	case LockExclusive:
		return true
	case LockShared:
		return want == LockIS
	case LockIX:
		return want == LockIS
	}
	return false
}

// upgraded returns the mode that subsumes both held and want. S+IX becomes
// X (we approximate SIX with X for simplicity).
func upgraded(held, want LockMode) LockMode {
	if covers(held, want) {
		return held
	}
	if covers(want, held) {
		return want
	}
	return LockExclusive
}

// LockKey names a lockable resource: a whole table or a single row.
type LockKey struct {
	Table string
	Row   RID
}

// TableLock returns the key locking an entire table.
func TableLock(table string) LockKey {
	return LockKey{Table: table, Row: RID{Page: InvalidPage, Slot: 0xFFFF}}
}

// RowLock returns the key locking one row.
func RowLock(table string, rid RID) LockKey {
	return LockKey{Table: table, Row: rid}
}

// LockManager implements strict two-phase locking with multi-granularity
// modes and wait-for-graph deadlock detection: when a request must wait,
// the manager adds wait-for edges and aborts the requester if that would
// close a cycle.
type LockManager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	locks   map[LockKey]*lockState
	waitFor map[TxnID]map[TxnID]bool // waiter -> holders it waits on
	// grown marks that locks has held more than lockMapRemakeAt entries:
	// a Go map never returns its buckets, so ReleaseAll re-makes it once it
	// empties, instead of keeping a bulk transaction's peak forever.
	grown bool

	deadlocks    int64
	acquisitions atomic.Int64
}

type lockState struct {
	holders map[TxnID]LockMode
	waiting int
}

// lockMapRemakeAt is the lock-table population past which an emptied
// table is re-made rather than kept at its peak size.
const lockMapRemakeAt = 1024

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	lm := &LockManager{
		locks:   make(map[LockKey]*lockState),
		waitFor: make(map[TxnID]map[TxnID]bool),
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// Acquire blocks until txn holds key in (at least) mode, or returns
// ErrDeadlock if waiting would close a wait-for cycle. Upgrades are
// granted when compatible with all other holders.
func (lm *LockManager) Acquire(txn TxnID, key LockKey, mode LockMode) error {
	lm.acquisitions.Add(1)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for {
		ls := lm.locks[key]
		if ls == nil {
			lm.locks[key] = &lockState{holders: map[TxnID]LockMode{txn: mode}}
			if len(lm.locks) > lockMapRemakeAt {
				lm.grown = true
			}
			return nil
		}
		held, holding := ls.holders[txn]
		if holding && covers(held, mode) {
			return nil
		}
		want := mode
		if holding {
			want = upgraded(held, mode)
		}
		ok := true
		for other, om := range ls.holders {
			if other == txn {
				continue
			}
			if !compatible(om, want) {
				ok = false
				break
			}
		}
		// Grant whenever the request is compatible with every current
		// holder. (No waiter queue-fairness: a steady stream of readers
		// could in principle starve a writer, which is acceptable at this
		// engine's scale and keeps wakeup semantics obviously live.)
		if ok {
			ls.holders[txn] = want
			return nil
		}
		// Must wait on conflicting holders.
		var blockers []TxnID
		for other, om := range ls.holders {
			if other != txn && !compatible(om, want) {
				blockers = append(blockers, other)
			}
		}
		if lm.wouldDeadlockLocked(txn, blockers) {
			lm.deadlocks++
			return ErrDeadlock
		}
		if lm.waitFor[txn] == nil {
			lm.waitFor[txn] = make(map[TxnID]bool)
		}
		for _, h := range blockers {
			lm.waitFor[txn][h] = true
		}
		ls.waiting++
		lm.cond.Wait()
		ls.waiting--
		delete(lm.waitFor, txn)
	}
}

// wouldDeadlockLocked checks whether adding edges txn->blockers closes a
// cycle back to txn in the wait-for graph.
func (lm *LockManager) wouldDeadlockLocked(txn TxnID, blockers []TxnID) bool {
	seen := map[TxnID]bool{}
	stack := append([]TxnID(nil), blockers...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range lm.waitFor[cur] {
			stack = append(stack, next)
		}
	}
	return false
}

// ReleaseAll frees every lock held by txn and wakes waiters.
func (lm *LockManager) ReleaseAll(txn TxnID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for key, ls := range lm.locks {
		if _, ok := ls.holders[txn]; ok {
			delete(ls.holders, txn)
			if len(ls.holders) == 0 && ls.waiting == 0 {
				delete(lm.locks, key)
			}
		}
	}
	if lm.grown && len(lm.locks) == 0 {
		lm.locks = make(map[LockKey]*lockState)
		lm.grown = false
	}
	delete(lm.waitFor, txn)
	lm.cond.Broadcast()
}

// Held reports whether txn currently holds key in a mode covering mode.
func (lm *LockManager) Held(txn TxnID, key LockKey, mode LockMode) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ls := lm.locks[key]
	if ls == nil {
		return false
	}
	held, ok := ls.holders[txn]
	return ok && covers(held, mode)
}

// Deadlocks returns the number of deadlock victims chosen so far.
func (lm *LockManager) Deadlocks() int64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.deadlocks
}

// Acquisitions returns the total number of Acquire calls ever made.
// The MVCC race suite snapshots it around reader-only workloads to
// prove snapshot reads take zero locks.
func (lm *LockManager) Acquisitions() int64 {
	return lm.acquisitions.Load()
}
