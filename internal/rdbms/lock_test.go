package rdbms

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLockModeCompatibility(t *testing.T) {
	// Standard multi-granularity matrix (no SIX).
	cases := []struct {
		a, b LockMode
		want bool
	}{
		{LockIS, LockIS, true}, {LockIS, LockIX, true}, {LockIS, LockShared, true}, {LockIS, LockExclusive, false},
		{LockIX, LockIS, true}, {LockIX, LockIX, true}, {LockIX, LockShared, false}, {LockIX, LockExclusive, false},
		{LockShared, LockIS, true}, {LockShared, LockIX, false}, {LockShared, LockShared, true}, {LockShared, LockExclusive, false},
		{LockExclusive, LockIS, false}, {LockExclusive, LockIX, false}, {LockExclusive, LockShared, false}, {LockExclusive, LockExclusive, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLockCovers(t *testing.T) {
	if !covers(LockExclusive, LockShared) || !covers(LockExclusive, LockIX) {
		t.Fatal("X covers everything")
	}
	if !covers(LockShared, LockIS) {
		t.Fatal("S covers IS")
	}
	if covers(LockShared, LockIX) {
		t.Fatal("S does not cover IX")
	}
	if covers(LockIS, LockShared) {
		t.Fatal("IS does not cover S")
	}
	if upgraded(LockShared, LockIX) != LockExclusive {
		t.Fatal("S+IX should escalate to X")
	}
}

func TestLockSharedConcurrent(t *testing.T) {
	lm := NewLockManager()
	key := TableLock("t")
	if err := lm.Acquire(1, key, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, key, LockShared); err != nil {
		t.Fatal(err)
	}
	if !lm.Held(1, key, LockShared) || !lm.Held(2, key, LockShared) {
		t.Fatal("both should hold S")
	}
}

func TestLockExclusiveBlocks(t *testing.T) {
	lm := NewLockManager()
	key := RowLock("t", RID{Page: 1, Slot: 1})
	if err := lm.Acquire(1, key, LockExclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- lm.Acquire(2, key, LockExclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("second X should block")
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	if !lm.Held(2, key, LockExclusive) {
		t.Fatal("txn 2 should hold the lock now")
	}
}

func TestLockUpgrade(t *testing.T) {
	lm := NewLockManager()
	key := RowLock("t", RID{Page: 1, Slot: 1})
	if err := lm.Acquire(1, key, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, key, LockExclusive); err != nil {
		t.Fatal(err)
	}
	if !lm.Held(1, key, LockExclusive) {
		t.Fatal("upgrade failed")
	}
}

func TestLockReentrant(t *testing.T) {
	lm := NewLockManager()
	key := TableLock("t")
	for i := 0; i < 3; i++ {
		if err := lm.Acquire(1, key, LockIX); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	a := RowLock("t", RID{Page: 1, Slot: 1})
	b := RowLock("t", RID{Page: 1, Slot: 2})
	if err := lm.Acquire(1, a, LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, b, LockExclusive); err != nil {
		t.Fatal(err)
	}
	// Txn 1 waits for b (held by 2).
	errCh := make(chan error, 1)
	go func() { errCh <- lm.Acquire(1, b, LockExclusive) }()
	time.Sleep(20 * time.Millisecond)
	// Txn 2 requesting a would close the cycle: must get ErrDeadlock.
	err := lm.Acquire(2, a, LockExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	if lm.Deadlocks() != 1 {
		t.Fatalf("deadlock count = %d", lm.Deadlocks())
	}
	// Victim aborts; txn 1 proceeds.
	lm.ReleaseAll(2)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("txn 1 never acquired after victim released")
	}
	lm.ReleaseAll(1)
}

func TestIntentModesAllowDisjointRows(t *testing.T) {
	lm := NewLockManager()
	tbl := TableLock("t")
	// Two writers on different rows coexist via IX.
	if err := lm.Acquire(1, tbl, LockIX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, tbl, LockIX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, RowLock("t", RID{Page: 1, Slot: 1}), LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, RowLock("t", RID{Page: 1, Slot: 2}), LockExclusive); err != nil {
		t.Fatal(err)
	}
	// A table scanner (S) must block while writers hold IX.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(3, tbl, LockShared) }()
	select {
	case <-done:
		t.Fatal("S table lock should block against IX holders")
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllWakesAllWaiters(t *testing.T) {
	lm := NewLockManager()
	key := TableLock("t")
	if err := lm.Acquire(1, key, LockExclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for i := TxnID(2); i <= 6; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			errs <- lm.Acquire(id, key, LockShared)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
