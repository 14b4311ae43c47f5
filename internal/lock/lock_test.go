package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/shards"
)

func TestGrantAndReentrancy(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 1, Slot: 1})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal("re-entrant S failed:", err)
	}
	if err := m.Lock(2, n, S); err != nil {
		t.Fatal("concurrent S failed:", err)
	}
	if mode, ok := m.Holding(1, n); !ok || mode != S {
		t.Errorf("Holding = %v %v", mode, ok)
	}
	if got := len(m.Holders(n)); got != 2 {
		t.Errorf("holders = %d", got)
	}
}

func TestXExcludesS(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 5})
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	// X covers a later S request by the same txn.
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Lock(2, n, S) }()
	select {
	case err := <-granted:
		t.Fatalf("S granted while X held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(1, n)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
}

func TestFIFONoStarvation(t *testing.T) {
	// S held; X waits; a later S must queue behind the X, not jump it.
	m := NewManager()
	n := ForRID(page.RID{Page: 2, Slot: 2})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	var order []page.TxnID
	var mu sync.Mutex
	record := func(id page.TxnID) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := m.Lock(2, n, X); err != nil {
			t.Error(err)
			return
		}
		record(2)
		time.Sleep(10 * time.Millisecond)
		m.Unlock(2, n)
	}()
	time.Sleep(20 * time.Millisecond) // let txn 2 enqueue first
	go func() {
		defer wg.Done()
		if err := m.Lock(3, n, S); err != nil {
			t.Error(err)
			return
		}
		record(3)
		m.Unlock(3, n)
	}()
	time.Sleep(20 * time.Millisecond)
	m.Unlock(1, n)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("grant order = %v, want [2 3]", order)
	}
}

func TestUpgrade(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 3, Slot: 0})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades instantly.
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holding(1, n); mode != X {
		t.Errorf("mode after upgrade = %v", mode)
	}
	m.Unlock(1, n)

	// Upgrade must wait for other S holders to leave.
	m.Lock(1, n, S)
	m.Lock(2, n, S)
	done := make(chan error, 1)
	go func() { done <- m.Lock(1, n, X) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade granted with another S holder: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(2, n)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a, b := ForRID(page.RID{Page: 1, Slot: 0}), ForRID(page.RID{Page: 2, Slot: 0})
	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(1, b, X) }() // txn 1 waits on txn 2
	time.Sleep(30 * time.Millisecond)
	// txn 2 requesting a closes the cycle and must be refused.
	err := m.Lock(2, a, X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Victim releases; txn 1 proceeds.
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if dl := m.Metrics().Value("lock.deadlocks"); dl != 1 {
		t.Errorf("deadlocks = %d, want 1", dl)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two S holders both upgrading is the classic unresolvable case: the
	// second upgrader must get ErrDeadlock.
	m := NewManager()
	n := ForRID(page.RID{Page: 9, Slot: 9})
	m.Lock(1, n, S)
	m.Lock(2, n, S)
	first := make(chan error, 1)
	go func() { first <- m.Lock(1, n, X) }()
	time.Sleep(30 * time.Millisecond)
	if err := m.Lock(2, n, X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrade: %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

func TestTryLock(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 7})
	if !m.TryLock(1, n, S) {
		t.Fatal("TryLock S on free name failed")
	}
	if m.TryLock(2, n, X) {
		t.Fatal("TryLock X succeeded over S holder")
	}
	if !m.TryLock(2, n, S) {
		t.Fatal("TryLock S alongside S failed")
	}
	// Upgrade attempt via TryLock fails with other holder present.
	if m.TryLock(1, n, X) {
		t.Fatal("TryLock upgrade succeeded with two holders")
	}
	m.Unlock(2, n)
	if !m.TryLock(1, n, X) {
		t.Fatal("TryLock upgrade failed as sole holder")
	}
}

func TestReleaseAll(t *testing.T) {
	m := NewManager()
	names := []Name{ForRID(page.RID{Page: 1}), ForTxn(2), ForRID(page.RID{Page: 1, Slot: 1})}
	for _, n := range names {
		if err := m.Lock(5, n, X); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(5)
	for _, n := range names {
		if _, held := m.Holding(5, n); held {
			t.Errorf("still holding %v after ReleaseAll", n)
		}
	}
	// Idempotent.
	m.ReleaseAll(5)
}

func TestBlockOnTransactionLock(t *testing.T) {
	// The predicate-blocking idiom of §10.3: owner holds X on its own
	// ID; a blocker requests S and is released when the owner finishes.
	m := NewManager()
	owner := page.TxnID(42)
	if err := m.Lock(owner, ForTxn(owner), X); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() {
		err := m.Lock(77, ForTxn(owner), S)
		if err == nil {
			m.Unlock(77, ForTxn(owner))
		}
		unblocked <- err
	}()
	select {
	case <-unblocked:
		t.Fatal("blocker ran before owner finished")
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(owner) // commit
	if err := <-unblocked; err != nil {
		t.Fatal(err)
	}
}

func TestAbortWaiter(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 3})
	m.Lock(1, n, X)
	errc := make(chan error, 1)
	go func() { errc <- m.Lock(2, n, X) }()
	time.Sleep(20 * time.Millisecond)
	kill := errors.New("killed")
	m.AbortWaiter(2, kill)
	if err := <-errc; !errors.Is(err, kill) {
		t.Fatalf("err = %v, want killed", err)
	}
	// Lock still held by 1 and releasable.
	m.Unlock(1, n)
	if !m.TryLock(3, n, X) {
		t.Fatal("lock not free after abort")
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many transactions locking random names in a fixed global order
	// (so no deadlock is possible); everything must be granted and the
	// protected counters must be exact.
	m := NewManager()
	const txns, names, iters = 8, 4, 200
	counters := make([]int, names)
	var wg sync.WaitGroup
	for ti := 0; ti < txns; ti++ {
		wg.Add(1)
		go func(id page.TxnID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := ForRID(page.RID{Page: page.PageID(i % names)})
				if err := m.Lock(id, n, X); err != nil {
					t.Error(err)
					return
				}
				counters[i%names]++
				m.Unlock(id, n)
			}
		}(page.TxnID(ti + 1))
	}
	wg.Wait()
	for i, c := range counters {
		if c != txns*iters/names {
			t.Errorf("counter %d = %d, want %d", i, c, txns*iters/names)
		}
	}
}

func TestNameStrings(t *testing.T) {
	if s := ForRID(page.RID{Page: 1, Slot: 2}).String(); s != "rec:1.2" {
		t.Errorf("rid name = %q", s)
	}
	if s := ForTxn(4).String(); s != "txn:4" {
		t.Errorf("txn name = %q", s)
	}
	if S.String() != "S" || X.String() != "X" {
		t.Error("mode strings")
	}
}

// TestDetectGraceSkipsBrieflyHeldConflicts verifies the deadlock-detection
// back-off: a conflict released within the grace window is granted without
// ever paying a waits-for-graph pass, and the skip is counted.
func TestDetectGraceSkipsBrieflyHeldConflicts(t *testing.T) {
	old := detectGrace
	detectGrace = time.Second // wide window: scheduling noise cannot expire it
	defer func() { detectGrace = old }()
	m := NewManager()
	n := ForRID(page.RID{Page: 1, Slot: 1})
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, n, X) }()
	// Wait until txn 2 is enqueued, then release well inside the grace
	// window so it is granted before the detector would run.
	for m.Metrics().Snapshot()["lock.waits"] == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m.Unlock(1, n)
	if err := <-done; err != nil {
		t.Fatalf("briefly-blocked lock failed: %v", err)
	}
	snap := m.Metrics().Snapshot()
	if got := snap["lock.detect_skips"]; got != 1 {
		t.Errorf("lock.detect_skips = %d, want 1", got)
	}
	if got := snap["lock.waits"]; got != 1 {
		t.Errorf("lock.waits = %d, want 1", got)
	}
}

// TestStripesGaugeMatchesAdaptiveCount verifies the stripe count is the
// GOMAXPROCS-derived value from package shards, not a hard-coded constant.
func TestStripesGaugeMatchesAdaptiveCount(t *testing.T) {
	m := NewManager()
	want := int64(shards.Count(0))
	if got := m.Metrics().Snapshot()["lock.stripes"]; got != want {
		t.Errorf("lock.stripes gauge = %d, want %d", got, want)
	}
}
