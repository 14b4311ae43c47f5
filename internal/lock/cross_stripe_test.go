package lock

import (
	"errors"
	"testing"
	"time"

	"repro/internal/page"
)

// findNameInOtherStripe returns a record-lock name that hashes to a
// different stripe than base (the striped table must still detect cycles
// whose edges span stripes).
func findNameInOtherStripe(t *testing.T, m *Manager, base Name) Name {
	t.Helper()
	for k := base.Key + 1; k < base.Key+100000; k++ {
		n := Name{Space: base.Space, Key: k}
		if m.stripeOf(n) != m.stripeOf(base) {
			return n
		}
	}
	t.Fatal("no name found in a different stripe")
	return Name{}
}

// TestDeadlockAcrossStripes builds a two-transaction cycle whose two lock
// names live in different stripes. The stripe-by-stripe snapshot of the
// detector must still assemble the full waits-for graph and pick a victim.
func TestDeadlockAcrossStripes(t *testing.T) {
	m := NewManager()
	a := Name{Space: SpaceRecord, Key: 1}
	b := findNameInOtherStripe(t, m, a)

	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, X); err != nil {
		t.Fatal(err)
	}

	type res struct {
		txn page.TxnID
		err error
	}
	ch := make(chan res, 2)
	go func() { ch <- res{1, m.Lock(1, b, X)} }()
	go func() { ch <- res{2, m.Lock(2, a, X)} }()

	timeout := time.After(10 * time.Second)

	// The first request to finish must be a deadlock victim: the survivor
	// can only proceed once the victim's locks are released below.
	select {
	case r := <-ch:
		if !errors.Is(r.err, ErrDeadlock) {
			t.Fatalf("first completion: txn %d got %v, want ErrDeadlock", r.txn, r.err)
		}
		m.ReleaseAll(r.txn)
	case <-timeout:
		t.Fatal("cross-stripe deadlock never detected")
	}

	// The second either was also picked as a victim (both detections can
	// race to the same stable cycle) or is granted after the release.
	select {
	case r := <-ch:
		if r.err != nil && !errors.Is(r.err, ErrDeadlock) {
			t.Fatalf("second completion: txn %d got %v", r.txn, r.err)
		}
		m.ReleaseAll(r.txn)
	case <-timeout:
		t.Fatal("surviving request never completed")
	}

	if dl := m.Metrics().Value("lock.deadlocks"); dl < 1 {
		t.Errorf("deadlocks counter = %d, want >= 1", dl)
	}

	// The table must be fully drained: both names grantable again.
	if err := m.Lock(3, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(3, b, X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}
