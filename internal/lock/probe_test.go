package lock

import (
	"testing"
	"time"

	"repro/internal/page"
)

// tableSnapshot counts the lock lists and per-transaction held entries of
// every stripe, so a test can assert that a call left both untouched.
func tableSnapshot(m *Manager) (lists, held int) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		lists += len(st.table)
		st.mu.Unlock()
	}
	for i := range m.heldStripes {
		hs := &m.heldStripes[i]
		hs.mu.Lock()
		for _, hm := range hs.held {
			held += len(hm)
		}
		hs.mu.Unlock()
	}
	return lists, held
}

func TestProbeFreeNameLeavesTableEmpty(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 3, Slot: 1})
	if !m.Probe(1, n, S) || !m.Probe(1, n, X) {
		t.Fatal("Probe on a free name failed")
	}
	if lists, held := tableSnapshot(m); lists != 0 || held != 0 {
		t.Fatalf("Probe left %d lock lists and %d held entries", lists, held)
	}
	if got := m.Metrics().Value("lock.probes"); got != 2 {
		t.Errorf("lock.probes = %d, want 2", got)
	}
	if acq := m.Metrics().Value("lock.acquisitions"); acq != 0 {
		t.Errorf("Probe counted %d acquisitions", acq)
	}
}

func TestProbeKeepsOwnHold(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 3, Slot: 2})
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	lists, held := tableSnapshot(m)
	if !m.Probe(1, n, S) {
		t.Fatal("Probe S failed for the X holder itself")
	}
	if mode, ok := m.Holding(1, n); !ok || mode != X {
		t.Fatalf("after Probe the holder has %v %v, want X held", mode, ok)
	}
	if l, h := tableSnapshot(m); l != lists || h != held {
		t.Fatalf("Probe changed the table: %d/%d lists, %d/%d held", l, lists, h, held)
	}
	// The hold still excludes everyone else.
	if m.Probe(2, n, S) {
		t.Fatal("Probe S by another txn succeeded over an X holder")
	}
}

func TestProbeConflicts(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 9})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	if !m.Probe(2, n, S) {
		t.Fatal("Probe S alongside an S holder failed")
	}
	if m.Probe(2, n, X) {
		t.Fatal("Probe X succeeded over another txn's S")
	}
	if !m.Probe(1, n, X) {
		t.Fatal("Probe X (upgrade) failed for the sole S holder")
	}
	if mode, _ := m.Holding(1, n); mode != S {
		t.Fatalf("Probe X upgraded the hold to %v", mode)
	}
	if err := m.Lock(2, n, S); err != nil {
		t.Fatal(err)
	}
	if m.Probe(1, n, X) {
		t.Fatal("Probe X (upgrade) succeeded with a second S holder")
	}
}

// TestProbeRespectsQueue checks the FIFO rule TryLock follows: a fresh
// request fails behind a queued waiter even when it is compatible with
// every granted holder.
func TestProbeRespectsQueue(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 3, Slot: 3})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Lock(2, n, X) }()
	deadline := time.Now().Add(5 * time.Second)
	for m.Metrics().Value("lock.queue_waiters") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("X request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	lists, held := tableSnapshot(m)
	if m.Probe(3, n, S) {
		t.Fatal("Probe S jumped a queued X waiter")
	}
	if m.TryLock(3, n, S) {
		t.Fatal("TryLock S jumped a queued X waiter")
	}
	if !m.Probe(1, n, S) {
		t.Fatal("Probe S failed for an existing S holder")
	}
	if l, h := tableSnapshot(m); l != lists || h != held {
		t.Fatalf("Probe changed the table: %d/%d lists, %d/%d held", l, lists, h, held)
	}
	m.Unlock(1, n)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, n)
}

func TestProbeAllocatesNothing(t *testing.T) {
	m := NewManager()
	free := ForRID(page.RID{Page: 4, Slot: 1})
	held := ForRID(page.RID{Page: 4, Slot: 2})
	if err := m.Lock(1, held, S); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Probe(2, free, S)
		m.Probe(1, held, S)
		m.Probe(2, held, X)
	})
	if allocs != 0 {
		t.Fatalf("Probe allocates %.1f times per run, want 0", allocs)
	}
}
