package predicate

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/page"
)

func always(*Predicate) bool { return true }
func never(*Predicate) bool  { return false }

func TestNewAndAttach(t *testing.T) {
	m := NewManager()
	p := m.New(1, Search, []byte("range[1,5]"))
	if p.Owner != 1 || p.Kind != Search || string(p.Data) != "range[1,5]" {
		t.Errorf("predicate = %+v", p)
	}
	if ahead := m.Attach(p, 10, always); len(ahead) != 0 {
		t.Errorf("ahead on empty node = %v", ahead)
	}
	got := m.AttachedTo(10)
	if len(got) != 1 || got[0] != p {
		t.Errorf("AttachedTo = %v", got)
	}
	// Idempotent.
	m.Attach(p, 10, nil)
	if got := m.AttachedTo(10); len(got) != 1 {
		t.Errorf("double attach duplicated: %v", got)
	}
	if nodes := m.NodesOf(p); len(nodes) != 1 || nodes[0] != 10 {
		t.Errorf("NodesOf = %v", nodes)
	}
}

func TestAttachReportsConflictsAheadFIFO(t *testing.T) {
	m := NewManager()
	s1 := m.New(1, Search, []byte("s1"))
	ins := m.New(2, Insert, []byte("k"))
	s2 := m.New(3, Search, []byte("s2"))

	m.Attach(s1, 5, nil)
	aheadOfInsert := m.Attach(ins, 5, always)
	if len(aheadOfInsert) != 1 || aheadOfInsert[0] != s1 {
		t.Errorf("insert sees ahead = %v, want [s1]", aheadOfInsert)
	}
	// A later scan must see the insert predicate ahead of it (fairness:
	// it queues behind the blocked insert rather than starving it).
	aheadOfS2 := m.Attach(s2, 5, always)
	if len(aheadOfS2) != 2 {
		t.Errorf("s2 sees %d ahead, want 2", len(aheadOfS2))
	}
	// Own predicates are never conflicts.
	own := m.New(1, Insert, []byte("own"))
	ahead := m.Attach(own, 5, always)
	for _, p := range ahead {
		if p.Owner == 1 {
			t.Errorf("own predicate reported as conflict: %v", p)
		}
	}
}

func TestConflictingChecksOnlyNodeList(t *testing.T) {
	m := NewManager()
	for i := 0; i < 10; i++ {
		p := m.New(page.TxnID(100+i), Search, []byte{byte(i)})
		m.Attach(p, page.PageID(i%2), nil) // half on node 0, half on node 1
	}
	m.ResetStats()
	got := m.Conflicting(0, 999, always)
	if len(got) != 5 {
		t.Errorf("Conflicting on node 0 = %d, want 5", len(got))
	}
	examined := m.Metrics().Value("predicate.preds_examined")
	if examined != 5 {
		t.Errorf("examined %d predicates, want 5 (hybrid checks only the leaf list)", examined)
	}

	m.ResetStats()
	all := m.ConflictingGlobal(999, always)
	if len(all) != 10 {
		t.Errorf("global = %d, want 10", len(all))
	}
	examined = m.Metrics().Value("predicate.preds_examined")
	if examined != 10 {
		t.Errorf("global examined %d, want 10", examined)
	}
}

func TestConflictingSkipsSelfAndFiltered(t *testing.T) {
	m := NewManager()
	mine := m.New(7, Search, []byte("mine"))
	other := m.New(8, Search, []byte("other"))
	m.Attach(mine, 3, nil)
	m.Attach(other, 3, nil)
	if got := m.Conflicting(3, 7, always); len(got) != 1 || got[0] != other {
		t.Errorf("got %v", got)
	}
	if got := m.Conflicting(3, 7, never); len(got) != 0 {
		t.Errorf("filter ignored: %v", got)
	}
	if got := m.Conflicting(99, 7, always); got != nil {
		t.Errorf("empty node: %v", got)
	}
}

func TestReplicateOnSplit(t *testing.T) {
	m := NewManager()
	pa := m.New(1, Search, []byte("a"))
	pb := m.New(2, Search, []byte("b"))
	m.Attach(pa, 10, nil)
	m.Attach(pb, 10, nil)

	n := m.ReplicateOnSplit(10, 11, func(p *Predicate) bool { return bytes.Equal(p.Data, []byte("a")) })
	if n != 1 {
		t.Errorf("replicated %d, want 1", n)
	}
	got := m.AttachedTo(11)
	if len(got) != 1 || got[0] != pa {
		t.Errorf("sibling predicates = %v", got)
	}
	// Original attachments intact.
	if len(m.AttachedTo(10)) != 2 {
		t.Error("original attachments lost")
	}
	// Re-replication is idempotent.
	if n := m.ReplicateOnSplit(10, 11, always); n != 1 {
		t.Errorf("second replication added %d, want 1 (only pb)", n)
	}
}

func TestPercolate(t *testing.T) {
	m := NewManager()
	p := m.New(1, Search, []byte("wide"))
	m.Attach(p, 2, nil) // parent
	if n := m.Percolate(2, 5, always); n != 1 {
		t.Errorf("percolated %d, want 1", n)
	}
	if got := m.AttachedTo(5); len(got) != 1 || got[0] != p {
		t.Errorf("child predicates = %v", got)
	}
}

func TestReleaseSinglePredicate(t *testing.T) {
	m := NewManager()
	p := m.New(1, Insert, []byte("=k"))
	q := m.New(1, Search, []byte("s"))
	m.Attach(p, 1, nil)
	m.Attach(p, 2, nil)
	m.Attach(q, 1, nil)
	m.Release(p)
	if got := m.AttachedTo(1); len(got) != 1 || got[0] != q {
		t.Errorf("node 1 after release = %v", got)
	}
	if got := m.AttachedTo(2); len(got) != 0 {
		t.Errorf("node 2 after release = %v", got)
	}
	if preds := m.PredicatesOf(1); len(preds) != 1 || preds[0] != q {
		t.Errorf("txn predicates = %v", preds)
	}
	// Releasing again is harmless.
	m.Release(p)
	// Attaching a released predicate is a no-op.
	if ahead := m.Attach(p, 3, always); ahead != nil {
		t.Errorf("attach after release returned %v", ahead)
	}
	if got := m.AttachedTo(3); len(got) != 0 {
		t.Error("released predicate attached")
	}
}

func TestReleaseTxn(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		p := m.New(5, Search, []byte{byte(i)})
		m.Attach(p, page.PageID(i), nil)
		m.Attach(p, 100, nil)
	}
	other := m.New(6, Search, []byte("other"))
	m.Attach(other, 100, nil)

	m.ReleaseTxn(5)
	if got := m.PredicatesOf(5); len(got) != 0 {
		t.Errorf("txn 5 predicates remain: %v", got)
	}
	if got := m.AttachedTo(100); len(got) != 1 || got[0] != other {
		t.Errorf("node 100 = %v", got)
	}
	preds, attaches := m.Counts()
	if preds != 1 || attaches != 1 {
		t.Errorf("counts = %d preds %d attachments", preds, attaches)
	}
}

// TestReleaseTxnBulk releases a transaction holding 500 insert
// predicates on one node, interleaved with other transactions'
// predicates there and elsewhere: all 500 go, and every other predicate
// keeps its attachments in FIFO order.
func TestReleaseTxnBulk(t *testing.T) {
	m := NewManager()
	const bulk = page.TxnID(7)
	var others []*Predicate
	for i := 0; i < 500; i++ {
		p := m.New(bulk, Insert, []byte{byte(i), byte(i >> 8)})
		m.Attach(p, 42, nil)
		if i%100 == 0 {
			o := m.New(page.TxnID(100+i), Search, []byte("other"))
			m.Attach(o, 42, nil)
			m.Attach(o, 43, nil)
			others = append(others, o)
		}
	}
	m.ReleaseTxn(bulk)
	if got := m.PredicatesOf(bulk); len(got) != 0 {
		t.Errorf("%d predicates of the released transaction remain", len(got))
	}
	for _, node := range []page.PageID{42, 43} {
		got := m.AttachedTo(node)
		if len(got) != len(others) {
			t.Fatalf("node %d has %d attachments, want %d", node, len(got), len(others))
		}
		for i, o := range others {
			if got[i] != o {
				t.Errorf("node %d attachment %d = predicate %d, want %d", node, i, got[i].ID, o.ID)
			}
		}
	}
	if preds, attaches := m.Counts(); preds != len(others) || attaches != 2*len(others) {
		t.Errorf("counts = %d preds %d attachments, want %d and %d", preds, attaches, len(others), 2*len(others))
	}
}

func TestDetachAndDropNode(t *testing.T) {
	m := NewManager()
	p := m.New(1, Search, []byte("p"))
	m.Attach(p, 1, nil)
	m.Attach(p, 2, nil)
	m.Detach(p, 1)
	if len(m.AttachedTo(1)) != 0 || len(m.AttachedTo(2)) != 1 {
		t.Error("detach wrong")
	}
	m.Detach(p, 1) // idempotent

	q := m.New(2, Search, []byte("q"))
	m.Attach(q, 2, nil)
	m.DropNode(2)
	if len(m.AttachedTo(2)) != 0 {
		t.Error("DropNode left attachments")
	}
	// Predicates survive for their owners.
	if len(m.PredicatesOf(1)) != 1 || len(m.PredicatesOf(2)) != 1 {
		t.Error("DropNode destroyed predicates")
	}
}

func TestConcurrentAttachRelease(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := page.TxnID(g + 1)
			for i := 0; i < 100; i++ {
				p := m.New(txn, Search, []byte{byte(i)})
				for n := 0; n < 4; n++ {
					m.Attach(p, page.PageID(n), always)
				}
				m.Conflicting(page.PageID(i%4), txn, always)
				if i%3 == 0 {
					m.Release(p)
				}
			}
			m.ReleaseTxn(txn)
		}(g)
	}
	wg.Wait()
	preds, attaches := m.Counts()
	if preds != 0 || attaches != 0 {
		t.Errorf("leftover state: %d preds, %d attachments", preds, attaches)
	}
}

func TestKindString(t *testing.T) {
	if Search.String() != "search" || Insert.String() != "insert" {
		t.Error("kind strings")
	}
}
