package check_test

import (
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

type env struct {
	pool *buffer.Pool
	tm   *txn.Manager
	tree *gist.Tree
	heap *heap.File
	log  *wal.Log
}

func build(t *testing.T, n int) *env {
	t.Helper()
	d := storage.NewMemDisk()
	l := wal.NewMemLog()
	pool := buffer.New(d, 256, l)
	tm := txn.NewManager(l, lock.NewManager(), predicate.NewManager())
	h := heap.New(pool)
	h.RegisterUndo(tm)
	tree, err := gist.Create(pool, tm, gist.Config{Ops: btree.Ops{}, MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pool: pool, tm: tm, tree: tree, heap: h, log: l}
	for i := 0; i < n; i++ {
		tx, err := tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rid, err := h.Insert(tx, []byte("r"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(tx, btree.EncodeKey(int64(i)), rid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func (e *env) checker() *check.Checker {
	return &check.Checker{Pool: e.pool, Ops: btree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
}

// corrupt applies fn to the page under an X latch and marks it dirty.
func (e *env) corrupt(t *testing.T, pg page.PageID, fn func(p *page.Page)) {
	t.Helper()
	f, err := e.pool.Fetch(pg)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.Acquire(latch.X)
	fn(&f.Page)
	f.Latch.Release(latch.X)
	e.pool.Unpin(f, true, e.log.LastLSN())
}

func TestHealthyTreeReport(t *testing.T) {
	e := build(t, 120)
	rep, err := e.checker().Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 120 || rep.Marked != 0 || rep.Orphans != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Height < 3 || rep.Leaves < 10 {
		t.Errorf("unexpectedly shallow: %+v", rep)
	}
	if len(rep.LeafIDs) != rep.Leaves {
		t.Errorf("LeafIDs %d vs Leaves %d", len(rep.LeafIDs), rep.Leaves)
	}
	if len(rep.Live) != rep.Entries {
		t.Errorf("Live map %d vs Entries %d", len(rep.Live), rep.Entries)
	}
}

func TestDetectsBPViolation(t *testing.T) {
	e := build(t, 120)
	rep, err := e.checker().Check()
	if err != nil {
		t.Fatal(err)
	}
	// Narrow the root's first entry so its subtree escapes.
	e.corrupt(t, rep.Root, func(p *page.Page) {
		en := p.MustEntry(0)
		p.ReplaceEntry(0, page.Entry{Pred: btree.EncodeRange(-5, -1), Child: en.Child})
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "escapes parent BP") {
		t.Errorf("err = %v, want BP violation", err)
	}
}

func TestDetectsDuplicateRID(t *testing.T) {
	e := build(t, 50)
	rep, err := e.checker().Check()
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a live entry's RID on another leaf... simplest: insert a
	// second live entry with an existing RID on the same leaf.
	leaf := rep.LeafIDs[0]
	e.corrupt(t, leaf, func(p *page.Page) {
		en := p.MustEntry(0)
		p.InsertEntry(page.Entry{Pred: en.Pred, RID: en.RID})
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "two leaf entries") {
		t.Errorf("err = %v, want duplicate RID", err)
	}
}

func TestDetectsNSNAboveCounter(t *testing.T) {
	e := build(t, 50)
	rep, _ := e.checker().Check()
	e.corrupt(t, rep.LeafIDs[0], func(p *page.Page) {
		p.SetNSN(1 << 40)
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "exceeds counter") {
		t.Errorf("err = %v, want NSN violation", err)
	}
}

func TestDetectsReachableDeallocated(t *testing.T) {
	e := build(t, 50)
	rep, _ := e.checker().Check()
	e.corrupt(t, rep.LeafIDs[1], func(p *page.Page) {
		p.SetFlags(p.Flags() | page.FlagDeallocated)
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "deallocated") {
		t.Errorf("err = %v, want deallocated violation", err)
	}
}

func TestDetectsLevelSkew(t *testing.T) {
	e := build(t, 120)
	rep, _ := e.checker().Check()
	// Point an interior entry at a leaf from two levels down by grafting
	// a leaf where an internal node is expected: corrupt the root's
	// first entry to point at a leaf if the tree is tall enough.
	if rep.Height < 3 {
		t.Skip("tree too shallow")
	}
	e.corrupt(t, rep.Root, func(p *page.Page) {
		en := p.MustEntry(0)
		p.ReplaceEntry(0, page.Entry{Pred: en.Pred, Child: rep.LeafIDs[0]})
	})
	_, err := e.checker().Check()
	if err == nil {
		t.Fatal("level skew undetected")
	}
	if !strings.Contains(err.Error(), "level") && !strings.Contains(err.Error(), "twice") {
		t.Errorf("err = %v", err)
	}
}

func TestDetectsCycleViaDoubleReach(t *testing.T) {
	e := build(t, 120)
	rep, _ := e.checker().Check()
	if rep.Height < 3 {
		t.Skip("tree too shallow")
	}
	// Make two root entries point at the same child.
	e.corrupt(t, rep.Root, func(p *page.Page) {
		e0 := p.MustEntry(0)
		e1 := p.MustEntry(1)
		p.ReplaceEntry(1, page.Entry{Pred: e1.Pred, Child: e0.Child})
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("err = %v, want double-reach", err)
	}
}

func TestMarkedEntriesCounted(t *testing.T) {
	e := build(t, 30)
	rep, _ := e.checker().Check()
	// Logically delete a few entries without GC.
	tx, _ := e.tm.Begin()
	count := 0
	for rid, key := range rep.Live {
		if err := e.tree.Delete(tx, key, rid); err != nil {
			t.Fatal(err)
		}
		count++
		if count == 5 {
			break
		}
	}
	tx.Commit()
	rep2, err := e.checker().Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Marked != 5 || rep2.Entries != 25 {
		t.Errorf("marked=%d entries=%d, want 5,25", rep2.Marked, rep2.Entries)
	}
}

func TestCorruptAnchorReported(t *testing.T) {
	e := build(t, 5)
	e.corrupt(t, e.tree.Anchor(), func(p *page.Page) {
		p.Reset() // destroy the root pointer slot
	})
	if _, err := e.checker().Check(); err == nil || !strings.Contains(err.Error(), "anchor") {
		t.Errorf("err = %v, want anchor corruption", err)
	}
}
