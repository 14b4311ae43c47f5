package gist_test

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestSplitHoldsParentUntilNTAEnds: a split keeps its parent X-latched until
// its nested top action has ended. Otherwise another transaction can split
// that parent — and commit — before the split's dummy CLR is logged, and a
// crash in that window makes restart undo the split page by page on a
// parent that has changed: the child's old predicate comes back under a
// grandparent entry tightened without it, or the added downlink, moved to
// the parent's new sibling, survives pointing at a freed page.
//
// The test pauses a leaf split just before its NTA ends. If the parent is
// free there, it runs the other transaction's root split in the window,
// crashes, restarts and checks the tree.
func TestSplitHoldsParentUntilNTAEnds(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	// Ascending keys until the root has three leaves: the next leaf split
	// fills it, and one more split must split the root.
	k := int64(100)
	for ; ; k++ {
		e.put(k)
		if rep := e.checkTree(); rep.Height == 2 && rep.Leaves == 3 {
			break
		}
	}
	root := e.checkTree().Root

	armed, windowOpen := true, false
	var (
		crashDisk *storage.MemDisk
		crashLog  *wal.Log
	)
	gist.SetBeforeSplitEnd(e.tree, func() {
		if !armed {
			return
		}
		armed = false
		rf, err := e.pool.Fetch(root)
		if err != nil {
			t.Fatal(err)
		}
		free := rf.Latch.TryAcquire(latch.X)
		if free {
			rf.Latch.Release(latch.X)
		}
		e.pool.Unpin(rf, false, 0)
		if !free {
			return // the window is closed
		}
		windowOpen = true
		// Another transaction splits leaves at the low end until the
		// root splits, and commits; then the machine crashes.
		splits := e.tree.Stats.RootSplits.Load()
		for low := int64(99); e.tree.Stats.RootSplits.Load() == splits; low-- {
			if low < 0 {
				t.Fatal("the root never split")
			}
			e.put(low)
		}
		crashDisk, crashLog = e.disk.Snapshot(), e.log.SurvivingLog()
	})
	splits := e.tree.Stats.Splits.Load()
	for e.tree.Stats.Splits.Load() == splits {
		k++
		e.put(k)
	}
	gist.SetBeforeSplitEnd(e.tree, nil)
	if armed {
		t.Fatal("the split never reached the end of its nested top action")
	}
	if !windowOpen {
		return // the parent was still latched when the split's NTA ended
	}
	t.Error("the split released its parent before its nested top action ended")

	// Show what the window costs: restart and check the tree.
	pool := buffer.New(crashDisk, 256, crashLog)
	tm := txn.NewManager(crashLog, lock.NewManager(), predicate.NewManager())
	heap.New(pool).RegisterUndo(tm)
	cfg := gist.Config{MaxEntries: 4, Ops: btree.Ops{}}
	rec := &recovery.Recovery{Log: crashLog, Pool: pool, Disk: crashDisk, TM: tm}
	if _, err := rec.Run(func() error {
		_, err := gist.Open(pool, tm, cfg, e.tree.Anchor())
		return err
	}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c := &check.Checker{Pool: pool, Ops: btree.Ops{}, Anchor: e.tree.Anchor()}
	if _, err := c.Check(); err != nil {
		t.Errorf("after restart: %v", err)
	}
}
