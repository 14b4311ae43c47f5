package gist_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/gist"
)

// TestHotLeafContention hammers one small key region from many goroutines
// with a tiny fanout, so inserts constantly race with splits of their own
// target leaf and must re-select within the rightlink chain (the
// bestInChain path of locateLeaf).
func TestHotLeafContention(t *testing.T) {
	// The small pool keeps eviction pressure on: this test caught the
	// lost-split-via-eviction bug (split pages must be marked dirty when
	// the Split record is applied, not at unpin).
	e := newEnvWithPool(t, gist.Config{MaxEntries: 4}, 64)
	var wg sync.WaitGroup
	const workers, per = 8, 120
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// All workers target the same narrow region.
				k := int64(w*per + i)
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid, _ := e.heap.Insert(tx, []byte("hot"))
				if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	rep := e.checkTree()
	if rep.Entries != workers*per {
		t.Fatalf("entries = %d, want %d", rep.Entries, workers*per)
	}
	t.Logf("splits=%d chases=%d", e.tree.Stats.Splits.Load(), e.tree.Stats.RightlinkChases.Load())
}

// TestReadCommittedScanBlocksOnWriter covers the record-lock blocking path
// of scans that attach no predicates (ReadCommitted): the scan must still
// wait for an uncommitted writer's record lock before returning the entry.
func TestReadCommittedScanBlocksOnWriter(t *testing.T) {
	e := newEnv(t, gist.Config{})
	e.put(1)
	writer := e.begin()
	e.putIn(writer, 2) // X lock held on the record

	done := make(chan int, 1)
	go func() {
		tx := e.begin()
		rs, err := e.tree.Search(tx, btree.EncodeRange(0, 10), gist.ReadCommitted)
		if err != nil {
			done <- -1
			return
		}
		tx.Commit()
		done <- len(rs)
	}()
	select {
	case n := <-done:
		t.Fatalf("ReadCommitted scan did not block on uncommitted write (got %d)", n)
	case <-time.After(100 * time.Millisecond):
	}
	writer.Commit()
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("scan after commit: %d hits, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan hung")
	}
}

// TestReadCommittedScanSkipsCommittedDelete covers the marked-entry skip
// path when the deleter has already finished.
func TestReadCommittedScanSkipsCommittedDelete(t *testing.T) {
	e := newEnv(t, gist.Config{})
	rid := e.put(3)
	e.put(4)
	tx := e.begin()
	if err := e.tree.Delete(tx, btree.EncodeKey(3), rid); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2 := e.begin()
	defer tx2.Commit()
	rs, err := e.tree.Search(tx2, btree.EncodeRange(0, 10), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || btree.DecodeKey(rs[0].Key) != 4 {
		t.Fatalf("hits = %v", keysOf(rs))
	}
}

func TestTreeCloseReleasesAnchorPin(t *testing.T) {
	e := newEnvWithPool(t, gist.Config{}, 4)
	e.put(1)
	e.tree.Close()
	e.tree.Close() // idempotent
	// With the anchor unpinned, all 4 frames are evictable: filling the
	// pool with new pages must not hit ErrPoolExhausted.
	for i := 0; i < 6; i++ {
		f, err := e.pool.NewPage(0)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		e.pool.Unpin(f, false, 0)
	}
}

// TestOpsAccessorAndDrain: Ops returns the extension, and DrainQuarantine
// (the forced drain DropIndex runs) frees a page node deletion left
// quarantined — the GC transaction that unlinked it was live at unlink
// time, so the page outlives that transaction's commit until a drain.
func TestOpsAccessorAndDrain(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	if _, ok := e.tree.Ops().(btree.Ops); !ok {
		t.Errorf("Ops() = %T", e.tree.Ops())
	}
	e.tree.DrainQuarantine() // nothing quarantined: a no-op
	for i := 0; i < 9; i++ {
		e.put(int64(i))
	}
	keys, rids := e.leafEntries(e.checkTree().LeafIDs[0])
	e.deleteAll(keys, rids)
	e.gcAll()
	if n := e.tree.Stats.NodeDeletes.Load(); n != 1 {
		t.Fatalf("node deletes = %d, want 1", n)
	}
	allocated := e.disk.NumAllocated()
	if q := gist.Quarantined(e.tree); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
	e.tree.DrainQuarantine()
	if q := gist.Quarantined(e.tree); q != 0 || e.disk.NumAllocated() != allocated-1 {
		t.Errorf("after the drain: quarantined %d, allocated %d, want 0, %d", q, e.disk.NumAllocated(), allocated-1)
	}
	e.checkTree()
}

// flakyOps wraps btree.Ops with a PickSplit that fails (returns an invalid
// distribution) a limited number of times — driving the runtime abort of a
// partially logged structure modification, which must be undone by the
// registered handlers and leave the tree intact.
type flakyOps struct {
	btree.Ops
	failures *int32
}

func (f flakyOps) PickSplit(preds [][]byte) []int {
	if atomic.AddInt32(f.failures, -1) >= 0 {
		return nil // invalid: tree rejects and the SMO fails mid-NTA
	}
	return f.Ops.PickSplit(preds)
}

func TestRuntimeSMOFailureRollsBack(t *testing.T) {
	var failures int32 = 1
	e := newEnv(t, gist.Config{Ops: flakyOps{failures: &failures}, MaxEntries: 4})
	for i := 0; i < 4; i++ {
		e.put(int64(i * 10))
	}
	// This insert needs a split; PickSplit fails once, the SMO aborts
	// mid-flight, and the transaction must roll back cleanly, leaking no
	// page.
	allocated := e.disk.NumAllocated()
	tx := e.begin()
	rid, _ := e.heap.Insert(tx, []byte("x"))
	err := e.tree.Insert(tx, btree.EncodeKey(5), rid)
	if err == nil {
		t.Fatal("insert succeeded despite failing PickSplit")
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort after failed SMO: %v", err)
	}
	if n := e.disk.NumAllocated(); n != allocated {
		t.Errorf("%d pages allocated after the abort, %d before the insert", n, allocated)
	}

	// The tree is intact and fully operational; the next split works.
	rep := e.checkTree()
	if rep.Entries != 4 {
		t.Errorf("entries = %d, want 4", rep.Entries)
	}
	for i := 4; i < 12; i++ {
		e.put(int64(i * 10))
	}
	rep = e.checkTree()
	if rep.Entries != 12 {
		t.Errorf("entries = %d, want 12", rep.Entries)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, 0, 200); len(got) != 12 {
		t.Errorf("scan = %d", len(got))
	}
}
