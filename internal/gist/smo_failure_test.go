package gist_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

var errAllocFailed = errors.New("test: allocation failed")

// failDisk is a MemDisk whose page allocations fail on request: once
// armed with k, the k-th allocation from then on fails.
type failDisk struct {
	*storage.MemDisk
	failAt atomic.Int64
}

func (d *failDisk) Allocate() (page.PageID, error) {
	if d.failAt.Load() > 0 && d.failAt.Add(-1) == 0 {
		return page.InvalidPage, errAllocFailed
	}
	return d.MemDisk.Allocate()
}

// newFailEnv is newEnv over a failDisk.
func newFailEnv(t *testing.T, cfg gist.Config) (*env, *failDisk) {
	t.Helper()
	fd := &failDisk{MemDisk: storage.NewMemDisk()}
	e := &env{t: t, disk: fd.MemDisk, log: wal.NewMemLog(), locks: lock.NewManager(), preds: predicate.NewManager()}
	e.pool = buffer.New(fd, 256, e.log)
	e.tm = txn.NewManager(e.log, e.locks, e.preds)
	e.heap = heap.New(e.pool)
	e.heap.RegisterUndo(e.tm)
	cfg.Ops = btree.Ops{}
	tree, err := gist.Create(e.pool, e.tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e, fd
}

// TestSplitAllocationFailureLogsNothing fails each page allocation of an
// insert whose split climbs to the root, in turn. A split reserves every
// page it needs before its first record, so whichever allocation fails,
// the insert fails having changed nothing: the abort succeeds, the tree
// checks, every committed key is found, no page stays allocated, the same
// insert then succeeds, and restart rebuilds the forward pages.
func TestSplitAllocationFailureLogsNothing(t *testing.T) {
	const keys = 64
	// The first key past the preload whose insert splits the root, and
	// the tree's height just before it.
	next, height := int64(keys), 0
	{
		e, _ := newFailEnv(t, gist.Config{MaxEntries: 4})
		for k := int64(0); k < keys; k++ {
			e.put(k)
		}
		for ; ; next++ {
			h, roots := e.checkTree().Height, e.tree.Stats.RootSplits.Load()
			e.put(next)
			if e.tree.Stats.RootSplits.Load() > roots {
				height = h
				break
			}
		}
	}
	if height < 2 {
		t.Fatalf("the root split at height %d; the split climbs no level", height)
	}

	for k := 1; k <= height+1; k++ {
		e, fd := newFailEnv(t, gist.Config{MaxEntries: 4})
		for i := int64(0); i < next; i++ {
			e.put(i)
		}
		tx := e.begin()
		rid, err := e.heap.Insert(tx, []byte("failing"))
		if err != nil {
			t.Fatal(err)
		}
		allocated := fd.NumAllocated()
		fd.failAt.Store(int64(k))
		err = e.tree.Insert(tx, btree.EncodeKey(next), rid)
		fd.failAt.Store(0)
		if !errors.Is(err, errAllocFailed) {
			t.Fatalf("k=%d: insert err = %v, want the allocation failure", k, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("k=%d: abort: %v", k, err)
		}
		rep := e.checkTree()
		if rep.Entries != int(next) {
			t.Errorf("k=%d: %d entries, want %d", k, rep.Entries, next)
		}
		check := e.begin()
		if got := e.search(check, 0, next); len(got) != int(next) {
			t.Errorf("k=%d: search finds %d of %d committed keys", k, len(got), next)
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := fd.NumAllocated(); n != allocated {
			t.Errorf("k=%d: %d pages allocated after the abort, %d before the insert", k, n, allocated)
		}
		roots := e.tree.Stats.RootSplits.Load()
		e.put(next)
		if e.tree.Stats.RootSplits.Load() != roots+1 {
			t.Errorf("k=%d: the retried insert did not split the root", k)
		}
		e.checkRestartRebuildsPages()
	}
}

// TestCreateAllocationFailureAborts: a Create whose first or second page
// allocation fails aborts its bootstrap transaction and leaves no page
// allocated.
func TestCreateAllocationFailureAborts(t *testing.T) {
	for k := 1; k <= 2; k++ {
		fd := &failDisk{MemDisk: storage.NewMemDisk()}
		fd.failAt.Store(int64(k))
		log := wal.NewMemLog()
		tm := txn.NewManager(log, lock.NewManager(), predicate.NewManager())
		pool := buffer.New(fd, 16, log)
		if _, err := gist.Create(pool, tm, gist.Config{Ops: btree.Ops{}}); !errors.Is(err, errAllocFailed) {
			t.Fatalf("k=%d: Create err = %v, want the allocation failure", k, err)
		}
		if n := len(tm.ActiveTxns()); n != 0 {
			t.Errorf("k=%d: %d transactions left active", k, n)
		}
		if n := fd.NumAllocated(); n != 0 {
			t.Errorf("k=%d: %d pages left allocated", k, n)
		}
	}
}

// TestRedoOnlyRecordsNeedNoNTA: a BP widening without a split and a GC
// pass that deletes no node log their redo-only records outside any nested
// top action, so neither writes a dummy CLR.
func TestRedoOnlyRecordsNeedNoNTA(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	rids := map[int64]page.RID{}
	for k := int64(0); k < 40; k += 2 {
		rids[k] = e.put(k)
	}
	count := func(from page.LSN) map[wal.RecType]int {
		n := map[wal.RecType]int{}
		e.log.Scan(from, func(r *wal.Record) bool {
			n[r.Type.Base()]++
			return true
		})
		return n
	}

	// Keys past every other widen the rightmost path; the first insert
	// that does so without splitting is the one to check.
	var n map[wal.RecType]int
	for k := int64(1000); ; k++ {
		splits, from := e.tree.Stats.Splits.Load(), e.log.LastLSN()+1
		e.put(k)
		if n = count(from); e.tree.Stats.Splits.Load() == splits && n[wal.RecParentEntryUpdate] > 0 {
			break
		}
		if k > 1010 {
			t.Fatal("setup: no insert widened a BP without splitting")
		}
	}
	if n[wal.RecDummyCLR] != 0 {
		t.Errorf("a BP widening logged %d dummy CLRs", n[wal.RecDummyCLR])
	}

	e.deleteAll([]int64{2, 4}, []page.RID{rids[2], rids[4]})
	deletes, from := e.tree.Stats.NodeDeletes.Load(), e.log.LastLSN()+1
	e.gcAll()
	n = count(from)
	if n[wal.RecGarbageCollection] == 0 || e.tree.Stats.NodeDeletes.Load() != deletes {
		t.Fatalf("setup: %d GC records, %d node deletes; want GC without node deletion",
			n[wal.RecGarbageCollection], e.tree.Stats.NodeDeletes.Load()-deletes)
	}
	if n[wal.RecDummyCLR] != 0 {
		t.Errorf("a GC pass logged %d dummy CLRs", n[wal.RecDummyCLR])
	}
}
