package gist_test

// Tests for the insert descent's parent skip: an insert whose key the
// leaf's parent entry already covers leaves that parent unlatched.

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
)

// TestCoveredInsertLeavesParentUnlatched: inserts whose keys the leaf's
// parent entry already covers change nothing above the leaf and take no X
// latch there, so the parent's latch version does not move and the slot
// order the next descent searches stays current.
func TestCoveredInsertLeavesParentUnlatched(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 64})
	for k := int64(0); k < 4000; k += 4 {
		e.put(k)
	}
	tx := e.begin()
	refs, err := e.tree.CollectLeafRefs(tx)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	ref := refs[len(refs)/2]
	if ref.Parent == page.InvalidPage {
		t.Fatal("setup: the leaf has no parent")
	}
	keys, _ := e.leafEntries(ref.Leaf)
	if len(keys) < 2 || len(keys) > 64-8 {
		t.Fatalf("setup: leaf %d holds %d keys", ref.Leaf, len(keys))
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	pf, err := e.pool.Fetch(ref.Parent)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Unpin(pf, false, 0)
	lf, err := e.pool.Fetch(ref.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Unpin(lf, false, 0)
	parentVer, _ := pf.Latch.TryOptimistic()
	leafVer, _ := lf.Latch.TryOptimistic()
	splits, bpUpdates := e.tree.Stats.Splits.Load(), e.tree.Stats.BPUpdates.Load()
	for _, k := range []int64{lo + 1, lo + 2, hi - 1, lo + 5, hi - 2, lo + 3} {
		e.put(k)
	}
	if e.tree.Stats.Splits.Load() != splits || e.tree.Stats.BPUpdates.Load() != bpUpdates {
		t.Fatal("setup: a covered insert split or widened")
	}
	if v, _ := lf.Latch.TryOptimistic(); v == leafVer {
		t.Fatal("setup: the inserts did not reach the leaf")
	}
	if v, _ := pf.Latch.TryOptimistic(); v != parentVer {
		t.Errorf("parent %d latch version %d -> %d: a covered insert latched it", ref.Parent, parentVer, v)
	}
	if got := len(e.search(e.begin(), lo, hi)); got != len(keys)+6 {
		t.Errorf("search [%d,%d]: %d keys, want %d", lo, hi, got, len(keys)+6)
	}
	e.checkTree()
}

// TestCoveredInsertRace: on a tree of 16-entry nodes, covered inserts race
// deletes, whole-tree garbage collection (which shrinks parent entries and
// unlinks empty leaves), passing-through collection and splits, while
// readers check every search against the model. A parent skipped on a
// stale cover would leave a key outside its ancestors' bounding predicates,
// which the readers and the final tree check catch.
func TestCoveredInsertRace(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 16})
	const n = 1500
	m := newKeyModel(n)
	rids := make(map[int64]page.RID)
	var stable []int64
	for k := int64(0); k < n; k += 3 {
		rids[k] = e.put(k)
		m.state[k].Store(keyLive)
		stable = append(stable, k)
	}
	var writers, others sync.WaitGroup
	var stop atomic.Bool
	for w := int64(1); w <= 2; w++ {
		var ks []int64
		for k := w; k < n; k += 3 {
			ks = append(ks, k)
		}
		rand.New(rand.NewSource(w)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		writers.Add(1)
		go func() {
			defer writers.Done()
			m.churn(t, e, ks)
		}()
	}
	writers.Add(1)
	go func() { // deletes a third of the loaded keys
		defer writers.Done()
		rng := rand.New(rand.NewSource(9))
		for _, i := range rng.Perm(len(stable))[:len(stable)/3] {
			k := stable[i]
			tx, err := e.tm.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			m.state[k].Store(keyDeleting)
			if err := e.tree.Delete(tx, btree.EncodeKey(k), rids[k]); err != nil {
				t.Errorf("delete %d: %v", k, err)
				tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			m.state[k].Store(keyGone)
		}
	}()
	others.Add(1)
	go func() {
		defer others.Done()
		for !stop.Load() {
			tx, err := e.tm.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.tree.GCAll(tx); err != nil {
				t.Errorf("gc: %v", err)
			}
			tx.Commit()
		}
	}()
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				lo := rng.Int63n(n)
				m.search(t, e, lo, min(lo+rng.Int63n(60), n-1))
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	others.Wait()
	if e.tree.Stats.Splits.Load() == 0 || e.tree.Stats.GCEntries.Load() == 0 {
		t.Errorf("splits %d, entries collected %d: want both", e.tree.Stats.Splits.Load(), e.tree.Stats.GCEntries.Load())
	}
	m.search(t, e, 0, n-1)
	e.checkTree()
}
