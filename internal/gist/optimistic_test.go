package gist_test

// Race tests for the optimistic read path's nasty interleavings: readers
// vs concurrent splits, vs delete+GC of visited nodes, and the
// deterministic fallback ladder. The frame eviction/recycle ABA is pinned
// at the buffer layer (TestFrameRemapPoisonsVersion); here a tiny pool
// additionally churns frames under a live optimistic workload.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/txn"
)

// TestOptimisticReaderVsSplits runs searchers and cursor scans against
// writers that split nodes constantly (MaxEntries 4). Every key published
// before a scan starts must be observed by it; results must never
// duplicate. This is the NSN-bump-mid-copy interleaving: a split between
// snapshot and validation restarts the visit, a split after validation is
// compensated by the memorized-NSN rightlink chase.
func TestOptimisticReaderVsSplits(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	var published sync.Map
	var wg sync.WaitGroup
	var stop atomic.Bool

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64(w*1000 + i)
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid, _ := e.heap.Insert(tx, []byte("r"))
				if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				published.Store(k, true)
			}
		}(w)
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				var expect []int64
				published.Range(func(k, _ any) bool {
					expect = append(expect, k.(int64))
					return true
				})
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				var got map[int64]int
				if r%2 == 0 {
					rs, serr := e.tree.Search(tx, btree.EncodeRange(0, 1<<20), gist.ReadCommitted)
					if serr != nil {
						t.Errorf("scan: %v", serr)
						tx.Abort()
						return
					}
					got = countKeys(rs)
				} else {
					c, cerr := e.tree.OpenCursor(tx, btree.EncodeRange(0, 1<<20), gist.ReadCommitted)
					if cerr != nil {
						t.Errorf("open cursor: %v", cerr)
						tx.Abort()
						return
					}
					rs, derr := c.All()
					if derr != nil {
						t.Errorf("cursor drain: %v", derr)
						tx.Abort()
						return
					}
					got = countKeys(rs)
				}
				tx.Commit()
				for _, k := range expect {
					if got[k] == 0 {
						t.Errorf("scan missed key %d published before it started", k)
					}
				}
				for k, n := range got {
					if n > 1 {
						t.Errorf("scan returned key %d %d times", k, n)
					}
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		time.Sleep(50 * time.Millisecond)
		stop.Store(true)
	}()
	// Writers finish, then stop readers on their next pass.
	<-done
	e.checkTree()
}

func countKeys(rs []gist.SearchResult) map[int64]int {
	m := make(map[int64]int, len(rs))
	for _, r := range rs {
		m[btree.DecodeKey(r.Key)]++
	}
	return m
}

// TestOptimisticReaderVsDeleteGC scans concurrently with a deleter that
// logically deletes half the keys and runs GC sweeps (physical entry
// removal and possibly node deletion — the delete/GC-of-visited-node
// interleaving). Survivor keys must always be seen; fully deleted keys
// must vanish once their delete commits; no scan may error or duplicate.
func TestOptimisticReaderVsDeleteGC(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	const n = 120
	rids := make(map[int64]page.RID, n)
	for k := int64(0); k < n; k++ {
		rids[k] = e.put(k)
	}
	var deleted sync.Map
	var wg sync.WaitGroup
	var stop atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for k := int64(0); k < n; k += 2 {
			tx, err := e.tm.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.tree.Delete(tx, btree.EncodeKey(k), rids[k]); err != nil {
				t.Errorf("delete %d: %v", k, err)
				tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			deleted.Store(k, true)
			if k%20 == 0 {
				gcTx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.tree.GCAll(gcTx); err != nil {
					t.Errorf("gc: %v", err)
					gcTx.Abort()
					return
				}
				if err := gcTx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var gone []int64
				deleted.Range(func(k, _ any) bool {
					gone = append(gone, k.(int64))
					return true
				})
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rs, serr := e.tree.Search(tx, btree.EncodeRange(0, n), gist.ReadCommitted)
				if serr != nil {
					t.Errorf("scan: %v", serr)
					tx.Abort()
					return
				}
				tx.Commit()
				got := countKeys(rs)
				for k, c := range got {
					if c > 1 {
						t.Errorf("scan returned key %d %d times", k, c)
					}
				}
				// Odd keys are never deleted and must always be seen.
				for k := int64(1); k < n; k += 2 {
					if got[k] == 0 {
						t.Errorf("scan missed never-deleted key %d", k)
					}
				}
				// Keys whose delete committed before the scan started must
				// be gone (ReadCommitted sees no uncommitted state).
				for _, k := range gone {
					if got[k] != 0 {
						t.Errorf("scan returned key %d deleted before it started", k)
					}
				}
			}
		}()
	}
	wg.Wait()
	e.checkTree()
}

// TestOptimisticEvictionChurn runs the optimistic workload over a pool far
// smaller than the tree, so every visit races frame eviction and recycle.
// Correctness here leans on pins (a visited frame cannot be remapped) with
// the buffer version poison as backstop; the test asserts scans stay exact
// while frames churn.
func TestOptimisticEvictionChurn(t *testing.T) {
	e := newEnvWithPool(t, gist.Config{MaxEntries: 4}, 16)
	const n = 200
	for k := int64(0); k < n; k++ {
		e.put(k)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := int64((r*37 + i*13) % (n - 10))
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rs, serr := e.tree.Search(tx, btree.EncodeRange(lo, lo+9), gist.ReadCommitted)
				if serr != nil {
					t.Errorf("scan: %v", serr)
					tx.Abort()
					return
				}
				if len(rs) != 10 {
					t.Errorf("scan [%d,%d] = %d results, want 10", lo, lo+9, len(rs))
				}
				tx.Commit()
			}
		}(r)
	}
	wg.Wait()
	if misses := e.pool.Metrics().Value("buffer.misses"); misses == 0 {
		t.Error("expected buffer misses with a 16-frame pool (no churn exercised)")
	}
	e.checkTree()
}

// TestOptimisticFallbackLadder deterministically drives the fallback of
// every node-visit caller: with the internal root frame held X, a visit's
// copies can never validate, so after the retry budget it must fall back
// to the shared latch, block until the X holder leaves, and still produce
// exact results.
func TestOptimisticFallbackLadder(t *testing.T) {
	const n = 10
	count := func(e *env, tx *txn.Txn) (int, error) {
		rs, err := e.tree.Search(tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
		return len(rs), err
	}
	for _, c := range []struct {
		name string
		// run performs the operation under test in tx and returns the
		// number of entries a search then sees.
		run  func(e *env, tx *txn.Txn, rids []page.RID) (int, error)
		want int
	}{
		{"Search/ReadCommitted", func(e *env, tx *txn.Txn, _ []page.RID) (int, error) {
			return count(e, tx)
		}, n},
		{"Search/RepeatableRead", func(e *env, tx *txn.Txn, _ []page.RID) (int, error) {
			rs, err := e.tree.Search(tx, btree.EncodeRange(0, 100), gist.RepeatableRead)
			return len(rs), err
		}, n},
		{"CursorDrain", func(e *env, tx *txn.Txn, _ []page.RID) (int, error) {
			cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
			if err != nil {
				return 0, err
			}
			rs, err := cur.All()
			return len(rs), err
		}, n},
		{"Delete", func(e *env, tx *txn.Txn, rids []page.RID) (int, error) {
			if err := e.tree.Delete(tx, btree.EncodeKey(3), rids[3]); err != nil {
				return 0, err
			}
			return count(e, tx)
		}, n - 1},
		{"InsertDescent", func(e *env, tx *txn.Txn, _ []page.RID) (int, error) {
			rid, err := e.heap.Insert(tx, []byte("r"))
			if err != nil {
				return 0, err
			}
			if err := e.tree.Insert(tx, btree.EncodeKey(50), rid); err != nil {
				return 0, err
			}
			return count(e, tx)
		}, n + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, gist.Config{MaxEntries: 8})
			var rids []page.RID
			for k := int64(0); k < n; k++ {
				rids = append(rids, e.put(k))
			}
			rep := e.checkTree()
			if rep.Height < 2 {
				t.Fatalf("tree height %d: the root must be an internal node", rep.Height)
			}
			before := latch.Metrics().Value("latch.opt_fallbacks")

			rootF, err := e.pool.Fetch(rep.Root)
			if err != nil {
				t.Fatal(err)
			}
			rootF.Latch.Acquire(latch.X)

			type out struct {
				n   int
				err error
			}
			res := make(chan out, 1)
			go func() {
				tx, err := e.tm.Begin()
				if err != nil {
					res <- out{0, err}
					return
				}
				got, err := c.run(e, tx, rids)
				if err != nil {
					tx.Abort()
				} else {
					err = tx.Commit()
				}
				res <- out{got, err}
			}()

			// The operation must be parked on the root's S latch, not
			// returning.
			select {
			case o := <-res:
				t.Fatalf("returned (%d, %v) while the root was X-latched", o.n, o.err)
			case <-time.After(30 * time.Millisecond):
			}

			rootF.Latch.Release(latch.X)
			e.pool.Unpin(rootF, false, 0)

			select {
			case o := <-res:
				if o.err != nil {
					t.Fatalf("after fallback: %v", o.err)
				}
				if o.n != c.want {
					t.Fatalf("after fallback a search saw %d entries, want %d", o.n, c.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("never completed after X release")
			}
			if after := latch.Metrics().Value("latch.opt_fallbacks"); after <= before {
				t.Errorf("opt_fallbacks did not advance (%d -> %d)", before, after)
			}
			e.checkTree()
		})
	}
}

// TestOptimisticCountersFlow sanity-checks the per-operation counter fold:
// a read-only workload on an optimistic tree advances opt_reads without
// advancing s_acquires per visited node (the root may still be latched by
// writers' descents).
func TestOptimisticCountersFlow(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for k := int64(0); k < 50; k++ {
		e.put(k)
	}
	reads0 := latch.Metrics().Value("latch.opt_reads")
	for i := 0; i < 10; i++ {
		tx := e.begin()
		if got := e.search(tx, 0, 49); len(got) != 50 {
			t.Fatalf("search returned %d results, want 50", len(got))
		}
		tx.Commit()
	}
	reads1 := latch.Metrics().Value("latch.opt_reads")
	if reads1 <= reads0 {
		t.Errorf("opt_reads did not advance across 10 scans (%d -> %d)", reads0, reads1)
	}
}
