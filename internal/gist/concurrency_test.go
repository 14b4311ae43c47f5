package gist_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
)

func TestConcurrentInsertersDisjointRanges(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	const workers, per = 8, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(w*10000 + i)
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid, err := e.heap.Insert(tx, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rep := e.checkTree()
	if rep.Entries != workers*per {
		t.Fatalf("entries = %d, want %d", rep.Entries, workers*per)
	}
	tx := e.begin()
	defer tx.Commit()
	for w := 0; w < workers; w++ {
		got := e.search(tx, int64(w*10000), int64(w*10000+per-1))
		if len(got) != per {
			t.Errorf("worker %d range: %d entries, want %d", w, len(got), per)
		}
	}
}

func TestConcurrentInsertAndScanLinearizable(t *testing.T) {
	// Writers publish keys only after commit; every scan must observe at
	// least the keys published before it started (it may see more).
	e := newEnv(t, gist.Config{MaxEntries: 8})
	var published sync.Map // key -> true
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
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
		go func() {
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
				rs, err := e.tree.Search(tx, btree.EncodeRange(0, 1<<20), gist.ReadCommitted)
				if err != nil {
					t.Errorf("scan: %v", err)
					tx.Abort()
					return
				}
				tx.Commit()
				got := make(map[int64]bool, len(rs))
				for _, r := range rs {
					got[btree.DecodeKey(r.Key)] = true
				}
				for _, k := range expect {
					if !got[k] {
						t.Errorf("scan missed committed key %d (protocol lost an entry)", k)
						return
					}
				}
			}
		}()
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	<-done
	e.checkTree()
}

// TestFigure2SplitDuringBlockedScan reproduces the scenario of Figures 1
// and 2 of the paper: a scan is suspended at a leaf; the leaf splits,
// moving part of the scan's range to a new right sibling; on resumption the
// scan detects the split via the NSN and follows the rightlink, losing
// nothing.
func TestFigure2SplitDuringBlockedScan(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	for k := int64(100); k <= 105; k++ {
		e.put(k)
	}
	// A pending insert of 106 holds the X record lock the scan will hit.
	blocker := e.begin()
	blockerRID := e.putIn(blocker, 106)
	_ = blockerRID

	scanDone := make(chan []int64, 1)
	scanErr := make(chan error, 1)
	go func() {
		tx := e.begin()
		rs, err := e.tree.Search(tx, btree.EncodeRange(100, 110), gist.RepeatableRead)
		if err != nil {
			scanErr <- err
			tx.Abort()
			return
		}
		tx.Commit()
		scanDone <- keysOf(rs)
	}()

	// Wait until the scan is blocked on key 106's record lock.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if waits := e.locks.Metrics().Value("lock.waits"); waits > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scan never blocked")
		}
		time.Sleep(time.Millisecond)
	}

	// Split the leaf under the blocked scan with out-of-range keys.
	chasesBefore := e.tree.Stats.RightlinkChases.Load()
	splitsBefore := e.tree.Stats.Splits.Load()
	for k := int64(1); k <= 6; k++ {
		e.put(k)
	}
	if e.tree.Stats.Splits.Load() == splitsBefore {
		t.Fatal("setup failed: no split occurred while the scan was blocked")
	}

	// Release the scan.
	if err := blocker.Commit(); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-scanDone:
		want := []int64{100, 101, 102, 103, 104, 105, 106}
		if len(got) != len(want) {
			t.Fatalf("scan returned %v, want %v (keys lost to the split!)", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan returned %v, want %v", got, want)
			}
		}
	case err := <-scanErr:
		t.Fatalf("scan failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("scan hung")
	}
	if e.tree.Stats.RightlinkChases.Load() == chasesBefore {
		t.Error("scan did not follow any rightlink despite the split")
	}
	e.checkTree()
}

func TestPhantomPreventionInsertBlocksOnPredicate(t *testing.T) {
	e := newEnv(t, gist.Config{})
	e.put(5) // something outside the scanned range

	scanner := e.begin()
	if got := e.search(scanner, 10, 20); len(got) != 0 {
		t.Fatalf("range not empty: %v", keysOf(got))
	}

	insDone := make(chan error, 1)
	var insTx = e.begin()
	go func() {
		rid, err := e.heap.Insert(insTx, []byte("phantom"))
		if err != nil {
			insDone <- err
			return
		}
		insDone <- e.tree.Insert(insTx, btree.EncodeKey(15), rid)
	}()

	select {
	case err := <-insDone:
		t.Fatalf("insert into scanned range completed while scanner active: %v", err)
	case <-time.After(100 * time.Millisecond):
		// Blocked, as required.
	}
	if e.tree.Stats.PredBlocks.Load() == 0 {
		t.Error("no predicate block recorded")
	}

	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-insDone:
		if err != nil {
			t.Fatalf("insert after scanner commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert still blocked after scanner finished")
	}
	if err := insTx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.begin()
	defer tx.Commit()
	if got := e.search(tx, 10, 20); len(got) != 1 {
		t.Errorf("after both commits: %v", keysOf(got))
	}
}

func TestInsertOutsidePredicateDoesNotBlock(t *testing.T) {
	e := newEnv(t, gist.Config{})
	scanner := e.begin()
	e.search(scanner, 10, 20)

	tx := e.begin()
	done := make(chan error, 1)
	go func() {
		rid, _ := e.heap.Insert(tx, []byte("far away"))
		done <- e.tree.Insert(tx, btree.EncodeKey(500), rid)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("insert outside scanned range blocked")
	}
	tx.Commit()
	scanner.Commit()
}

func TestScanInsertDeadlockResolved(t *testing.T) {
	// T1 scans an empty range; T2 inserts into it (physically installed,
	// then blocks on T1's predicate); T1 rescans and hits T2's record
	// lock: a genuine cycle that the lock manager must break.
	e := newEnv(t, gist.Config{})
	t1 := e.begin()
	if got := e.search(t1, 10, 20); len(got) != 0 {
		t.Fatal("range not empty")
	}

	t2 := e.begin()
	insDone := make(chan error, 1)
	go func() {
		rid, _ := e.heap.Insert(t2, []byte("x"))
		insDone <- e.tree.Insert(t2, btree.EncodeKey(15), rid)
	}()
	time.Sleep(100 * time.Millisecond) // let T2 install and block

	_, err := e.tree.Search(t1, btree.EncodeRange(10, 20), gist.RepeatableRead)
	if !errors.Is(err, gist.ErrAborted) {
		t.Fatalf("rescan: err = %v, want ErrAborted (deadlock)", err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := <-insDone; err != nil {
		t.Fatalf("T2 insert after T1 aborted: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	e.checkTree()
}

func TestUniqueInsertRace(t *testing.T) {
	e := newEnv(t, gist.Config{})
	key := btree.EncodeKey(77)
	results := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := e.tm.Begin()
			if err != nil {
				results <- err
				return
			}
			rid, err := e.heap.Insert(tx, []byte{byte(i)})
			if err != nil {
				results <- err
				tx.Abort()
				return
			}
			err = e.tree.InsertUnique(tx, key, rid)
			if err != nil {
				tx.Abort()
				results <- err
				return
			}
			results <- tx.Commit()
		}(i)
	}
	wg.Wait()
	close(results)
	var successes, failures int
	for err := range results {
		if err == nil {
			successes++
		} else if errors.Is(err, gist.ErrDuplicate) || errors.Is(err, gist.ErrAborted) {
			failures++
		} else {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if successes != 1 || failures != 1 {
		t.Errorf("successes=%d failures=%d, want exactly one of each", successes, failures)
	}
	rep := e.checkTree()
	if rep.Entries != 1 {
		t.Errorf("entries = %d, want 1", rep.Entries)
	}
}

func TestNoLatchHeldAcrossIO(t *testing.T) {
	// A pool far smaller than the tree forces constant I/O; the exact
	// per-fetch accounting must show zero latched misses on the descent
	// and scan paths (single-threaded: no ascent chases happen).
	disk := newEnv(t, gist.Config{}) // throwaway for types
	_ = disk
	e := newEnvWithPool(t, gist.Config{MaxEntries: 8, AssertNoLatchOnIO: true}, 8)
	for i := 0; i < 400; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	for i := 0; i < 400; i += 25 {
		e.search(tx, int64(i), int64(i+30))
	}
	tx.Commit()
	if n := e.tree.Stats.LatchedIOs.Load(); n != 0 {
		t.Errorf("latched I/Os = %d, want 0", n)
	}
	if e.tree.Stats.LatchlessIOs.Load() == 0 {
		t.Error("test did not exercise any I/O")
	}
}

func TestConcurrentMixedWorkloadStress(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	const workers = 6
	var wg sync.WaitGroup
	var committed sync.Map // key -> rid
	for w := 0; w < workers; w++ {
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
				err = e.tree.Insert(tx, btree.EncodeKey(k), rid)
				if err != nil {
					tx.Abort()
					if errors.Is(err, gist.ErrAborted) {
						continue
					}
					t.Errorf("insert: %v", err)
					return
				}
				if i%7 == 3 {
					// Abort some transactions deliberately.
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				committed.Store(k, rid)

				if i%5 == 4 {
					// Delete an earlier committed key.
					victim := int64(w*1000 + i - 2)
					if v, ok := committed.Load(victim); ok {
						tx2, err := e.tm.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						if err := e.tree.Delete(tx2, btree.EncodeKey(victim), v.(page.RID)); err == nil {
							tx2.Commit()
							committed.Delete(victim)
						} else {
							tx2.Abort()
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	rep := e.checkTree()
	want := 0
	committed.Range(func(k, _ any) bool { want++; return true })
	if rep.Entries != want {
		t.Errorf("tree has %d live entries, expected %d", rep.Entries, want)
	}
	tx := e.begin()
	defer tx.Commit()
	committed.Range(func(k, _ any) bool {
		key := k.(int64)
		if got := e.search(tx, key, key); len(got) != 1 {
			t.Errorf("committed key %d: found %d entries", key, len(got))
			return false
		}
		return true
	})
}

// TestReadYourCommittedWritesUnderSplits is the sharpest probe for the
// counter-memorization race fixed by latching the parent before the Split
// record (Figure 4's ordering): each worker inserts a key, commits, and
// immediately point-queries it in a fresh transaction while other workers
// split nodes continuously. A stale-parent read combined with a
// too-fresh memorized counter would miss the key.
func TestReadYourCommittedWritesUnderSplits(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4}) // tiny fanout: constant splits
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := int64(w*100000 + i*17)
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid, _ := e.heap.Insert(tx, []byte("r"))
				if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}

				q, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rs, err := e.tree.Search(q, btree.EncodeRange(k, k), gist.ReadCommitted)
				q.Commit()
				if err != nil {
					t.Errorf("search %d: %v", k, err)
					return
				}
				if len(rs) != 1 {
					t.Errorf("worker %d: committed key %d invisible immediately after commit (%d hits)", w, k, len(rs))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rep := e.checkTree()
	if rep.Entries != 8*60 {
		t.Errorf("entries = %d, want %d", rep.Entries, 8*60)
	}
}

// TestInsertNotStarvedByLaterScans is §10.3's fairness rule: an insert
// blocked behind scanner S1's predicate leaves its own key as an insert
// predicate; a later scanner S2 of the same range must queue BEHIND the
// insert (blocking on its predicate) instead of attaching ahead and
// starving it indefinitely.
func TestInsertNotStarvedByLaterScans(t *testing.T) {
	e := newEnv(t, gist.Config{})
	e.put(100) // outside the contested range

	s1 := e.begin()
	if got := e.search(s1, 10, 20); len(got) != 0 {
		t.Fatal("range not empty")
	}

	// The insert blocks on S1's predicate (after physically installing
	// its entry and leaving its own insert predicate).
	insTx := e.begin()
	insDone := make(chan error, 1)
	go func() {
		rid, _ := e.heap.Insert(insTx, []byte("contested"))
		insDone <- e.tree.Insert(insTx, btree.EncodeKey(15), rid)
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-insDone:
		t.Fatalf("insert not blocked: %v", err)
	default:
	}

	// A later scanner of the same range must block behind the insert.
	s2 := e.begin()
	s2Done := make(chan struct {
		n   int
		err error
	}, 1)
	go func() {
		rs, err := e.tree.Search(s2, btree.EncodeRange(10, 20), gist.RepeatableRead)
		s2Done <- struct {
			n   int
			err error
		}{len(rs), err}
	}()
	select {
	case r := <-s2Done:
		t.Fatalf("later scan did not queue behind the blocked insert: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}

	// S1 finishes: the insert completes first, then S2 sees the new key
	// (it queued behind the insert, so the insert was not starved).
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := insTx.Commit(); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-s2Done:
		if r.err != nil {
			t.Fatalf("s2: %v", r.err)
		}
		if r.n != 1 {
			t.Fatalf("s2 saw %d keys, want 1 (the committed insert)", r.n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("s2 hung")
	}
	s2.Commit()
}

// TestConcurrentGCAndInserts runs garbage collection passes concurrently
// with inserts and deletes: GC must never unlink a node an active insert
// still targets, and the final content must match the surviving set.
func TestConcurrentGCAndInserts(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	var rids sync.Map
	for i := 0; i < 60; i++ {
		rids.Store(int64(i), e.put(int64(i)))
	}
	var writers sync.WaitGroup
	var gcDone sync.WaitGroup
	stop := make(chan struct{})
	// GC hammer.
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := e.tm.Begin()
			if err != nil {
				return
			}
			if err := e.tree.GCAll(tx); err != nil {
				t.Errorf("GC: %v", err)
				tx.Abort()
				return
			}
			tx.Commit()
		}
	}()
	// Writers: delete low keys, insert high keys.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				del := int64(w*15 + i%15)
				if v, ok := rids.LoadAndDelete(del); ok {
					tx, _ := e.tm.Begin()
					if err := e.tree.Delete(tx, btree.EncodeKey(del), v.(page.RID)); err != nil {
						rids.Store(del, v) // not deleted after all
						tx.Abort()
					} else {
						tx.Commit()
					}
				}
				k := int64(1000 + w*1000 + i)
				tx, _ := e.tm.Begin()
				rid, _ := e.heap.Insert(tx, []byte("n"))
				if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				tx.Commit()
				rids.Store(k, rid)
			}
		}(w)
	}
	// Stop GC only after writers are done.
	writers.Wait()
	close(stop)
	gcDone.Wait()
	want := 0
	rids.Range(func(_, _ any) bool { want++; return true })
	rep := e.checkTree()
	if rep.Entries != want {
		t.Fatalf("entries = %d, want %d", rep.Entries, want)
	}
	tx := e.begin()
	defer tx.Commit()
	rids.Range(func(k, v any) bool {
		key := k.(int64)
		got := e.search(tx, key, key)
		if len(got) != 1 || got[0].RID != v.(page.RID) {
			t.Errorf("key %d: %v", key, got)
			return false
		}
		return true
	})
}
