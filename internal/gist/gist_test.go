package gist_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// env bundles a complete stack: disk, WAL, buffer pool, lock/predicate
// managers, transaction manager, heap and one B-tree GiST.
type env struct {
	t     *testing.T
	disk  *storage.MemDisk
	log   *wal.Log
	pool  *buffer.Pool
	locks *lock.Manager
	preds *predicate.Manager
	tm    *txn.Manager
	heap  *heap.File
	tree  *gist.Tree
}

func newEnv(t *testing.T, cfg gist.Config) *env {
	return newEnvWithPool(t, cfg, 256)
}

func newEnvWithPool(t *testing.T, cfg gist.Config, poolSize int) *env {
	t.Helper()
	if cfg.Ops == nil {
		cfg.Ops = btree.Ops{}
	}
	e := &env{
		t:     t,
		disk:  storage.NewMemDisk(),
		log:   wal.NewMemLog(),
		locks: lock.NewManager(),
		preds: predicate.NewManager(),
	}
	e.pool = buffer.New(e.disk, poolSize, e.log)
	e.tm = txn.NewManager(e.log, e.locks, e.preds)
	e.heap = heap.New(e.pool)
	e.heap.RegisterUndo(e.tm)
	tree, err := gist.Create(e.pool, e.tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e
}

func (e *env) begin() *txn.Txn {
	e.t.Helper()
	tx, err := e.tm.Begin()
	if err != nil {
		e.t.Fatal(err)
	}
	return tx
}

// put inserts key k with a heap record, in its own committed transaction,
// and returns the RID.
func (e *env) put(k int64) page.RID {
	e.t.Helper()
	tx := e.begin()
	rid := e.putIn(tx, k)
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
	return rid
}

// putIn inserts key k within an existing transaction.
func (e *env) putIn(tx *txn.Txn, k int64) page.RID {
	e.t.Helper()
	rid, err := e.heap.Insert(tx, []byte(fmt.Sprintf("rec-%d", k)))
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
		e.t.Fatalf("insert %d: %v", k, err)
	}
	return rid
}

// keysOf extracts sorted int64 keys from search results.
func keysOf(rs []gist.SearchResult) []int64 {
	out := make([]int64, 0, len(rs))
	for _, r := range rs {
		out = append(out, btree.DecodeKey(r.Key))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (e *env) search(tx *txn.Txn, lo, hi int64) []gist.SearchResult {
	e.t.Helper()
	rs, err := e.tree.Search(tx, btree.EncodeRange(lo, hi), gist.RepeatableRead)
	if err != nil {
		e.t.Fatalf("search [%d,%d]: %v", lo, hi, err)
	}
	return rs
}

func (e *env) checkTree() *check.Report {
	e.t.Helper()
	c := &check.Checker{Pool: e.pool, Ops: btree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
	rep, err := c.Check()
	if err != nil {
		e.t.Fatalf("invariant check: %v", err)
	}
	return rep
}

func TestEmptyTreeSearch(t *testing.T) {
	e := newEnv(t, gist.Config{})
	tx := e.begin()
	if got := e.search(tx, -100, 100); len(got) != 0 {
		t.Errorf("empty tree returned %v", got)
	}
	tx.Commit()
	rep := e.checkTree()
	if rep.Height != 1 || rep.Leaves != 1 || rep.Entries != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestCreateRequiresOps(t *testing.T) {
	e := newEnv(t, gist.Config{})
	if _, err := gist.Create(e.pool, e.tm, gist.Config{}); err == nil {
		t.Error("Create without Ops succeeded")
	}
	if _, err := gist.Open(e.pool, e.tm, gist.Config{}, e.tree.Anchor()); err == nil {
		t.Error("Open without Ops succeeded")
	}
}

func TestInsertSearchSingle(t *testing.T) {
	e := newEnv(t, gist.Config{})
	rid := e.put(42)
	tx := e.begin()
	got := e.search(tx, 42, 42)
	if len(got) != 1 || btree.DecodeKey(got[0].Key) != 42 || got[0].RID != rid {
		t.Errorf("got %v", got)
	}
	// Out-of-range query finds nothing.
	if got := e.search(tx, 43, 100); len(got) != 0 {
		t.Errorf("miss query returned %v", got)
	}
	tx.Commit()
}

func TestBulkInsertWithSplits(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	const n = 500
	for i := 0; i < n; i++ {
		e.put(int64(i * 3)) // keys 0, 3, 6, ...
	}
	rep := e.checkTree()
	if rep.Entries != n {
		t.Fatalf("checker found %d entries, want %d", rep.Entries, n)
	}
	if rep.Height < 3 {
		t.Errorf("height = %d, expected a deep tree with MaxEntries 8", rep.Height)
	}
	if e.tree.Stats.Splits.Load() == 0 || e.tree.Stats.RootSplits.Load() == 0 {
		t.Error("expected splits and root splits")
	}

	tx := e.begin()
	defer tx.Commit()
	// Point queries for every key.
	for i := 0; i < n; i++ {
		k := int64(i * 3)
		got := e.search(tx, k, k)
		if len(got) != 1 || btree.DecodeKey(got[0].Key) != k {
			t.Fatalf("key %d: got %v", k, keysOf(got))
		}
	}
	// Absent keys.
	if got := e.search(tx, 1, 1); len(got) != 0 {
		t.Errorf("absent key found: %v", keysOf(got))
	}
	// Range query.
	got := keysOf(e.search(tx, 30, 60))
	want := []int64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60}
	if len(got) != len(want) {
		t.Fatalf("range [30,60]: got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range [30,60]: got %v, want %v", got, want)
		}
	}
	// Full scan.
	if got := e.search(tx, -1, 1<<40); len(got) != n {
		t.Errorf("full scan returned %d entries, want %d", len(got), n)
	}
}

func TestInsertDescendingAndRandomOrder(t *testing.T) {
	for name, gen := range map[string]func(i int) int64{
		"descending": func(i int) int64 { return int64(1000 - i) },
		"zigzag":     func(i int) int64 { return int64((i*7919 + 13) % 1000) },
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, gist.Config{MaxEntries: 6})
			seen := make(map[int64]bool)
			for i := 0; i < 300; i++ {
				k := gen(i)
				if seen[k] {
					continue
				}
				seen[k] = true
				e.put(k)
			}
			rep := e.checkTree()
			if rep.Entries != len(seen) {
				t.Fatalf("entries = %d, want %d", rep.Entries, len(seen))
			}
			tx := e.begin()
			defer tx.Commit()
			for k := range seen {
				if got := e.search(tx, k, k); len(got) != 1 {
					t.Fatalf("key %d: %v", k, keysOf(got))
				}
			}
		})
	}
}

func TestDuplicateKeysNonUnique(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	var rids []page.RID
	for i := 0; i < 10; i++ {
		rids = append(rids, e.put(7)) // same key, distinct records
	}
	tx := e.begin()
	defer tx.Commit()
	got := e.search(tx, 7, 7)
	if len(got) != 10 {
		t.Fatalf("found %d duplicates, want 10", len(got))
	}
	found := make(map[page.RID]bool)
	for _, r := range got {
		found[r.RID] = true
	}
	for _, rid := range rids {
		if !found[rid] {
			t.Errorf("RID %v missing", rid)
		}
	}
}

func TestAbortInsertRollsBackTree(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 20; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	e.putIn(tx, 100)
	e.putIn(tx, 101)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	rep := e.checkTree()
	if rep.Entries != 20 {
		t.Errorf("entries after abort = %d, want 20", rep.Entries)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, 100, 101); len(got) != 0 {
		t.Errorf("aborted keys visible: %v", keysOf(got))
	}
}

func TestAbortSurvivesSplitByOthers(t *testing.T) {
	// A transaction inserts, other transactions split the leaf with
	// their own committed inserts, then the first aborts: logical undo
	// must chase rightlinks to find the moved entry.
	e := newEnv(t, gist.Config{MaxEntries: 4})
	tx := e.begin()
	e.putIn(tx, 50)
	// Commit enough neighbors to split the leaf several times.
	for i := int64(45); i < 56; i++ {
		if i == 50 {
			continue
		}
		e.put(i)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	rep := e.checkTree()
	if rep.Entries != 10 {
		t.Errorf("entries = %d, want 10", rep.Entries)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, 50, 50); len(got) != 0 {
		t.Errorf("aborted key 50 visible")
	}
}

func TestLogicalDeleteVisibilityAndGC(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	var rids []page.RID
	for i := 0; i < 10; i++ {
		rids = append(rids, e.put(int64(i)))
	}
	// Delete key 5 and commit.
	tx := e.begin()
	if err := e.tree.Delete(tx, btree.EncodeKey(5), rids[5]); err != nil {
		t.Fatal(err)
	}
	if err := e.heap.Delete(tx, rids[5]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The entry is still physically present (marked) but not returned.
	rep := e.checkTree()
	if rep.Entries != 9 || rep.Marked != 1 {
		t.Errorf("entries=%d marked=%d, want 9,1", rep.Entries, rep.Marked)
	}
	tx2 := e.begin()
	if got := e.search(tx2, 5, 5); len(got) != 0 {
		t.Errorf("deleted key visible: %v", keysOf(got))
	}
	tx2.Commit()

	// GC the leaf; the marked entry must disappear physically.
	tx3 := e.begin()
	if err := e.tree.GCLeaf(tx3, rep.Root); err != nil {
		// Root may be internal if splits occurred; find leaves via report.
		t.Logf("GCLeaf on root: %v (tree has height %d)", err, rep.Height)
	}
	// Run GC on every leaf by scanning all keys through insert-triggered
	// paths: simplest is to call GCLeaf on each leaf found by the checker.
	tx3.Commit()

	// Use a fresh full GC pass via the tree's public GC helper.
	tx4 := e.begin()
	if err := e.tree.GCAll(tx4); err != nil {
		t.Fatal(err)
	}
	tx4.Commit()
	rep = e.checkTree()
	if rep.Marked != 0 {
		t.Errorf("marked entries after GC = %d", rep.Marked)
	}
	if e.tree.Stats.GCEntries.Load() == 0 {
		t.Error("GC removed nothing")
	}
}

func TestAbortDeleteRestoresEntry(t *testing.T) {
	e := newEnv(t, gist.Config{})
	rid := e.put(9)
	tx := e.begin()
	if err := e.tree.Delete(tx, btree.EncodeKey(9), rid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, 9, 9); len(got) != 1 {
		t.Errorf("entry not restored after delete abort: %v", keysOf(got))
	}
	rep := e.checkTree()
	if rep.Marked != 0 {
		t.Errorf("marked = %d after abort", rep.Marked)
	}
}

func TestDeleteNotFound(t *testing.T) {
	e := newEnv(t, gist.Config{})
	e.put(1)
	tx := e.begin()
	defer tx.Commit()
	err := e.tree.Delete(tx, btree.EncodeKey(99), page.RID{Page: 999, Slot: 0})
	if !errors.Is(err, gist.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestUniqueInsertDuplicate(t *testing.T) {
	e := newEnv(t, gist.Config{})
	tx := e.begin()
	rid, err := e.heap.Insert(tx, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.InsertUnique(tx, btree.EncodeKey(10), rid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.begin()
	rid2, _ := e.heap.Insert(tx2, []byte("second"))
	err = e.tree.InsertUnique(tx2, btree.EncodeKey(10), rid2)
	if !errors.Is(err, gist.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	// Error is repeatable within the transaction.
	err = e.tree.InsertUnique(tx2, btree.EncodeKey(10), rid2)
	if !errors.Is(err, gist.ErrDuplicate) {
		t.Fatalf("second try: %v", err)
	}
	tx2.Abort()

	// Different key succeeds.
	tx3 := e.begin()
	rid3, _ := e.heap.Insert(tx3, []byte("third"))
	if err := e.tree.InsertUnique(tx3, btree.EncodeKey(11), rid3); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
}

func TestOpenExistingTree(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 50; i++ {
		e.put(int64(i))
	}
	t2, err := gist.Open(e.pool, e.tm, gist.Config{Ops: btree.Ops{}, MaxEntries: 4}, e.tree.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	tx := e.begin()
	defer tx.Commit()
	rs, err := t2.Search(tx, btree.EncodeRange(0, 49), gist.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 50 {
		t.Errorf("reopened tree returned %d entries", len(rs))
	}
	if _, err := gist.Open(e.pool, e.tm, gist.Config{Ops: btree.Ops{}}, 4242); err == nil {
		t.Error("Open with bad anchor succeeded")
	}
}

func TestReadCommittedReleasesLocks(t *testing.T) {
	e := newEnv(t, gist.Config{})
	rid := e.put(1)
	tx := e.begin()
	rs, err := e.tree.Search(tx, btree.EncodeRange(0, 10), gist.ReadCommitted)
	if err != nil || len(rs) != 1 {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
	if _, held := e.locks.Holding(tx.ID(), lock.ForRID(rid)); held {
		t.Error("ReadCommitted left a record lock")
	}
	preds := e.preds.PredicatesOf(tx.ID())
	if len(preds) != 0 {
		t.Errorf("ReadCommitted left %d predicates", len(preds))
	}
	tx.Commit()
}

func TestRepeatableReadKeepsLocksAndPredicates(t *testing.T) {
	e := newEnv(t, gist.Config{})
	rid := e.put(1)
	tx := e.begin()
	if rs := e.search(tx, 0, 10); len(rs) != 1 {
		t.Fatal("search failed")
	}
	if mode, held := e.locks.Holding(tx.ID(), lock.ForRID(rid)); !held || mode != lock.S {
		t.Error("RepeatableRead did not hold the record S lock")
	}
	if len(e.preds.PredicatesOf(tx.ID())) == 0 {
		t.Error("RepeatableRead left no predicate")
	}
	tx.Commit()
	if len(e.preds.PredicatesOf(tx.ID())) != 0 {
		t.Error("predicates survived commit")
	}
}

// TestRegressionSiblingBPEscape pins the fix for a subtle split bug: when
// installing a new sibling's parent entry forces the parent itself to
// split, the recursive split tightens the grandparent's entry before the
// sibling entry exists, so without re-expansion the sibling's predicate
// escapes its ancestors and its keys become unreachable. The permuted key
// sequence below reproduced it deterministically.
func TestRegressionSiblingBPEscape(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 8})
	const n = 300
	for i := 0; i < n; i++ {
		k := int64((i * 7919) % n)
		e.put(k)
		if i%16 == 0 {
			e.checkTree() // containment must hold at every step
		}
	}
	e.checkTree()
	tx := e.begin()
	defer tx.Commit()
	for k := int64(0); k < n; k++ {
		if got := e.search(tx, k, k); len(got) != 1 {
			t.Fatalf("key %d unreachable (found %d)", k, len(got))
		}
	}
}
