package gist_test

// Node deletion (§7.2) is guarded by one mechanism, the drain: an unlinked
// leaf keeps its NSN and rightlink and is reused only once every
// transaction active at unlink time has ended. These tests drive each
// holder of a pointer to an emptied leaf deterministically: a suspended
// scan, an inserter between its descent and the leaf latch, and an
// inserter whose log record names the leaf, for which GC keeps it linked.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
	"repro/internal/txn"
)

// leafEntries returns the keys and RIDs stored on a leaf.
func (e *env) leafEntries(leaf page.PageID) (keys []int64, rids []page.RID) {
	e.t.Helper()
	f, err := e.pool.Fetch(leaf)
	if err != nil {
		e.t.Fatal(err)
	}
	defer e.pool.Unpin(f, false, 0)
	for i := 0; i < f.Page.NumSlots(); i++ {
		if key, rid, _, ok := f.Page.LeafAt(i); ok {
			keys = append(keys, btree.DecodeKey(key))
			rids = append(rids, rid)
		}
	}
	return keys, rids
}

// deleteAll logically deletes the given entries in one committed
// transaction.
func (e *env) deleteAll(keys []int64, rids []page.RID) {
	e.t.Helper()
	tx := e.begin()
	for i := range keys {
		if err := e.tree.Delete(tx, btree.EncodeKey(keys[i]), rids[i]); err != nil {
			e.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}

// gcAll runs one full GC pass in its own committed transaction.
func (e *env) gcAll() {
	e.t.Helper()
	tx := e.begin()
	if err := e.tree.GCAll(tx); err != nil {
		e.t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}

// newPageID allocates a page and reports its id: the store hands out the
// most recently freed page first, so this shows whether a page was freed.
func (e *env) newPageID() page.PageID {
	e.t.Helper()
	f, err := e.pool.NewPage(0)
	if err != nil {
		e.t.Fatal(err)
	}
	e.pool.Unpin(f, true, 0)
	return f.ID()
}

// TestInsertKeepsOwnEmptiedLeaf: an insert whose target leaf is full of
// entries whose deleters committed garbage-collects the leaf on its way
// through (§7.1). The emptied leaf is the insert's target, so it must not be
// unlinked under the inserter, whose BP expansion would then find no parent
// entry for it.
func TestInsertKeepsOwnEmptiedLeaf(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 16; i++ {
		e.put(int64(i))
	}
	var keys []int64
	var rids []page.RID
	for _, leaf := range e.checkTree().LeafIDs {
		if keys, rids = e.leafEntries(leaf); len(keys) == 4 {
			break
		}
	}
	if len(keys) != 4 {
		t.Fatal("setup: no full leaf")
	}
	e.deleteAll(keys, rids)

	tx := e.begin()
	rid, err := e.heap.Insert(tx, []byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Insert(tx, btree.EncodeKey(keys[0]), rid); err != nil {
		t.Fatalf("insert into a leaf its own GC emptied: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.tree.Stats.NodeDeletes.Load(); n != 0 {
		t.Errorf("node deletes = %d, want 0 (the inserter's own leaf)", n)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, keys[0], keys[0]); len(got) != 1 || got[0].RID != rid {
		t.Errorf("search %d = %v, want the new entry", keys[0], got)
	}
	if rep := e.checkTree(); rep.Entries != 16-4+1 {
		t.Errorf("entries = %d, want %d", rep.Entries, 16-4+1)
	}
}

// TestDrainKeepsUnlinkedLeafForScan: a RepeatableRead cursor holds a pointer
// to a leaf that GC then empties and unlinks. The scan still returns exact
// results, and the page is not reused while the scan's transaction is
// active — only after it ends and a GC pass runs.
func TestDrainKeepsUnlinkedLeafForScan(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 9; i++ {
		e.put(int64(i))
	}
	rep := e.checkTree()
	if rep.Height != 2 {
		t.Fatalf("setup: height %d, want 2", rep.Height)
	}
	scanTx := e.begin()
	c, err := e.tree.OpenCursor(scanTx, btree.EncodeRange(0, 100), gist.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, ok, err := c.Next()
	if err != nil || !ok {
		t.Fatalf("first Next = %v, %v", ok, err)
	}
	// The cursor has visited the root and one leaf; every other leaf is
	// a pointer on its stack. Empty one of them.
	var target page.PageID
	var keys []int64
	var rids []page.RID
	for _, leaf := range rep.LeafIDs {
		k, r := e.leafEntries(leaf)
		if !slices.Contains(k, btree.DecodeKey(first.Key)) {
			target, keys, rids = leaf, k, r
			break
		}
	}
	e.deleteAll(keys, rids)
	allocated := e.disk.NumAllocated()
	e.gcAll()
	if n := e.tree.Stats.NodeDeletes.Load(); n != 1 {
		t.Fatalf("node deletes = %d, want 1", n)
	}
	e.gcAll() // a later pass still may not free it
	if q := gist.Quarantined(e.tree); q != 1 || e.disk.NumAllocated() != allocated {
		t.Fatalf("quarantined %d, allocated %d→%d: leaf freed under a live scan", q, allocated, e.disk.NumAllocated())
	}

	got := []int64{btree.DecodeKey(first.Key)}
	for {
		r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, btree.DecodeKey(r.Key))
	}
	var want []int64
	for i := int64(0); i < 9; i++ {
		if !slices.Contains(keys, i) {
			want = append(want, i)
		}
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("scan = %v, want %v", got, want)
	}
	c.Close()
	if err := scanTx.Commit(); err != nil {
		t.Fatal(err)
	}

	e.gcAll()
	if q := gist.Quarantined(e.tree); q != 0 || e.disk.NumAllocated() != allocated-1 {
		t.Fatalf("after the scan ended: quarantined %d, allocated %d, want 0, %d", q, e.disk.NumAllocated(), allocated-1)
	}
	if pg := e.newPageID(); pg != target {
		t.Errorf("next allocation = page %d, want the freed leaf %d", pg, target)
	}
	e.checkTree()
}

// TestInsertRedescendsFromUnlinkedLeaf: GC unlinks an inserter's target leaf
// after the descent read the parent entry but before the leaf latch. The
// inserter finds the leaf deallocated, descends again, and its key is
// reachable after commit.
func TestInsertRedescendsFromUnlinkedLeaf(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 9; i++ {
		e.put(int64(i * 10))
	}
	rep := e.checkTree()
	target := rep.LeafIDs[0]
	keys, rids := e.leafEntries(target)
	e.deleteAll(keys, rids)

	armed := true
	gist.SetBeforeLeafLatch(e.tree, func(leaf page.PageID) {
		if armed && leaf == target {
			armed = false
			e.gcAll()
		}
	})
	key := keys[0] + 1
	tx := e.begin()
	rid := e.putIn(tx, key)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	gist.SetBeforeLeafLatch(e.tree, nil)
	if armed {
		t.Fatal("the insert descent never reached the emptied leaf")
	}
	if n := e.tree.Stats.NodeDeletes.Load(); n != 1 {
		t.Fatalf("node deletes = %d, want 1", n)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := e.search(tx2, key, key); len(got) != 1 || got[0].RID != rid {
		t.Errorf("search %d = %v, want the inserted entry", key, got)
	}
	if got := e.checkTree(); got.Entries != 9-len(keys)+1 {
		t.Errorf("entries = %d, want %d", got.Entries, 9-len(keys)+1)
	}
}

// TestAbortInsertAfterRecordedLeafEmptied: the leaf an insert's log record
// names is split (moving the entry right) and emptied before the
// transaction aborts. Logical undo starts at that leaf and follows its
// rightlink to the entry — at restart too, where no drain keeps an
// unlinked page readable — so GC leaves the leaf linked while the
// inserter lives, and unlinks it once the abort has ended it.
func TestAbortInsertAfterRecordedLeafEmptied(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	rid10, rid20 := e.put(10), e.put(20)
	e.put(30)
	recorded := e.checkTree().Root // a single leaf

	tx := e.begin()
	e.putIn(tx, 25)
	e.put(40) // splits the leaf: 25 and 30 move to the new right sibling
	if rep := e.checkTree(); rep.Leaves != 2 {
		t.Fatalf("setup: %d leaves, want 2", rep.Leaves)
	}
	if keys, _ := e.leafEntries(recorded); !slices.Equal(keys, []int64{10, 20}) {
		t.Fatalf("setup: recorded leaf holds %v", keys)
	}
	e.deleteAll([]int64{10, 20}, []page.RID{rid10, rid20})
	e.gcAll()
	if keys, _ := e.leafEntries(recorded); len(keys) != 0 {
		t.Fatalf("recorded leaf still holds %v after GC", keys)
	}
	if n := e.tree.Stats.NodeDeletes.Load(); n != 0 {
		t.Fatalf("node deletes = %d while the inserter is active, want 0", n)
	}

	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if tx.State() != txn.Aborted {
		t.Fatalf("state = %v", tx.State())
	}
	e.gcAll()
	if n := e.tree.Stats.NodeDeletes.Load(); n != 1 {
		t.Errorf("node deletes = %d after the abort, want 1", n)
	}
	tx2 := e.begin()
	defer tx2.Commit()
	if got := keysOf(e.search(tx2, 0, 100)); !slices.Equal(got, []int64{30, 40}) {
		t.Errorf("keys = %v, want [30 40]", got)
	}
	e.checkTree()
}

// TestCursorStopsAtTransactionEnd: the drain keeps a cursor's stacked pages
// only while its transaction lives, so once the transaction has ended Next
// refuses to visit another node.
func TestCursorStopsAtTransactionEnd(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 9; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	c, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("first Next = %v, %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ { // the visited leaf's pending matches, then the stack
		_, ok, err := c.Next()
		if errors.Is(err, txn.ErrNotActive) {
			return
		}
		if err != nil || !ok || n >= 9 {
			t.Fatalf("Next after commit = %v, %v; want txn.ErrNotActive before the next node", ok, err)
		}
	}
}
