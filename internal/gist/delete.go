package gist

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Delete logically deletes the leaf entry (key, rid): the entry is marked,
// not physically removed, so that repeatable-read scans still find it and
// block on the deleting transaction (§7). Parent BPs are deliberately not
// shrunk — that would cut the path concurrent searches need to reach the
// marked entry. Physical removal happens later by garbage collection, after
// this transaction commits.
//
// The caller must have X-locked the data record (phase 1 of §6 applies
// symmetrically); the lock call here is re-entrant.
func (t *Tree) Delete(tx *txn.Txn, key []byte, rid page.RID) error {
	return t.DeleteCtx(nil, tx, key, rid)
}

// DeleteCtx is Delete honoring ctx at every node-visit boundary of the
// equality-search traversal and at every blocking wait. The mark itself is
// a single latched page update — once written it is undone by the caller
// through logical undo, never interrupted. A nil ctx never cancels.
func (t *Tree) DeleteCtx(ctx context.Context, tx *txn.Txn, key []byte, rid page.RID) error {
	t.Stats.Deletes.Add(1)
	o := t.opEnterCtx(ctx, tx)
	o.track("delete")
	defer o.exit()
	if err := tx.LockCtx(o.context(), lock.ForRID(rid), lock.X); err != nil {
		return wrapLockErr(err)
	}

	// Locate the leaf holding the entry: a search with an equality
	// predicate (§7), traversing all consistent subtrees.
	query := t.ops.KeyQuery(key)
	nsn := t.counter()
	root, err := o.rootID()
	if err != nil {
		return err
	}
	stack := []stackEntry{{pg: root, nsn: nsn}}
	for len(stack) > 0 {
		// Node-visit boundary: no latch held, no NTA open.
		if err := o.check(); err != nil {
			return err
		}
		se := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f, err := o.fetch(se.pg)
		if err != nil {
			return fmt.Errorf("gist: delete fetch %d: %w", se.pg, err)
		}
		if !f.Page.IsLeaf() { // level is immutable for a page id
			stack = o.visitInternal(f, se, query, stack)
			continue
		}
		o.latchPage(f, latch.X)
		if f.Page.NSN() > se.nsn {
			if rl := f.Page.Rightlink(); rl != page.InvalidPage {
				stack = append(stack, stackEntry{pg: rl, nsn: se.nsn})
				t.Stats.RightlinkChases.Add(1)
			}
		}
		if slot := f.Page.FindEntry(rid, key, false); slot >= 0 {
			return o.markDeleted(f, slot)
		}
		o.unlatchPage(f, latch.X)
		t.pool.Unpin(f, false, 0)
	}
	return fmt.Errorf("%w: key with RID %v", ErrNotFound, rid)
}

// markDeleted sets the delete mark on slot of the X-latched leaf f, logged
// in the transaction's backchain, then unlatches and unpins f.
func (o *op) markDeleted(f *buffer.Frame, slot int) error {
	t := o.t
	e := f.Page.MustEntry(slot)
	old := e.Encode(true)
	if err := f.Page.MarkDeleted(slot, o.tx.ID()); err != nil {
		o.unlatchPage(f, latch.X)
		t.pool.Unpin(f, false, 0)
		return err
	}
	lsn := o.tx.Log(&wal.Record{
		Type: wal.RecMarkLeafEntry,
		Pg:   f.ID(),
		NSN:  f.Page.NSN(),
		Body: old,
	})
	f.Page.SetLSN(lsn)
	t.Stats.Marks.Add(1)
	o.unlatchPage(f, latch.X)
	t.pool.Unpin(f, true, lsn)
	return nil
}

// gcLeafLocked removes, from an X-latched leaf, every logically deleted
// entry whose deleting transaction has terminated (necessarily by commit:
// aborts unmark during rollback). It logs one redo-only Garbage-Collection
// record, an atomic action that needs no nested top action, and,
// when entries were removed, shrinks the parent's bounding predicate
// (best effort, one level). This is the "node reorganization" performed by
// operations passing through the node (§7.1). A leaf left empty is unlinked
// when unlink is set; an inserter passing through its own target leaf
// clears it, since the emptied leaf is where its key goes.
func (o *op) gcLeafLocked(f *buffer.Frame, stack []pathEntry, unlink bool) {
	t := o.t
	if f.Page.NumSlots() == 0 {
		// Already empty (an earlier pass could not unlink it): retry.
		if unlink {
			o.tryDeleteNode(f, stack)
		}
		return
	}
	var bodies [][]byte
	for i := 0; i < f.Page.NumSlots(); i++ {
		if _, _, deleted, ok := f.Page.LeafAt(i); !ok || !deleted {
			continue
		}
		if d := f.Page.DeleterAt(i); d != page.InvalidTxn && !t.tm.IsActive(d) {
			b, _ := f.Page.SlotBytes(i)
			bodies = append(bodies, append([]byte(nil), b...))
		}
	}
	if len(bodies) == 0 {
		return
	}
	if o.logApply(&wal.Record{Type: wal.RecGarbageCollection, Pg: f.ID(), Moved: bodies}, f) != nil {
		return
	}
	t.Stats.GCRuns.Add(1)
	t.Stats.GCEntries.Add(int64(len(bodies)))

	if f.Page.NumSlots() == 0 {
		if unlink {
			o.tryDeleteNode(f, stack)
		}
		return
	}
	o.shrinkParentBP(f, stack)
}

// GCLeaf garbage-collects one leaf on demand (used by the maintenance CLI
// and tests). The leaf is located by page id.
func (t *Tree) GCLeaf(tx *txn.Txn, pg page.PageID) error {
	o := t.opEnter(tx)
	defer o.exit()
	t.drain()
	f, err := o.fetch(pg)
	if err != nil {
		return err
	}
	o.latchPage(f, latch.X)
	if !f.Page.IsLeaf() {
		o.unlatchPage(f, latch.X)
		t.pool.Unpin(f, false, 0)
		return fmt.Errorf("gist: GCLeaf on internal node %d", pg)
	}
	o.gcLeafLocked(f, nil, true)
	o.unlatchPage(f, latch.X)
	t.pool.Unpin(f, false, 0)
	return nil
}

// shrinkParentBP tightens the parent entry of an X-latched node to the
// node's current computed BP, as one redo-only Parent-Entry-Update (an
// atomic action without a nested top action). Safe against concurrent
// inserts because an inserter holds the leaf latch continuously from its BP
// expansion until its entry is physically installed, so a shrink can never
// observe the window between the two.
func (o *op) shrinkParentBP(f *buffer.Frame, stack []pathEntry) {
	t := o.t
	if stack == nil {
		return // no path context; shrink is best-effort
	}
	newBP := t.computedBP(&f.Page)
	if newBP == nil {
		return
	}
	parentF, slot, ownPin, err := o.ascendToParent(stack, f.ID(), f.Page.Level())
	if err != nil || parentF == nil {
		return
	}
	defer o.releaseParent(parentF, ownPin)
	if oldPred, _ := parentF.Page.PredAt(slot); bytes.Equal(oldPred, newBP) {
		return
	}
	if o.logParentUpdate(parentF, slot, f.ID(), newBP) == nil {
		t.Stats.BPUpdates.Add(1)
	}
}

// tryDeleteNode unlinks an empty, X-latched leaf from the tree: it removes
// the parent entry and logs the page free, as one structure modification
// that holds the parent until it ends. Other
// operations may still hold pointers to the leaf — on a traversal stack or
// in a cursor's savepoint mark — so the page keeps its NSN and rightlink
// and is only quarantined: it is reused once every transaction active now
// has ended (the drain technique of [KL80], §7.2). A late visitor
// meanwhile finds an empty node and follows its rightlink by the NSN rule;
// an inserter that latches it sees FlagDeallocated and descends again
// (locateLeaf).
func (o *op) tryDeleteNode(f *buffer.Frame, stack []pathEntry) {
	t := o.t
	if len(stack) == 0 {
		return // never delete the root (or without path context)
	}
	// Logical undo walks rightlinks from the leaf its record names, also
	// at restart, where no drain keeps an unlinked page readable. A live
	// transaction's entry leaves that leaf only by a split, which stamps
	// the leaf (and every page it leaves between the leaf and the entry)
	// with an NSN above the transaction's first LSN: such a leaf stays
	// linked until its writers end.
	if first := t.tm.MinActiveFirstLSN(); first != 0 && f.Page.NSN() >= first {
		return
	}
	pg := f.ID()
	parentF, slot, ownPin, err := o.ascendToParent(stack, pg, f.Page.Level())
	if err != nil || parentF == nil {
		return
	}
	// Keep at least one child under the parent: deleting the parent's
	// last entry would require recursive node deletion up the tree;
	// retried later when the parent itself is collected.
	if parentF.Page.NumSlots() <= 1 {
		o.releaseParent(parentF, ownPin)
		return
	}
	o.hold(parentF, ownPin)
	entryBody, _ := parentF.Page.SlotBytes(slot)
	if err := o.smo(func() error {
		err := o.logApply(&wal.Record{Type: wal.RecInternalEntryDelete, Pg: parentF.ID(), Body: append([]byte(nil), entryBody...)}, parentF)
		if err != nil {
			return err
		}
		return o.logApply(freePageRecord(f), f)
	}); err != nil {
		return
	}

	t.preds.DropNode(pg)
	t.drain(pg)
	t.Stats.NodeDeletes.Add(1)
}

// LeafRef names one leaf page together with the parent that pointed at it
// during collection, so that a later GC pass has the path context node
// deletion needs (removing the parent entry). Parent is InvalidPage when
// the leaf is the root.
type LeafRef struct {
	Leaf   page.PageID
	Parent page.PageID
}

// CollectLeafRefs walks the tree breadth-first and returns a reference to
// every leaf. The snapshot is advisory: by the time a ref is consumed the
// leaf may have been deleted or its parent changed, and GCLeafRefs treats
// both as a skip. The maintenance GC sweeper uses this to refill its paced
// burst queue.
func (t *Tree) CollectLeafRefs(tx *txn.Txn) ([]LeafRef, error) {
	o := t.opEnter(tx)
	defer o.exit()
	return o.collectLeafRefs()
}

func (o *op) collectLeafRefs() ([]LeafRef, error) {
	t := o.t
	root, err := o.rootID()
	if err != nil {
		return nil, err
	}
	var leaves []LeafRef
	frontier := []page.PageID{root}
	visited := map[page.PageID]bool{root: true}
	for len(frontier) > 0 {
		pg := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		f, err := o.fetch(pg)
		if err != nil {
			return nil, err
		}
		o.latchPage(f, latch.S)
		if f.Page.IsLeaf() {
			leaves = append(leaves, LeafRef{Leaf: pg, Parent: page.InvalidPage})
		} else {
			leafLevelBelow := f.Page.Level() == 1
			for i := 0; i < f.Page.NumSlots(); i++ {
				if _, ok := f.Page.PredAt(i); !ok {
					continue
				}
				child := f.Page.ChildAt(i)
				if visited[child] {
					continue
				}
				visited[child] = true
				if leafLevelBelow {
					leaves = append(leaves, LeafRef{Leaf: child, Parent: pg})
				} else {
					frontier = append(frontier, child)
				}
			}
		}
		if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
			visited[rl] = true
			frontier = append(frontier, rl)
		}
		o.unlatchPage(f, latch.S)
		t.pool.Unpin(f, false, 0)
	}
	return leaves, nil
}

// GCLeafRefs garbage-collects the referenced leaves: for each one it builds
// the single-level path context from the recorded parent, collects committed
// deleted entries, and attempts node deletion for emptied leaves. Stale refs
// (deallocated or no-longer-fetchable pages) are skipped — the refs are a
// snapshot and the tree may have moved on.
func (t *Tree) GCLeafRefs(tx *txn.Txn, refs []LeafRef) error {
	o := t.opEnter(tx)
	defer o.exit()
	return o.gcLeafRefs(refs)
}

func (o *op) gcLeafRefs(refs []LeafRef) error {
	t := o.t
	t.drain()
	for _, lr := range refs {
		var stack []pathEntry
		if lr.Parent != page.InvalidPage {
			pf, err := o.fetch(lr.Parent)
			if err != nil {
				continue // stale parent ref: skip, a later pass retries
			}
			stack = []pathEntry{{pg: lr.Parent, f: pf}}
		}
		f, err := o.fetch(lr.Leaf)
		if err != nil {
			o.releasePath(stack)
			continue // stale leaf ref
		}
		o.latchPage(f, latch.X)
		if f.Page.IsLeaf() && f.Page.Flags()&page.FlagDeallocated == 0 {
			o.gcLeafLocked(f, stack, true)
		}
		o.unlatchPage(f, latch.X)
		t.pool.Unpin(f, false, 0)
		o.releasePath(stack)
	}
	return nil
}

// GCAll walks the whole tree and garbage-collects every leaf — the
// maintenance pass a DBMS would run in the background (the paced sweeper in
// internal/maintenance runs the same two phases in bursts). Node deletions
// are attempted for emptied leaves when a path context is available.
func (t *Tree) GCAll(tx *txn.Txn) error {
	o := t.opEnter(tx)
	defer o.exit()
	leaves, err := o.collectLeafRefs()
	if err != nil {
		return err
	}
	return o.gcLeafRefs(leaves)
}

// DeadEntries reports the tree's surviving logically-deleted entry
// population: entries marked, minus rollback unmarks, minus entries
// physically reclaimed by GC. The count restarts at zero after a reopen
// (pre-crash marks are invisible to it); the sweeper's periodic full pass
// covers that blind spot. Clamped at zero because post-restart GC can
// reclaim entries this process never counted as marked.
func (t *Tree) DeadEntries() int64 {
	d := t.Stats.Marks.Load() - t.Stats.Unmarks.Load() - t.Stats.GCEntries.Load()
	if d < 0 {
		return 0
	}
	return d
}

// Destroy walks the whole tree and frees every node page plus the anchor,
// as one structure modification so the deallocation is recoverable. The tree
// must be quiesced and is unusable afterwards. Used by index drop.
func (t *Tree) Destroy(tx *txn.Txn) error {
	o := t.opEnter(tx)
	defer o.exit()
	root, err := o.rootID()
	if err != nil {
		return err
	}
	// Collect every node (children + rightlinks).
	var pages []page.PageID
	frontier := []page.PageID{root}
	visited := map[page.PageID]bool{root: true}
	for len(frontier) > 0 {
		pg := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		pages = append(pages, pg)
		f, err := o.fetch(pg)
		if err != nil {
			return err
		}
		o.latchPage(f, latch.S)
		if !f.Page.IsLeaf() {
			for i := 0; i < f.Page.NumSlots(); i++ {
				if _, ok := f.Page.PredAt(i); !ok {
					continue
				}
				if child := f.Page.ChildAt(i); !visited[child] {
					visited[child] = true
					frontier = append(frontier, child)
				}
			}
		}
		if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
			visited[rl] = true
			frontier = append(frontier, rl)
		}
		o.unlatchPage(f, latch.S)
		t.pool.Unpin(f, false, 0)
	}
	pages = append(pages, t.anchor)

	// On error the pages already logged free stay undoable: the caller's
	// rollback brings the tree back whole, so nothing is quarantined.
	if err := o.smo(func() error {
		for _, pg := range pages {
			f, err := o.fetch(pg)
			if err != nil {
				return err
			}
			o.latchPage(f, latch.X)
			err = o.logApply(freePageRecord(f), f)
			o.unlatchPage(f, latch.X)
			t.pool.Unpin(f, false, 0)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, pg := range pages {
		t.preds.DropNode(pg)
	}
	t.drain(pages...)
	t.Close() // release the anchor pin so the page can be reused
	return nil
}

// freePageRecord is the Free-Page record of f: it carries the node's
// identity, NSN and rightlink, so undoing the free can rebuild the node
// where its image was lost.
func freePageRecord(f *buffer.Frame) *wal.Record {
	return &wal.Record{
		Type:     wal.RecFreePage,
		Pg:       f.ID(),
		Level:    f.Page.Level(),
		OldNSN:   f.Page.NSN(),
		OldRight: f.Page.Rightlink(),
	}
}
