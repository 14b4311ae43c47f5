package baseline

import (
	"fmt"
	"runtime"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/page"
)

// The link protocol of the paper, stripped of transactions and logging so
// that experiment E8 compares protocols on equal terms: NSNs come from a
// tree-global atomic counter, splits stamp the original node and hand the
// old NSN and rightlink to the sibling, and traversals compensate for
// missed splits by chasing rightlinks. At most one node latch is held at a
// time (two during the short parent-update critical sections) and never
// across an I/O.

// searchLink is Figure 3 without locks or predicates.
func (ix *Index) searchLink(query []byte) ([]Result, error) {
	type stkEntry struct {
		pg  page.PageID
		nsn uint64
	}
	// Counter before root pointer: a root split bumps the counter while
	// holding rootMu, so a reader that got the old root memorized a value
	// below the split's NSN and will chase its rightlink.
	nsn := ix.counter.Load()
	stack := []stkEntry{{pg: ix.rootID(), nsn: nsn}}
	var out []Result
	for len(stack) > 0 {
		se := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f, err := ix.fetch(se.pg, 0)
		if err != nil {
			return nil, err
		}
		f.Latch.Acquire(latch.S)
		if uint64(f.Page.NSN()) > se.nsn {
			if rl := f.Page.Rightlink(); rl != page.InvalidPage {
				stack = append(stack, stkEntry{pg: rl, nsn: se.nsn})
				ix.Chases.Add(1)
			}
		}
		if f.Page.IsLeaf() {
			for i := 0; i < f.Page.NumSlots(); i++ {
				e, err := f.Page.Entry(i)
				if err != nil {
					continue
				}
				if ix.ops.Consistent(e.Pred, query) {
					out = append(out, Result{Key: append([]byte(nil), e.Pred...), RID: e.RID})
				}
			}
		} else {
			childNSN := ix.counter.Load()
			for i := 0; i < f.Page.NumSlots(); i++ {
				e, err := f.Page.Entry(i)
				if err != nil {
					continue
				}
				if ix.ops.Consistent(e.Pred, query) {
					stack = append(stack, stkEntry{pg: e.Child, nsn: childNSN})
				}
			}
		}
		f.Latch.Release(latch.S)
		ix.pool.Unpin(f, false, 0)
	}
	return out, nil
}

// insertLink is the insert of §6 without transactional machinery.
func (ix *Index) insertLink(key []byte, rid page.RID) error {
	leafF, stack, err := ix.locateLeafLink(key)
	if err != nil {
		return err
	}
	defer func() {
		for _, pe := range stack {
			ix.pool.Unpin(pe, false, 0)
		}
	}()

	entry := page.Entry{Pred: key, RID: rid}
	if ix.needsSplit(&leafF.Page, entry.EncodedLen(true)) {
		leafF, err = ix.splitLink(leafF, stack, key)
		if err != nil {
			leafF.Latch.Release(latch.X)
			ix.pool.Unpin(leafF, true, 0)
			return err
		}
	}
	if err := ix.propagateBPLink(leafF, ix.ops.Union(ix.computedBP(&leafF.Page), key), stack); err != nil {
		leafF.Latch.Release(latch.X)
		ix.pool.Unpin(leafF, true, 0)
		return err
	}
	_, err = leafF.Page.InsertEntry(entry)
	leafF.Latch.Release(latch.X)
	ix.pool.Unpin(leafF, true, 0)
	return err
}

// locateLeafLink descends on minimal penalty, compensating for splits with
// the memorized counter. Ancestor frames stay pinned (not latched) so the
// ascent performs no I/O under latches.
func (ix *Index) locateLeafLink(key []byte) (*buffer.Frame, []*buffer.Frame, error) {
	var stack []*buffer.Frame
	curNSN := ix.counter.Load()
	cur := ix.rootID()
	for {
		f, err := ix.fetch(cur, 0)
		if err != nil {
			return nil, stack, err
		}
		leaf := f.Page.IsLeaf()
		mode := latch.S
		if leaf {
			mode = latch.X
		}
		f.Latch.Acquire(mode)
		if uint64(f.Page.NSN()) > curNSN {
			best, err := ix.bestInChainLink(f, mode, curNSN, key)
			if err != nil {
				return nil, stack, err
			}
			f = best
		}
		if f.Page.IsLeaf() {
			return f, stack, nil
		}
		slot := ix.bestSlot(&f.Page, key)
		if slot < 0 {
			f.Latch.Release(mode)
			ix.pool.Unpin(f, false, 0)
			return nil, stack, errNoEntries
		}
		child := f.Page.MustEntry(slot).Child
		next := ix.counter.Load()
		f.Latch.Release(mode)
		stack = append(stack, f) // pinned
		cur, curNSN = child, next
	}
}

func (ix *Index) bestInChainLink(f *buffer.Frame, mode latch.Mode, memorized uint64, key []byte) (*buffer.Frame, error) {
	bestPg := f.ID()
	bestPen := ix.chainPenaltyLink(&f.Page, key)
	next := f.Page.Rightlink()
	stop := uint64(f.Page.NSN()) <= memorized
	f.Latch.Release(mode)
	ix.pool.Unpin(f, false, 0)
	for !stop && next != page.InvalidPage {
		g, err := ix.fetch(next, 0)
		if err != nil {
			return nil, err
		}
		g.Latch.Acquire(latch.S)
		ix.Chases.Add(1)
		if p := ix.chainPenaltyLink(&g.Page, key); p < bestPen {
			bestPen, bestPg = p, g.ID()
		}
		stop = uint64(g.Page.NSN()) <= memorized
		next = g.Page.Rightlink()
		g.Latch.Release(latch.S)
		ix.pool.Unpin(g, false, 0)
	}
	w, err := ix.fetch(bestPg, 0)
	if err != nil {
		return nil, err
	}
	w.Latch.Acquire(mode)
	return w, nil
}

func (ix *Index) chainPenaltyLink(p *page.Page, key []byte) float64 {
	bp := ix.computedBP(p)
	if bp == nil {
		return 0
	}
	return ix.ops.Penalty(bp, key)
}

// splitLink splits the X-latched node with NSN/rightlink semantics and
// installs the parent entries, returning the better target (X-latched).
func (ix *Index) splitLink(f *buffer.Frame, stack []*buffer.Frame, key []byte) (*buffer.Frame, error) {
	newF, err := ix.splitNodeLink(f, stack)
	if err != nil {
		return f, err
	}
	ix.Splits.Add(1)
	keep, drop := f, newF
	if ix.chainPenaltyLink(&newF.Page, key) < ix.chainPenaltyLink(&f.Page, key) {
		keep, drop = newF, f
	}
	drop.Latch.Release(latch.X)
	ix.pool.Unpin(drop, true, 0)
	return keep, nil
}

func (ix *Index) splitNodeLink(f *buffer.Frame, stack []*buffer.Frame) (*buffer.Frame, error) {
	// Resolve and latch the parent (or serialize the root change) BEFORE
	// incrementing the counter — the ordering that makes global-counter
	// memorization sound (see the main tree's splitNode).
	var (
		parentF  *buffer.Frame
		slot     int
		ownPin   bool
		isRoot   bool
		rootHeld bool
	)
	if len(stack) > 0 {
		var err error
		parentF, slot, ownPin, err = ix.ascendLink(stack, f.ID())
		if err != nil {
			return nil, err
		}
	}
	if parentF == nil {
		ix.rootMu.Lock()
		if ix.root == f.ID() {
			isRoot = true
			rootHeld = true
		} else {
			root := ix.root
			ix.rootMu.Unlock()
			var err error
			parentF, slot, ownPin, err = ix.findParentSlowLinkFrom(root, f.ID(), f.Page.Level())
			if err != nil {
				return nil, err
			}
			if parentF == nil {
				return nil, fmt.Errorf("baseline: parent of split node %d not found", f.ID())
			}
		}
	}
	releaseParent := func() {
		if rootHeld {
			ix.rootMu.Unlock()
			rootHeld = false
		}
		if parentF != nil {
			parentF.Latch.Release(latch.X)
			if ownPin {
				ix.pool.Unpin(parentF, true, 0)
			}
			parentF = nil
		}
	}

	leaf := f.Page.IsLeaf()
	n := f.Page.NumSlots()
	preds := make([][]byte, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			releaseParent()
			return nil, err
		}
		bodies[i] = append([]byte(nil), b...)
		e, err := page.DecodeEntry(bodies[i], leaf)
		if err != nil {
			releaseParent()
			return nil, err
		}
		preds[i] = e.Pred
	}
	stayIdx := ix.ops.PickSplit(preds)
	stay := make(map[int]bool, len(stayIdx))
	for _, i := range stayIdx {
		stay[i] = true
	}
	if len(stay) == 0 || len(stay) >= n {
		releaseParent()
		return nil, fmt.Errorf("baseline: PickSplit kept %d of %d", len(stay), n)
	}
	newF, err := ix.pool.NewPage(f.Page.Level())
	if err != nil {
		releaseParent()
		return nil, err
	}
	newF.Latch.Acquire(latch.X)
	releaseNew := func() {
		newF.Latch.Release(latch.X)
		ix.pool.Unpin(newF, true, 0)
	}
	// Sibling inherits old NSN and rightlink; original gets a fresh NSN.
	newF.Page.SetNSN(f.Page.NSN())
	newF.Page.SetRightlink(f.Page.Rightlink())
	f.Page.Reset()
	for i := 0; i < n; i++ {
		target := &f.Page
		if !stay[i] {
			target = &newF.Page
		}
		if _, err := target.InsertBytes(bodies[i]); err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
	}
	f.Page.SetNSN(page.LSN(ix.counter.Add(1)))
	f.Page.SetRightlink(newF.ID())
	// Mark both images dirty at the split itself: callers may unpin
	// either side clean, and an eviction of a clean-before-split page
	// would silently revert the split on disk.
	ix.pool.MarkDirty(f, 0)
	ix.pool.MarkDirty(newF, 0)

	if isRoot {
		if err := ix.growRootLocked(f, newF); err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
		releaseParent()
		return newF, nil
	}

	// Install the downlink under the already-held parent latch. The
	// parent entry of f keeps its old predicate, which still covers the
	// entries moved to newF, until the downlink sits beside it: a parent
	// split below computes the grandparent's predicates from it, and a
	// reader of the grandparent between that split and the downlink's
	// arrival must still be led to newF's keys.
	origBP := ix.computedBP(&f.Page)
	add := page.Entry{Pred: ix.computedBP(&newF.Page), Child: newF.ID()}
	if ix.needsSplit(&parentF.Page, add.EncodedLen(false)) {
		var up []*buffer.Frame
		if len(stack) > 0 {
			up = stack[:len(stack)-1]
		}
		parentSib, err := ix.splitNodeLink(parentF, up)
		if err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
		ix.Splits.Add(1)
		target, tslot := parentF, parentF.Page.FindChild(f.ID())
		if tslot < 0 {
			target, tslot = parentSib, parentSib.Page.FindChild(f.ID())
		}
		err = target.Page.ReplaceEntry(tslot, page.Entry{Pred: origBP, Child: f.ID()})
		if err == nil {
			_, err = target.Page.InsertEntry(add)
		}
		ix.pool.MarkDirty(target, 0)
		if err == nil {
			// The recursive split tightened the grandparent's entry
			// before this entry existed; re-expand the ancestors.
			err = ix.propagateBPLink(target, ix.computedBP(&target.Page), up)
		}
		parentSib.Latch.Release(latch.X)
		ix.pool.Unpin(parentSib, true, 0)
		releaseParent()
		if err != nil {
			releaseNew()
			return nil, err
		}
		return newF, nil
	}
	if err := parentF.Page.ReplaceEntry(slot, page.Entry{Pred: origBP, Child: f.ID()}); err != nil {
		releaseNew()
		releaseParent()
		return nil, err
	}
	if _, err := parentF.Page.InsertEntry(add); err != nil {
		releaseNew()
		releaseParent()
		return nil, err
	}
	ix.pool.MarkDirty(parentF, 0)
	releaseParent()
	return newF, nil
}

// growRootLocked grows the tree above the split pair; rootMu is held.
func (ix *Index) growRootLocked(f, newF *buffer.Frame) error {
	nf, err := ix.pool.NewPage(f.Page.Level() + 1)
	if err != nil {
		return err
	}
	if _, err := nf.Page.InsertEntry(page.Entry{Pred: ix.computedBP(&f.Page), Child: f.ID()}); err != nil {
		return err
	}
	if _, err := nf.Page.InsertEntry(page.Entry{Pred: ix.computedBP(&newF.Page), Child: newF.ID()}); err != nil {
		return err
	}
	ix.root = nf.ID()
	ix.pool.Unpin(nf, true, 0)
	return nil
}

// findParentSlowLink searches the whole tree for the node holding the
// parent entry of child, returning it X-latched. Needed only when a root
// split raced past an in-flight operation.
func (ix *Index) findParentSlowLinkFrom(root, child page.PageID, childLevel uint16) (*buffer.Frame, int, bool, error) {
	// Retry: the scan can miss a sibling created by a concurrent split
	// after its left neighbor was visited; the downlink exists, so a
	// fresh scan (from a fresh root) eventually sees it.
	for attempt := 0; attempt < 50; attempt++ {
		f, slot, ownPin, err := ix.findParentSlowLinkOnce(root, child, childLevel)
		if err != nil || f != nil {
			return f, slot, ownPin, err
		}
		runtime.Gosched()
		root = ix.rootID()
	}
	return nil, 0, false, nil
}

func (ix *Index) findParentSlowLinkOnce(root, child page.PageID, childLevel uint16) (*buffer.Frame, int, bool, error) {
	parentLevel := childLevel + 1
	frontier := []page.PageID{root}
	visited := map[page.PageID]bool{root: true, child: true}
	for len(frontier) > 0 {
		pg := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		f, err := ix.fetch(pg, 0)
		if err != nil {
			return nil, 0, false, err
		}
		lvl := f.Page.Level()
		switch {
		case lvl < parentLevel:
			// Possibly latched by this ascending operation itself:
			// never touch.
			ix.pool.Unpin(f, false, 0)
			continue
		case lvl == parentLevel:
			f.Latch.Acquire(latch.X)
			if s := f.Page.FindChild(child); s >= 0 {
				return f, s, true, nil
			}
			if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
				visited[rl] = true
				frontier = append(frontier, rl)
			}
			f.Latch.Release(latch.X)
		default:
			f.Latch.Acquire(latch.S)
			if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
				visited[rl] = true
				frontier = append(frontier, rl)
			}
			for i := 0; i < f.Page.NumSlots(); i++ {
				e, err := f.Page.Entry(i)
				if err != nil {
					continue
				}
				if !visited[e.Child] {
					visited[e.Child] = true
					frontier = append(frontier, e.Child)
				}
			}
			f.Latch.Release(latch.S)
		}
		ix.pool.Unpin(f, false, 0)
	}
	return nil, 0, false, nil
}

// ascendLink finds and X-latches the node holding the parent entry for
// child, using the pinned stack plus rightlink chasing.
func (ix *Index) ascendLink(stack []*buffer.Frame, child page.PageID) (*buffer.Frame, int, bool, error) {
	if len(stack) == 0 {
		return nil, 0, false, nil
	}
	f := stack[len(stack)-1]
	f.Latch.Acquire(latch.X)
	ownPin := false
	for {
		if s := f.Page.FindChild(child); s >= 0 {
			return f, s, ownPin, nil
		}
		next := f.Page.Rightlink()
		f.Latch.Release(latch.X)
		if ownPin {
			ix.pool.Unpin(f, false, 0)
		}
		if next == page.InvalidPage {
			return nil, 0, false, nil
		}
		g, err := ix.fetch(next, 0)
		if err != nil {
			return nil, 0, false, err
		}
		ix.Chases.Add(1)
		f = g
		ownPin = true
		f.Latch.Acquire(latch.X)
	}
}

// propagateBPLink expands ancestors' BPs bottom-up with per-level latching.
func (ix *Index) propagateBPLink(childF *buffer.Frame, newBP []byte, stack []*buffer.Frame) error {
	parentF, slot, ownPin, err := ix.ascendLink(stack, childF.ID())
	if err != nil {
		return err
	}
	if parentF == nil {
		// The stack is empty or stale: the child either is the root
		// (nothing to expand) or the tree has grown above it and its
		// parent must be found the slow way.
		root := ix.rootID()
		if root == childF.ID() {
			return nil
		}
		parentF, slot, ownPin, err = ix.findParentSlowLinkFrom(root, childF.ID(), childF.Page.Level())
		if err != nil {
			return err
		}
		if parentF == nil {
			return fmt.Errorf("baseline: parent of node %d not found for BP update", childF.ID())
		}
	}
	release := func() {
		parentF.Latch.Release(latch.X)
		if ownPin {
			ix.pool.Unpin(parentF, true, 0)
		}
	}
	oldPred := append([]byte(nil), parentF.Page.MustEntry(slot).Pred...)
	merged := ix.ops.Union(oldPred, newBP)
	if string(merged) == string(oldPred) {
		release()
		return nil
	}
	var up []*buffer.Frame
	if len(stack) > 0 {
		up = stack[:len(stack)-1]
	}
	if err := ix.propagateBPLink(parentF, merged, up); err != nil {
		release()
		return err
	}
	err = parentF.Page.ReplaceEntry(slot, page.Entry{Pred: merged, Child: childF.ID()})
	ix.pool.MarkDirty(parentF, 0)
	release()
	return err
}

// Verify walks the index (quiesced) and returns the number of live entries,
// for test cross-checks against a model.
func (ix *Index) Verify() (int, error) {
	return ix.countSubtree(ix.rootID(), map[page.PageID]bool{})
}

func (ix *Index) countSubtree(pg page.PageID, seen map[page.PageID]bool) (int, error) {
	if seen[pg] {
		return 0, fmt.Errorf("baseline: node %d reached twice", pg)
	}
	seen[pg] = true
	f, err := ix.fetch(pg, 0)
	if err != nil {
		return 0, err
	}
	defer ix.pool.Unpin(f, false, 0)
	if f.Page.IsLeaf() {
		return f.Page.NumSlots(), nil
	}
	total := 0
	for i := 0; i < f.Page.NumSlots(); i++ {
		e, err := f.Page.Entry(i)
		if err != nil {
			return 0, err
		}
		n, err := ix.countSubtree(e.Child, seen)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
