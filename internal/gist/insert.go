package gist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/txn"
	"repro/internal/wal"
)

// pathEntry is one ancestor on the descent path. The frame stays pinned for
// the whole operation so that the ascent (split propagation and BP updates)
// revisits buffer-resident pages and never performs I/O while holding a
// child latch.
type pathEntry struct {
	pg   page.PageID
	f    *buffer.Frame
	slot int // the entry the descent followed; a hint, as splits move entries
}

// Insert adds a (key, RID) pair to the tree, implementing the phases of §6:
// the data record is X-locked (phase 1, normally already done by the caller
// before building the record — the lock is re-entrant); a single
// minimal-penalty path is traversed to a leaf (2); the leaf is split if
// necessary, recursively (3); bounding predicates are propagated up with
// predicate percolation (4); the entry is installed (5); and the insert
// blocks on conflicting search predicates attached to the leaf (6).
func (t *Tree) Insert(tx *txn.Txn, key []byte, rid page.RID) error {
	return t.InsertCtx(nil, tx, key, rid)
}

// InsertCtx is Insert honoring ctx at every node-visit boundary and at
// every blocking wait. Cancellation is only observed OUTSIDE nested top
// actions: a split in progress always completes (the tree stays
// structurally sound), and any leaf entry already installed is rolled back
// by the caller through the transaction's logical undo. A nil ctx never
// cancels.
func (t *Tree) InsertCtx(ctx context.Context, tx *txn.Txn, key []byte, rid page.RID) error {
	t.Stats.Inserts.Add(1)
	o := t.opEnterCtx(ctx, tx)
	o.track("insert")
	defer o.exit()
	if err := tx.LockCtx(o.context(), lock.ForRID(rid), lock.X); err != nil {
		return wrapLockErr(err)
	}
	return o.insert(key, rid)
}

func (o *op) insert(key []byte, rid page.RID) error {
	t := o.t
	leafF, stack, err := o.locateLeaf(key)
	if err != nil {
		return err
	}
	defer o.releasePath(stack)

	entry := page.Entry{Pred: key, RID: rid}
	if t.needsSplit(&leafF.Page, entry.EncodedLen(true)) {
		// Passing-through garbage collection (§7.1) may free space and
		// avoid the split entirely.
		o.gcLeafLocked(leafF, stack, false)
		if t.needsSplit(&leafF.Page, entry.EncodedLen(true)) {
			newLeaf, serr := o.splitSMO(leafF, stack, key)
			if serr != nil {
				o.unlatchPage(leafF, latch.X)
				t.pool.Unpin(leafF, false, 0)
				return serr
			}
			leafF = newLeaf
		}
	}

	// Phase 4: expand ancestors' BPs so the root-to-leaf path covers the
	// new key, percolating predicates downward as BPs grow. Only the
	// ancestors' entries widen, each just enough to cover the key (§6):
	// the parent entry already covers the leaf's other entries.
	if err := o.propagateBP(leafF, key, stack); err != nil {
		o.unlatchPage(leafF, latch.X)
		t.pool.Unpin(leafF, false, 0)
		return err
	}

	// Phase 5: install the leaf entry, logged in the transaction's
	// backchain (content change, not a structure modification).
	if _, err := leafF.Page.InsertEntry(entry); err != nil {
		o.unlatchPage(leafF, latch.X)
		t.pool.Unpin(leafF, false, 0)
		return fmt.Errorf("gist: leaf insert after split: %w", err)
	}
	lsn := o.tx.Log(&wal.Record{
		Type: wal.RecAddLeafEntry,
		Pg:   leafF.ID(),
		NSN:  leafF.Page.NSN(),
		Body: entry.Encode(true),
	})
	leafF.Page.SetLSN(lsn)

	// Phase 6: leave our key as an insert predicate (fair FIFO queuing,
	// §10.3) and collect the conflicting search predicates ahead of it.
	insPred := t.preds.New(o.tx.ID(), predicate.Insert, append([]byte(nil), key...))
	ahead := t.preds.Attach(insPred, leafF.ID(), t.keyConflictsWith(key))

	o.unlatchPage(leafF, latch.X)
	t.pool.Unpin(leafF, true, lsn)

	if len(ahead) > 0 {
		if err := o.blockOnPredicates(ahead); err != nil {
			return err
		}
	}
	return nil
}

// wrapLockErr converts a deadlock denial into ErrAborted so callers know to
// abort the transaction.
func wrapLockErr(err error) error {
	if errors.Is(err, lock.ErrDeadlock) {
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	return err
}

// releasePath unpins the frames kept by locateLeaf.
func (o *op) releasePath(stack []pathEntry) {
	for _, pe := range stack {
		o.t.pool.Unpin(pe.f, false, 0)
	}
}

// locateLeaf descends from the root along minimal-penalty branches to the
// target leaf, without latch coupling; missed splits are compensated by
// evaluating the whole rightlink chain delimited by the memorized counter
// value (Figure 4's locateLeaf). The returned leaf frame is X-latched and
// pinned; the returned stack holds every ancestor pinned (not latched).
// A leaf that node deletion unlinked after the descent read its parent
// entry is found FlagDeallocated under the X latch: an entry installed
// there would be unreachable, so the descent starts again from the root.
func (o *op) locateLeaf(key []byte) (*buffer.Frame, []pathEntry, error) {
	t := o.t
	// Memorize the counter BEFORE reading the root pointer: a root split
	// increments the counter while holding the anchor exclusively, so a
	// reader that obtained the old root must have memorized a value
	// below the split's NSN and will chase the old root's rightlink.
	curNSN := t.counter()
	root, err := o.rootID()
	if err != nil {
		return nil, nil, err
	}
	var stack []pathEntry
	cur := root
	for {
		// Node-visit boundary: nothing latched, no NTA open; the path pins
		// are released by the caller's releasePath on error return.
		if err := o.check(); err != nil {
			o.releasePath(stack)
			return nil, nil, err
		}
		f, err := o.fetch(cur)
		if err != nil {
			o.releasePath(stack)
			return nil, nil, fmt.Errorf("gist: locate fetch %d: %w", cur, err)
		}
		// Level is immutable for a page id, so reading it before
		// choosing how to visit is safe.
		if !f.Page.IsLeaf() {
			at, slot, child, next, err := o.descend(f, cur, curNSN, key)
			if err != nil {
				o.releasePath(stack)
				return nil, nil, err
			}
			stack = append(stack, pathEntry{pg: at.ID(), f: at, slot: slot}) // stays pinned
			cur, curNSN = child, next
			continue
		}
		if t.beforeLeafLatch != nil {
			t.beforeLeafLatch(cur)
		}
		o.latchPage(f, latch.X)
		if f.Page.NSN() > curNSN {
			// Missed split(s): pick the minimal-penalty leaf in the
			// rightlink chain delimited by the memorized value.
			if f, err = o.bestInChain(f, latch.X, curNSN, key); err != nil {
				o.releasePath(stack)
				return nil, nil, err
			}
		}
		if f.Page.Flags()&page.FlagDeallocated == 0 {
			return f, stack, nil
		}
		o.unlatchPage(f, latch.X)
		t.pool.Unpin(f, false, 0)
		o.releasePath(stack)
		stack = nil
		curNSN = t.counter()
		if cur, err = o.rootID(); err != nil {
			return nil, nil, err
		}
	}
}

// bestInChain walks the rightlink chain starting at the latched frame f,
// delimited by the memorized NSN, and returns the minimal-penalty node
// latched in the given mode. All other chain nodes are unlatched and
// unpinned. Because the key space need not be partitioned, inserting under
// any chain node is correct; penalty only steers placement quality.
func (o *op) bestInChain(f *buffer.Frame, mode latch.Mode, memorized page.LSN, key []byte) (*buffer.Frame, error) {
	t := o.t
	type cand struct {
		pg      page.PageID
		penalty float64
	}
	best := cand{pg: f.ID(), penalty: t.chainPenalty(&f.Page, key)}
	next := f.Page.Rightlink()
	stop := f.Page.NSN() <= memorized
	o.unlatchPage(f, mode)
	t.pool.Unpin(f, false, 0)

	for !stop && next != page.InvalidPage {
		// Node-visit boundary of the rightlink chase (bestInChain runs
		// outside any NTA, holding no latch here).
		if err := o.check(); err != nil {
			return nil, err
		}
		g, err := o.fetch(next)
		if err != nil {
			return nil, fmt.Errorf("gist: chain fetch %d: %w", next, err)
		}
		o.latchPage(g, latch.S)
		t.Stats.RightlinkChases.Add(1)
		if p := t.chainPenalty(&g.Page, key); p < best.penalty {
			best = cand{pg: g.ID(), penalty: p}
		}
		stop = g.Page.NSN() <= memorized
		next = g.Page.Rightlink()
		o.unlatchPage(g, latch.S)
		t.pool.Unpin(g, false, 0)
	}

	// Relatch the winner. It may have split again in the meantime; that
	// is harmless for placement (any chain node is a correct target).
	w, err := o.fetch(best.pg)
	if err != nil {
		return nil, err
	}
	o.latchPage(w, mode)
	return w, nil
}

// minPenaltySlot returns the slot of the internal entry whose predicate the
// extension's Penalty ranks best for key (the first of equals), or -1 on
// an empty node.
func (t *Tree) minPenaltySlot(p *page.Page, key []byte) int {
	bestSlot, bestPenalty := -1, math.Inf(1)
	for i := 0; i < p.NumSlots(); i++ {
		pred, ok := p.PredAt(i)
		if !ok {
			continue
		}
		if pen := t.ops.Penalty(pred, key); pen < bestPenalty {
			bestPenalty, bestSlot = pen, i
		}
	}
	return bestSlot
}

// chainPenalty scores a whole node as an insertion target: the cost of
// expanding the node's computed BP to cover the key. An unlinked node
// takes nothing.
func (t *Tree) chainPenalty(p *page.Page, key []byte) float64 {
	if p.Flags()&page.FlagDeallocated != 0 {
		return math.Inf(1)
	}
	bp := t.computedBP(p)
	if bp == nil {
		return 0 // empty node accepts anything for free
	}
	return t.ops.Penalty(bp, key)
}

// ascendToParent locates and X-latches the node currently holding the
// parent entry of child: the deepest stack entry, corrected for splits by
// walking rightlinks until FindChild succeeds (§6: "If a parent node does
// not contain the child's pointer anymore, it must have been split and the
// search for the child's pointer is continued in the right sibling"). When
// the stack is empty the child was the traversal root: either it still is
// the root (returns nil) or the tree has grown above it and a full
// parent search runs. The returned frame is pinned iff ownPin is true (a
// stack frame is pinned by the path and must not be double-unpinned).
func (o *op) ascendToParent(stack []pathEntry, child page.PageID, childLevel uint16) (f *buffer.Frame, slot int, ownPin bool, err error) {
	t := o.t
	if len(stack) == 0 {
		return o.findParentSlow(child, childLevel)
	}
	top := stack[len(stack)-1]
	f = top.f
	o.latchPage(f, latch.X)
	ownPin = false
	if _, ok := f.Page.PredAt(top.slot); ok && f.Page.ChildAt(top.slot) == child {
		return f, top.slot, false, nil // the entry the descent followed
	}
	for {
		if s := f.Page.FindChild(child); s >= 0 {
			return f, s, ownPin, nil
		}
		next := f.Page.Rightlink()
		o.unlatchPage(f, latch.X)
		if ownPin {
			t.pool.Unpin(f, false, 0)
		}
		if next == page.InvalidPage {
			// The parent chain ran out: the child's entry must
			// have moved in a way the chain cannot explain (e.g.
			// the child was the old root and the chain start was
			// stale). Fall back to the full search.
			return o.findParentSlow(child, childLevel)
		}
		g, ferr := o.fetch(next)
		if ferr != nil {
			return nil, 0, false, ferr
		}
		t.Stats.RightlinkChases.Add(1)
		f = g
		ownPin = true
		o.latchPage(f, latch.X)
	}
}

// findParentSlow searches the whole tree for the node holding the parent
// entry of child. It is only needed when a root split raced past an
// in-flight operation whose stack predates the new root. Returns a nil
// frame if child is the current root (it has no parent entry).
func (o *op) findParentSlow(child page.PageID, childLevel uint16) (*buffer.Frame, int, bool, error) {
	// Retry: the level-wise scan can miss a sibling created by a racing
	// split after its left neighbor was visited. The downlink always
	// exists (split SMOs install it before releasing latches), so a
	// fresh scan eventually finds it.
	for attempt := 0; ; attempt++ {
		root, err := o.rootID()
		if err != nil {
			return nil, 0, false, err
		}
		f, slot, ownPin, err := o.findParentSlowFrom(root, child, childLevel)
		if err == nil || attempt >= 50 {
			return f, slot, ownPin, err
		}
		runtime.Gosched()
	}
}

// findParentSlowFrom is findParentSlow with the root pointer supplied by
// the caller (who may be serializing root changes via the anchor latch).
//
// The caller is an ascending operation that holds X latches on a path of
// nodes at levels <= childLevel. The parent entry for child can only live
// at level childLevel+1, so the scan latches X only there and S above;
// nodes at or below childLevel are never latched — re-latching one the
// caller holds would self-deadlock.
func (o *op) findParentSlowFrom(root, child page.PageID, childLevel uint16) (*buffer.Frame, int, bool, error) {
	t := o.t
	if root == child {
		return nil, 0, false, nil
	}
	parentLevel := childLevel + 1
	frontier := []page.PageID{root}
	visited := map[page.PageID]bool{root: true, child: true}
	for len(frontier) > 0 {
		pg := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		f, err := o.fetch(pg)
		if err != nil {
			return nil, 0, false, err
		}
		lvl := f.Page.Level() // immutable per page id
		switch {
		case lvl < parentLevel:
			// Below the parent level (possibly held by the caller):
			// never latch, never expand.
			t.pool.Unpin(f, false, 0)
			continue
		case lvl == parentLevel:
			o.latchPage(f, latch.X)
			if s := f.Page.FindChild(child); s >= 0 {
				return f, s, true, nil
			}
			if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
				visited[rl] = true
				frontier = append(frontier, rl)
			}
			o.unlatchPage(f, latch.X)
		default:
			o.latchPage(f, latch.S)
			if rl := f.Page.Rightlink(); rl != page.InvalidPage && !visited[rl] {
				visited[rl] = true
				frontier = append(frontier, rl)
			}
			for i := 0; i < f.Page.NumSlots(); i++ {
				if _, ok := f.Page.PredAt(i); !ok {
					continue
				}
				if child := f.Page.ChildAt(i); !visited[child] {
					visited[child] = true
					frontier = append(frontier, child)
				}
			}
			o.unlatchPage(f, latch.S)
		}
		t.pool.Unpin(f, false, 0)
	}
	return nil, 0, false, fmt.Errorf("gist: parent of node %d not found", child)
}

// splitSMO splits the latched node (recursively splitting ancestors as
// needed) as one atomic structure modification, then returns the better
// insertion target for key between the original node and the new sibling,
// X-latched. The loser is unlatched and unpinned.
//
// Every page the SMO changes stays X-latched until its nested top action
// has ended: f and the sibling by this function, the ancestors splitNode
// updated through o.smoHeld. Until the NTA's dummy CLR is logged, a crash
// makes restart undo the SMO page by page — restoring the parent entry's
// old predicate, deleting the added downlink by content, moving split
// entries back — which is correct only while no other transaction has
// changed those pages. Were the parent released sooner, another
// transaction could split it or tighten its entry in between, and the undo
// would leave an entry that escapes its parent's BP or a downlink to a
// freed page.
func (o *op) splitSMO(f *buffer.Frame, stack []pathEntry, key []byte) (*buffer.Frame, error) {
	t := o.t
	if err := o.tx.BeginNTA(); err != nil {
		return nil, err
	}
	newF, err := o.splitNode(f, stack, page.InvalidPage, nil)
	if err == nil && t.beforeSplitEnd != nil {
		t.beforeSplitEnd()
	}
	// On error the NTA's records (if any) will be undone if the
	// transaction aborts; close the bracket either way.
	o.tx.EndNTA()
	for i := len(o.smoHeld) - 1; i >= 0; i-- {
		o.smoHeld[i]()
	}
	o.smoHeld = o.smoHeld[:0]
	if err != nil {
		return nil, err
	}
	t.Stats.Splits.Add(1)

	// Choose the cheaper target for this key.
	keep, drop := f, newF
	if t.chainPenalty(&newF.Page, key) < t.chainPenalty(&f.Page, key) {
		keep, drop = newF, f
	}
	o.unlatchPage(drop, latch.X)
	t.pool.Unpin(drop, false, 0)
	return keep, nil
}

// splitNode is the recursive body of the split SMO (Figure 4's splitNode).
// Faithful to the paper, the PARENT is latched before the split is
// performed and the counter incremented: this ordering is what makes
// global-counter memorization sound. A traverser that reads a parent image
// not yet reflecting this split must have read the counter before the
// Split record was appended (the parent stays X-latched from before the
// append until the downlink is installed), so the child's new NSN exceeds
// the memorized value and the traverser chases the rightlink.
//
// Both f and the returned sibling frame are X-latched and pinned on return;
// on success the parent (or anchor) latch is left to o.smoHeld. When the
// caller is itself a split whose parent f is, it passes its child's page
// and extra, the union of the two entries it will write next to each
// other: the half of f holding child's entry gets a parent entry covering
// extra too, so no ancestor needs widening after the caller's writes.
func (o *op) splitNode(f *buffer.Frame, stack []pathEntry, child page.PageID, extra []byte) (*buffer.Frame, error) {
	t := o.t

	// Phase 1: resolve and latch the parent (or the anchor for a root
	// split) before any logging.
	var (
		parentF       *buffer.Frame
		slot          int
		ownPin        bool
		anchorLatched bool
		isRoot        bool
	)
	if len(stack) > 0 {
		var err error
		parentF, slot, ownPin, err = o.ascendToParent(stack, f.ID(), f.Page.Level())
		if err != nil {
			return nil, err
		}
	}
	if parentF == nil {
		// f was a traversal root (or the stack went stale). Either it
		// still is the root — serialize via the anchor latch, held
		// through the whole root split — or the tree has grown above
		// it and the true parent is found by full search. The anchor
		// holder never waits on tree-node latches (it only touches f,
		// the sibling and freshly allocated private pages), so the
		// anchor-before-node acquisition cannot deadlock.
		o.latchPage(t.anchorF, latch.X)
		root, err := anchorRootOf(&t.anchorF.Page)
		if err != nil {
			o.unlatchPage(t.anchorF, latch.X)
			return nil, err
		}
		if root == f.ID() {
			isRoot = true
			anchorLatched = true
		} else {
			o.unlatchPage(t.anchorF, latch.X)
			parentF, slot, ownPin, err = o.findParentSlow(f.ID(), f.Page.Level())
			if err != nil {
				return nil, err
			}
			if parentF == nil {
				return nil, fmt.Errorf("gist: parent of split node %d not found", f.ID())
			}
		}
	}
	releaseParent := func() {
		if anchorLatched {
			o.unlatchPage(t.anchorF, latch.X)
			anchorLatched = false
		}
		if parentF != nil {
			o.unlatchPage(parentF, latch.X)
			if ownPin {
				t.pool.Unpin(parentF, false, 0)
			}
			parentF = nil
		}
	}

	var oldPred []byte
	if parentF != nil {
		oldPred = append([]byte(nil), parentF.Page.MustEntry(slot).Pred...)
	}

	// Phase 2: create the sibling and log the split, with the parent
	// exclusively latched.
	leaf := f.Page.IsLeaf()
	newF, err := t.pool.NewPage(f.Page.Level())
	if err != nil {
		releaseParent()
		return nil, err
	}
	o.latchPage(newF, latch.X)
	releaseNew := func() {
		o.unlatchPage(newF, latch.X)
		t.pool.Unpin(newF, true, 0)
	}
	// First record on the sibling: it pins the recLSN, so a checkpoint's
	// redo point never starts past the page's allocation.
	if err := o.logApply(&wal.Record{Type: wal.RecGetPage, Pg: newF.ID(), Level: f.Page.Level()}, newF); err != nil {
		releaseNew()
		releaseParent()
		return nil, err
	}

	n := f.Page.NumSlots()
	preds := make([][]byte, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			releaseNew()
			releaseParent()
			return nil, fmt.Errorf("gist: split read slot %d of %d: %w", i, f.ID(), err)
		}
		bodies[i] = append([]byte(nil), b...)
		e, err := page.DecodeEntry(bodies[i], leaf)
		if err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
		preds[i] = e.Pred
	}
	stayIdx := t.ops.PickSplit(preds)
	stay := make(map[int]bool, len(stayIdx))
	for _, i := range stayIdx {
		stay[i] = true
	}
	if len(stay) == 0 || len(stay) >= n {
		releaseNew()
		releaseParent()
		return nil, fmt.Errorf("gist: PickSplit returned %d of %d entries", len(stay), n)
	}
	var moved [][]byte
	for i := 0; i < n; i++ {
		if !stay[i] {
			moved = append(moved, bodies[i])
		}
	}

	// One Split log record covers both pages (Table 1); its LSN is the
	// original node's new NSN — the global counter increments implicitly
	// (§10.1).
	rec := &wal.Record{
		Type:     wal.RecSplit,
		Pg:       f.ID(),
		Pg2:      newF.ID(),
		Level:    f.Page.Level(),
		OldNSN:   f.Page.NSN(),
		OldRight: f.Page.Rightlink(),
		Moved:    moved,
	}
	// Both pages are marked dirty here, not at unpin time: callers unpin
	// the side they did not insert into with dirty=false, and a
	// clean-before-split original would otherwise lose the split to
	// eviction.
	if err := o.logApply(rec, f, newF); err != nil {
		releaseNew()
		releaseParent()
		return nil, fmt.Errorf("gist: split %d: %w", f.ID(), err)
	}

	// Replicate predicate attachments consistent with the new node's BP
	// (§4.3 case 1).
	newBP, origBP := t.computedBP(&newF.Page), t.computedBP(&f.Page)
	if extra != nil {
		if f.Page.FindChild(child) >= 0 {
			origBP = t.ops.Union(origBP, extra)
		} else {
			newBP = t.ops.Union(newBP, extra)
		}
	}
	t.preds.ReplicateOnSplit(f.ID(), newF.ID(), func(p *predicate.Predicate) bool {
		if newBP == nil {
			return true
		}
		if p.Kind == predicate.Search {
			return t.ops.Consistent(newBP, p.Data)
		}
		return true // insert predicates: keep conservatively
	})

	// Phase 3: install the downlink (or grow the tree).
	if isRoot {
		if err := o.growRoot(f, newF, origBP, newBP); err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
		o.smoHeld = append(o.smoHeld, releaseParent) // the anchor latch
		return newF, nil
	}

	newEntry := page.Entry{Pred: newBP, Child: newF.ID()}
	if t.needsSplit(&parentF.Page, newEntry.EncodedLen(false)) {
		// Recursive parent split (the grandparent is latched inside,
		// before the parent's own counter increment). The parent
		// keeps our child's entry or hands it to the new sibling.
		var upStack []pathEntry
		if len(stack) > 0 {
			upStack = stack[:len(stack)-1]
		}
		parentSib, err := o.splitNode(parentF, upStack, f.ID(), t.ops.Union(origBP, newBP))
		if err != nil {
			releaseNew()
			releaseParent()
			return nil, err
		}
		t.Stats.Splits.Add(1)
		target := parentF
		if parentF.Page.FindChild(f.ID()) < 0 {
			target = parentSib
		}
		if target.Page.FindChild(f.ID()) < 0 {
			o.unlatchPage(parentSib, latch.X)
			t.pool.Unpin(parentSib, false, 0)
			releaseNew()
			releaseParent()
			return nil, fmt.Errorf("gist: child %d lost during parent split", f.ID())
		}
		err = o.writeParentUpdates(target, f.ID(), oldPred, origBP, newEntry)
		releaseSib := func() {
			o.unlatchPage(parentSib, latch.X)
			t.pool.Unpin(parentSib, false, 0)
		}
		if err != nil {
			releaseSib()
			releaseNew()
			releaseParent()
			return nil, err
		}
		o.smoHeld = append(o.smoHeld, releaseParent, releaseSib)
		return newF, nil
	}
	if err := o.writeParentUpdates(parentF, f.ID(), oldPred, origBP, newEntry); err != nil {
		releaseNew()
		releaseParent()
		return nil, err
	}
	o.smoHeld = append(o.smoHeld, releaseParent)
	return newF, nil
}

// growRoot installs a new root above the just-split pair, with entries
// fBP and newBP, while the anchor is exclusively latched (root moves;
// stale traversals compensate via the old root's rightlink). Each page's
// recLSN is its first record, the Get-Page: a checkpoint between it and the
// Root-Change must not let restart redo start past the root's formatting.
func (o *op) growRoot(f, newF *buffer.Frame, fBP, newBP []byte) error {
	t := o.t
	rootF, err := t.pool.NewPage(f.Page.Level() + 1)
	if err != nil {
		return err
	}
	o.latchPage(rootF, latch.X)
	recs := []*wal.Record{
		{Type: wal.RecGetPage, Pg: rootF.ID(), Level: f.Page.Level() + 1},
		{Type: wal.RecInternalEntryAdd, Pg: rootF.ID(), Body: (&page.Entry{Pred: fBP, Child: f.ID()}).Encode(false)},
		{Type: wal.RecInternalEntryAdd, Pg: rootF.ID(), Body: (&page.Entry{Pred: newBP, Child: newF.ID()}).Encode(false)},
	}
	for _, rec := range recs {
		if err = o.logApply(rec, rootF); err != nil {
			break
		}
	}
	if err == nil {
		err = o.logApply(&wal.Record{Type: wal.RecRootChange, Pg: t.anchor, Pg2: rootF.ID(), OldRight: f.ID()}, t.anchorF)
	}
	o.unlatchPage(rootF, latch.X)
	t.pool.Unpin(rootF, false, 0)
	if err == nil {
		t.Stats.RootSplits.Add(1)
	}
	return err
}

// writeParentUpdates logs and applies the two parent changes of a split:
// Internal-Entry-Update for the original child and Internal-Entry-Add for
// the new sibling. Each marks the parent dirty at its own LSN, so a clean
// parent's recLSN is the first of them.
func (o *op) writeParentUpdates(parentF *buffer.Frame, child page.PageID, oldPred, newPred []byte, add page.Entry) error {
	if !bytes.Equal(oldPred, newPred) {
		if err := o.logApply(&wal.Record{
			Type:    wal.RecInternalEntryUpdate,
			Pg:      parentF.ID(),
			Pg2:     child,
			Body:    newPred,
			OldBody: oldPred,
		}, parentF); err != nil {
			return fmt.Errorf("gist: tighten parent entry: %w", err)
		}
	}
	if err := o.logApply(&wal.Record{Type: wal.RecInternalEntryAdd, Pg: parentF.ID(), Body: add.Encode(false)}, parentF); err != nil {
		return fmt.Errorf("gist: add parent entry: %w", err)
	}
	return nil
}

// propagateBP expands ancestors' bounding predicates so that the path down
// to childF covers pred — the new key at the leaf, and above it the
// child's widened entry — updating top-down on recursion unwind and
// percolating newly consistent predicates from each parent to its child
// (§4.3 case 2, §6 phase 4). Each parent entry covers its child's content
// (the BP invariant), so Union(entry, pred) covers the child's new content
// without re-unioning the child's other entries. Each single parent-entry
// update is its own atomic action (§9.1). childF remains latched
// throughout.
func (o *op) propagateBP(childF *buffer.Frame, pred []byte, stack []pathEntry) error {
	t := o.t
	parentF, slot, ownPin, err := o.ascendToParent(stack, childF.ID(), childF.Page.Level())
	if err != nil {
		return err
	}
	if parentF == nil {
		return nil // child is the root: no parent entry to expand
	}
	release := func() {
		o.unlatchPage(parentF, latch.X)
		if ownPin {
			t.pool.Unpin(parentF, false, 0)
		}
	}

	oldPred, _ := parentF.Page.PredAt(slot)
	merged := t.ops.Union(oldPred, pred)
	if bytes.Equal(merged, oldPred) {
		// Ancestor already covers the key: expansion stops (§2).
		release()
		return nil
	}

	// Recurse upward first so updates apply top-down on unwind.
	var upStack []pathEntry
	if len(stack) > 0 {
		upStack = stack[:len(stack)-1]
	}
	if err := o.propagateBP(parentF, merged, upStack); err != nil {
		release()
		return err
	}

	// This level's update is one atomic action.
	if err := o.tx.BeginNTA(); err != nil {
		release()
		return err
	}
	err = o.logApply(&wal.Record{Type: wal.RecParentEntryUpdate, Pg: parentF.ID(), Pg2: childF.ID(), Body: merged}, parentF)
	o.tx.EndNTA()
	if err != nil {
		release()
		return fmt.Errorf("gist: BP update on %d: %w", parentF.ID(), err)
	}
	t.Stats.BPUpdates.Add(1)

	// Percolate predicates newly consistent with the child's grown BP,
	// tested against the widened entry: it covers that BP, so the test
	// is conservative.
	t.preds.Percolate(parentF.ID(), childF.ID(), func(p *predicate.Predicate) bool {
		return p.Kind == predicate.Search && t.ops.Consistent(merged, p.Data)
	})
	release()
	return nil
}
