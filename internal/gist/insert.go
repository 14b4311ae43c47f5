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
	pg    page.PageID
	f     *buffer.Frame
	slot  int         // the entry the descent followed; a hint, as splits move entries
	child page.PageID // that entry's child
	// At the leaf's parent: the followed entry covered the key (Union
	// left it unchanged) in the image of f at latch version ver.
	ver     uint64
	covered bool
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
			pe, child, next, err := o.descend(f, cur, curNSN, key)
			if err != nil {
				o.releasePath(stack)
				return nil, nil, err
			}
			stack = append(stack, pe) // stays pinned
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
// extension's Penalty ranks best for key (the first of equals) and its
// penalty, or -1 on an empty node.
func (t *Tree) minPenaltySlot(p *page.Page, key []byte) (slot int, penalty float64) {
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
	return bestSlot, bestPenalty
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

// splitSMO splits the latched node f (recursively splitting ancestors as
// needed) as one structure modification, then returns the better insertion
// target for key between f and its new sibling, X-latched; the other is
// released with the SMO's other pages when its nested top action ends
// (see smo).
func (o *op) splitSMO(f *buffer.Frame, stack []pathEntry, key []byte) (*buffer.Frame, error) {
	t := o.t
	keep := f
	err := o.smo(func() error {
		levels, err := o.planSplit(f, stack)
		if err != nil {
			return err
		}
		if err := o.applySplit(levels); err != nil {
			return err
		}
		if t.beforeSplitEnd != nil {
			t.beforeSplitEnd()
		}
		if sib := levels[0].sib; t.chainPenalty(&sib.Page, key) < t.chainPenalty(&f.Page, key) {
			keep = sib
			o.smoHeld[levels[0].held] = o.release(f, true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keep, nil
}

// splitLevel is one node of a planned split: the node and its reserved
// sibling, the entries that move and both halves' bounding predicates, and
// the node's entry in its parent (parent is nil for a root split, which
// reserves the new root instead).
type splitLevel struct {
	node, sib  *buffer.Frame
	held       int // sib's release in o.smoHeld
	moved      [][]byte
	bp, sibBP  []byte
	parent     *buffer.Frame
	oldPred    []byte
	root       *buffer.Frame
	childMoves bool // the entry of the node split below goes to sib
}

// planSplit is the plan pass of a split (Figure 4's splitNode): it does
// every fallible step and logs nothing. Level by level, from f up, it
// latches the parent (or, for a root split, the anchor), runs PickSplit
// and computes both halves' bounding predicates; a parent without room for
// the new entry is planned as the next level. Then it reserves every
// sibling and, for a root split, the new root. The latches and
// reservations are queued on o.smoHeld, so a failed plan gives every
// reserved page back.
//
// Faithful to the paper, the parent is latched before the split's record
// is appended and the counter incremented: this ordering is what makes
// global-counter memorization sound. A traverser that reads a parent image
// not yet reflecting this split must have read the counter before the
// Split record was appended (the parent stays X-latched from before the
// append until the downlink is installed), so the child's new NSN exceeds
// the memorized value and the traverser chases the rightlink.
func (o *op) planSplit(f *buffer.Frame, stack []pathEntry) ([]splitLevel, error) {
	t := o.t
	var levels []splitLevel
	childSlot := -1 // the lower level's entry in f, above the leaf
	for {
		lv := splitLevel{node: f}
		parentF, slot, err := o.latchParent(f, stack)
		if err != nil {
			return nil, err
		}
		bodies, preds, stay, err := t.pickSplit(&f.Page)
		if err != nil {
			return nil, err
		}
		var kept [][]byte
		for i, b := range bodies {
			if stay[i] {
				kept = append(kept, b)
				lv.bp = t.ops.Union(lv.bp, preds[i])
			} else {
				lv.moved = append(lv.moved, b)
				lv.sibBP = t.ops.Union(lv.sibBP, preds[i])
			}
		}
		if childSlot >= 0 {
			// The half that keeps the lower node's entry also gets its
			// sibling's entry, so it must cover both and have room.
			low := &levels[len(levels)-1]
			extra := t.ops.Union(low.bp, low.sibBP)
			lv.childMoves = !stay[childSlot]
			half := kept
			if lv.childMoves {
				lv.sibBP, half = t.ops.Union(lv.sibBP, extra), lv.moved
			} else {
				lv.bp = t.ops.Union(lv.bp, extra)
			}
			room := page.Size - page.HeaderSize - low.parentGrowth() - page.SlotSize
			for _, b := range half {
				room -= len(b) + page.SlotSize
			}
			if room < 0 {
				return nil, fmt.Errorf("gist: split of %d leaves no room for the entries of %d", f.ID(), low.node.ID())
			}
		}
		if parentF == nil {
			return o.reserveSplit(append(levels, lv))
		}
		lv.parent, lv.oldPred = parentF, append([]byte(nil), parentF.Page.MustEntry(slot).Pred...)
		levels = append(levels, lv)
		if !t.needsSplit(&parentF.Page, lv.parentGrowth()) {
			return o.reserveSplit(levels)
		}
		// The parent splits too; its grandparent is latched before the
		// parent's own counter increment.
		f, childSlot = parentF, slot
		if len(stack) > 0 {
			stack = stack[:len(stack)-1]
		}
	}
}

// reserveSplit is the plan's last step: it reserves each level's sibling,
// and the new root for a root split, as late as it can, so a page's
// allocation and its Get-Page record stay close together.
func (o *op) reserveSplit(levels []splitLevel) ([]splitLevel, error) {
	var err error
	for i := range levels {
		lv := &levels[i]
		if lv.sib, err = o.reserve(lv.node.Page.Level()); err != nil {
			return nil, err
		}
		lv.held = len(o.smoHeld) - 1
	}
	if top := &levels[len(levels)-1]; top.parent == nil {
		top.root, err = o.reserve(top.node.Page.Level() + 1)
	}
	return levels, err
}

// parentGrowth is the space the level's two parent writes need: the
// sibling's new entry plus any growth of the node's own entry.
func (lv *splitLevel) parentGrowth() int {
	add := (&page.Entry{Pred: lv.sibBP}).EncodedLen(false)
	return add + max(0, len(lv.bp)-len(lv.oldPred))
}

// pickSplit reads and decodes p's entries and runs the extension's
// PickSplit over them, returning the bodies, their predicates and which
// stay on p.
func (t *Tree) pickSplit(p *page.Page) (bodies, preds [][]byte, stay []bool, err error) {
	n := p.NumSlots()
	bodies, preds = make([][]byte, n), make([][]byte, n)
	for i := 0; i < n; i++ {
		b, err := p.SlotBytes(i)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gist: split read slot %d of %d: %w", i, p.ID(), err)
		}
		bodies[i] = append([]byte(nil), b...)
		e, err := page.DecodeEntry(bodies[i], p.IsLeaf())
		if err != nil {
			return nil, nil, nil, err
		}
		preds[i] = e.Pred
	}
	stay = make([]bool, n)
	stays := 0
	for _, i := range t.ops.PickSplit(preds) {
		if i >= 0 && i < n && !stay[i] {
			stay[i] = true
			stays++
		}
	}
	if stays == 0 || stays >= n {
		return nil, nil, nil, fmt.Errorf("gist: PickSplit returned %d of %d entries", stays, n)
	}
	return bodies, preds, stay, nil
}

// latchParent X-latches the node holding f's parent entry and returns it
// with the entry's slot, or latches the anchor and returns nil when f is
// the root. The latch is held until the SMO ends.
func (o *op) latchParent(f *buffer.Frame, stack []pathEntry) (*buffer.Frame, int, error) {
	t := o.t
	if len(stack) > 0 {
		parentF, slot, ownPin, err := o.ascendToParent(stack, f.ID(), f.Page.Level())
		if parentF != nil {
			o.hold(parentF, ownPin)
		}
		if err != nil || parentF != nil {
			return parentF, slot, err
		}
	}
	// f was a traversal root (or the stack went stale). Either it still
	// is the root — serialize via the anchor latch, held through the whole
	// root split — or the tree has grown above it and the true parent is
	// found by full search. The anchor holder never waits on tree-node
	// latches (it only touches f, the sibling and freshly allocated
	// private pages), so the anchor-before-node acquisition cannot
	// deadlock.
	o.latchPage(t.anchorF, latch.X)
	root, err := anchorRootOf(&t.anchorF.Page)
	if err == nil && root == f.ID() {
		o.hold(t.anchorF, false)
		return nil, 0, nil
	}
	o.unlatchPage(t.anchorF, latch.X)
	if err != nil {
		return nil, 0, err
	}
	parentF, slot, ownPin, err := o.findParentSlow(f.ID(), f.Page.Level())
	if parentF != nil {
		o.hold(parentF, ownPin)
	} else if err == nil {
		err = fmt.Errorf("gist: parent of split node %d not found", f.ID())
	}
	return parentF, slot, err
}

// applySplit is the apply pass of a planned split. It logs and applies,
// bottom-up, each level's Get-Page for the sibling (its first record pins
// the recLSN, so a checkpoint's redo point never starts past the page's
// allocation) and its Split; then the new root, or the top level's parent
// entries; then each lower level's parent entries top-down, in whichever
// half of the split parent holds them.
func (o *op) applySplit(levels []splitLevel) error {
	t := o.t
	for _, lv := range levels {
		f, sib := lv.node, lv.sib
		if err := o.logApply(&wal.Record{Type: wal.RecGetPage, Pg: sib.ID(), Level: f.Page.Level()}, sib); err != nil {
			return err
		}
		// One Split log record covers both pages (Table 1); its LSN is
		// the original node's new NSN — the global counter increments
		// implicitly (§10.1).
		if err := o.logApply(&wal.Record{
			Type:     wal.RecSplit,
			Pg:       f.ID(),
			Pg2:      sib.ID(),
			Level:    f.Page.Level(),
			OldNSN:   f.Page.NSN(),
			OldRight: f.Page.Rightlink(),
			Moved:    lv.moved,
		}, f, sib); err != nil {
			return fmt.Errorf("gist: split %d: %w", f.ID(), err)
		}
		// Replicate predicate attachments consistent with the sibling's
		// BP (§4.3 case 1); insert predicates are kept conservatively.
		t.preds.ReplicateOnSplit(f.ID(), sib.ID(), func(p *predicate.Predicate) bool {
			return p.Kind != predicate.Search || t.ops.Consistent(lv.sibBP, p.Data)
		})
		t.Stats.Splits.Add(1)
	}
	for i := len(levels) - 1; i >= 0; i-- {
		var err error
		switch lv := levels[i]; {
		case lv.root != nil:
			err = o.growRoot(lv)
		case i+1 < len(levels) && levels[i+1].childMoves:
			err = o.writeParentUpdates(levels[i+1].sib, lv)
		default:
			err = o.writeParentUpdates(lv.parent, lv)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// growRoot installs the reserved new root above a root split's pair while
// the anchor is exclusively latched (root moves; stale traversals
// compensate via the old root's rightlink). The root's recLSN is its first
// record, the Get-Page: a checkpoint between it and the Root-Change must not
// let restart redo start past the root's formatting.
func (o *op) growRoot(lv splitLevel) error {
	t := o.t
	rootF := lv.root
	for _, rec := range []*wal.Record{
		{Type: wal.RecGetPage, Pg: rootF.ID(), Level: rootF.Page.Level()},
		{Type: wal.RecInternalEntryAdd, Pg: rootF.ID(), Body: (&page.Entry{Pred: lv.bp, Child: lv.node.ID()}).Encode(false)},
		{Type: wal.RecInternalEntryAdd, Pg: rootF.ID(), Body: (&page.Entry{Pred: lv.sibBP, Child: lv.sib.ID()}).Encode(false)},
	} {
		if err := o.logApply(rec, rootF); err != nil {
			return err
		}
	}
	if err := o.logApply(&wal.Record{Type: wal.RecRootChange, Pg: t.anchor, Pg2: rootF.ID(), OldRight: lv.node.ID()}, t.anchorF); err != nil {
		return err
	}
	t.Stats.RootSplits.Add(1)
	return nil
}

// writeParentUpdates logs and applies the two parent changes of a planned
// split level on parentF: Internal-Entry-Update for the node's entry (when
// its predicate changes) and Internal-Entry-Add for the sibling. Each marks
// the parent dirty at its own LSN, so a clean parent's recLSN is the first
// of them.
func (o *op) writeParentUpdates(parentF *buffer.Frame, lv splitLevel) error {
	if !bytes.Equal(lv.oldPred, lv.bp) {
		if err := o.logApply(&wal.Record{
			Type:    wal.RecInternalEntryUpdate,
			Pg:      parentF.ID(),
			Pg2:     lv.node.ID(),
			Body:    lv.bp,
			OldBody: lv.oldPred,
		}, parentF); err != nil {
			return fmt.Errorf("gist: tighten parent entry: %w", err)
		}
	}
	add := page.Entry{Pred: lv.sibBP, Child: lv.sib.ID()}
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
	if coveredParent(childF, stack) {
		return nil
	}
	parentF, slot, ownPin, err := o.ascendToParent(stack, childF.ID(), childF.Page.Level())
	if err != nil {
		return err
	}
	if parentF == nil {
		return nil // child is the root: no parent entry to expand
	}
	oldPred, _ := parentF.Page.PredAt(slot)
	merged := t.ops.Union(oldPred, pred)
	if bytes.Equal(merged, oldPred) {
		// Ancestor already covers the key: expansion stops (§2).
		o.releaseParent(parentF, ownPin)
		return nil
	}

	// Recurse upward first so updates apply top-down on unwind.
	var upStack []pathEntry
	if len(stack) > 0 {
		upStack = stack[:len(stack)-1]
	}
	if err := o.propagateBP(parentF, merged, upStack); err != nil {
		o.releaseParent(parentF, ownPin)
		return err
	}

	// This level's update is one redo-only record: an atomic action that
	// needs no nested top action, since its undo does nothing.
	if err := o.logParentUpdate(parentF, slot, childF.ID(), merged); err != nil {
		o.releaseParent(parentF, ownPin)
		return fmt.Errorf("gist: BP update on %d: %w", parentF.ID(), err)
	}
	t.Stats.BPUpdates.Add(1)

	// Percolate predicates newly consistent with the child's grown BP,
	// tested against the widened entry: it covers that BP, so the test
	// is conservative.
	t.preds.Percolate(parentF.ID(), childF.ID(), func(p *predicate.Predicate) bool {
		return p.Kind == predicate.Search && t.ops.Consistent(merged, p.Data)
	})
	o.releaseParent(parentF, ownPin)
	return nil
}

// coveredParent reports whether the entry the descent followed into the
// X-latched childF still covers the key, without latching the parent: the
// descent found it covering at the version it recorded, and the parent's
// latch has not been taken in X since. Then the entry needs no widening,
// and it cannot shrink before the key is installed: every shrink of a
// parent entry (shrinkParentBP, a split's tightening, node deletion) holds
// the child's X latch, which the caller keeps until then. Widening only
// grows the entry, and a split of the parent moves it unchanged. A move
// along the leaf chain, a split or a passing-through shrink fails the test
// (another child, or a new version), and the parent is latched as before.
func coveredParent(childF *buffer.Frame, stack []pathEntry) bool {
	if len(stack) == 0 {
		return false
	}
	top := &stack[len(stack)-1]
	return top.covered && top.child == childF.ID() && top.f.Latch.Validate(top.ver)
}

// releaseParent unlatches a parent that ascendToParent X-latched,
// unpinning it if the ascent pinned it.
func (o *op) releaseParent(f *buffer.Frame, ownPin bool) {
	o.unlatchPage(f, latch.X)
	if ownPin {
		o.t.pool.Unpin(f, false, 0)
	}
}
