package gist

// One node-visit core. Every read step of Figure 3 — a cursor or search
// visit, the delete locate loop and the insert descent's internal-node
// step — runs its logic once over a nodeView of a pinned frame, and
// acquiring the view is the only strategy-specific step. A view is
// normally a private copy of the page taken with no latch at all and
// validated by the latch's seqlock version word (latch.TryOptimistic /
// Validate). The NSN/rightlink machinery already makes readers tolerant of
// concurrent splits, so a reader needs no stronger guarantee than "these
// bytes were not mid-mutation" — exactly what version validation proves.
// A visit that keeps failing validation (a writer storm on the node) takes
// the shared latch after optRetries re-copies instead, and the view is the
// frame's own page, for which valid() is trivially true: worst-case
// behavior is the classic latched visit, per node.
//
// Both kinds of view follow one order, which the visit code enforces:
//
//  1. Search predicates are attached BEFORE the page is read. An inserter
//     installs its entry and attaches its own predicate under one X hold,
//     so it either bumps the version before our validation (we restart
//     and see the entry) or it finds our predicate and queues behind it —
//     no phantom window.
//
//  2. The tree-global counter is read INSIDE the view's window (after the
//     version is captured or the latch taken). A child split between the
//     copy and a later counter read could stamp an NSN at or below the
//     memorized value, and the moved entries would be missed without a
//     rightlink chase.
//
//  3. A copy is validated BEFORE anything is decoded from it: a torn copy
//     can hold garbage slot offsets that would panic the page accessors.
//     openView hands out validated copies only.
//
//  4. Record state read off a leaf view is only trusted after the final
//     valid(): the record locks are granted after the copy, so a writer
//     (e.g. an inserter aborting, or a deleter aborting and unmarking) may
//     have slipped between copy and grant. Leaf results are committed into
//     the cursor inline and rolled back if the final valid() fails — safe
//     because the cursor exposes nothing until the visit returns. On a
//     record-lock conflict the visit's additions are rolled back only if
//     !valid(); otherwise every kept entry's lock was granted inside a
//     valid window. Under ReadCommitted each lock is an instant-duration
//     probe that grants nothing; under RepeatableRead the locks stay with
//     the transaction either way, so a retried visit re-grants them
//     instantly.
//
// A child pointer or rightlink taken from a valid view stays safe to visit
// without any lock: node deletion unlinks only empty leaves, under the
// parent's X latch (so a valid view saw the link still in place), and the
// drain reuses no unlinked page before every transaction active at unlink
// time has ended. A late visitor finds an empty node whose NSN and
// rightlink are intact (§7.2).
//
// The buffer pool backs all of this by poisoning a frame's version when
// the frame is remapped to a different page (eviction/recycle ABA); visits
// additionally hold the frame pinned end to end, which already excludes
// remap — the poison is the fail-closed backstop.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/page"
)

// optRetries is how many times a visit re-copies a node whose copy failed
// validation before it takes the shared latch instead.
const optRetries = 3

// snapPool recycles the 8KB pages copies are taken into across
// operations (not per cursor, which is born fresh on every search), which
// keeps the warm read path allocation-free.
var snapPool = sync.Pool{New: func() any { return new(page.Page) }}

// nodeView is one visit attempt's view of a pinned frame's page: a
// validated private copy (ver is the seqlock version it validated at) or,
// once the retry budget is spent, the frame's own page under the shared
// latch. ctr is the tree-global counter read inside the view's window.
type nodeView struct {
	f       *buffer.Frame
	p       *page.Page
	ver     uint64
	ctr     page.LSN
	latched bool
}

// valid reports whether everything read through the view so far is a
// consistent image of the node: always for a latched view, and for a copy
// while no X holder has entered the frame's latch since the copy was taken.
func (v *nodeView) valid() bool { return v.latched || v.f.Latch.Validate(v.ver) }

// openView acquires attempt's view of f, which must cache page expect.
// The first optRetries+1 attempts copy the page without latching (a
// runtime.Gosched before each retry lets the interfering writer finish);
// ok=false means the copy did not validate and the caller should make the
// next attempt. The attempt after those takes the shared latch and always
// succeeds.
func (o *op) openView(f *buffer.Frame, expect page.PageID, attempt int) (v nodeView, ok bool) {
	if attempt > optRetries {
		o.optFallbacks++
		o.latchPage(f, latch.S)
		return nodeView{f: f, p: &f.Page, ctr: o.t.counter(), latched: true}, true
	}
	if attempt > 0 {
		runtime.Gosched()
	}
	if o.snap == nil {
		o.snap = snapPool.Get().(*page.Page)
	}
	ver, ok := f.Latch.TryOptimistic()
	if !ok {
		o.optRestarts++
		return nodeView{}, false
	}
	ctr := o.t.counter() // invariant 2
	// Copy only the used regions: header + slot directory from the front,
	// entry bodies from freeEnd back. The bounds come from a racy read of
	// the header, so they may be garbage — UsedBounds clamps them to safe
	// copy ranges, and the validation below rejects the copy whenever the
	// header could have been torn. The uncopied middle is free space on
	// any consistent page, so no accessor ever reads the stale bytes left
	// there by a previous copy.
	src, dst := f.Page.Bytes(), o.snap.Bytes()
	latch.RacyCopy(dst[:page.HeaderSize], src[:page.HeaderSize])
	front, tail := o.snap.UsedBounds()
	latch.RacyCopy(dst[page.HeaderSize:front], src[page.HeaderSize:front])
	latch.RacyCopy(dst[tail:], src[tail:])
	if !f.Latch.Validate(ver) || o.snap.ID() != expect { // invariant 3
		o.optRestarts++
		return nodeView{}, false
	}
	return nodeView{f: f, p: o.snap, ver: ver, ctr: ctr}, true
}

// closeView ends a visit whose final valid() held: it releases a latched
// view's shared latch and counts a copy as an optimistic read.
func (o *op) closeView(v *nodeView) {
	if v.latched {
		o.unlatchPage(v.f, latch.S)
		return
	}
	o.optReads++
}

// rootID reads the root pointer through a view of the permanently pinned
// anchor frame. The common case never copies at all: the tree memoizes
// the last validated (anchor version, root) pair, and as long as the
// anchor's seqlock version still matches — no root change since, and the
// anchor frame never remaps — the cached pointer is proven current by the
// same argument as Validate.
func (o *op) rootID() (page.PageID, error) {
	t := o.t
	if ver, ok := t.anchorF.Latch.TryOptimistic(); ok {
		if c := t.rootCache.Load(); c != nil && c.ver == ver {
			o.optReads++
			return c.root, nil
		}
	}
	for attempt := 0; ; attempt++ {
		v, ok := o.openView(t.anchorF, t.anchor, attempt)
		if !ok {
			continue
		}
		root, err := anchorRootOf(v.p)
		if err == nil && !v.latched {
			t.rootCache.Store(&rootCacheEntry{ver: v.ver, root: root})
		}
		o.closeView(&v)
		return root, err
	}
}

// visitInternal is the internal-node step of Figure 3, shared by cursors
// and the delete locate loop. It pushes onto stack the node's rightlink,
// when the node split after its pointer was read, and every child whose
// predicate is consistent with query, memorizing the counter for each.
// It returns the grown stack with f's view closed and f unpinned.
func (o *op) visitInternal(f *buffer.Frame, se stackEntry, query []byte, stack []stackEntry) []stackEntry {
	t := o.t
	base := len(stack)
	for attempt := 0; ; attempt++ {
		v, ok := o.openView(f, se.pg, attempt)
		if !ok {
			continue
		}
		p := v.p
		chased := false
		if p.NSN() > se.nsn {
			if rl := p.Rightlink(); rl != page.InvalidPage {
				stack = append(stack, stackEntry{pg: rl, nsn: se.nsn})
				chased = true
			}
		}
		for i := 0; i < p.NumSlots(); i++ {
			if pred, ok := p.PredAt(i); ok && t.ops.Consistent(pred, query) {
				child := p.ChildAt(i)
				stack = append(stack, stackEntry{pg: child, nsn: v.ctr})
			}
		}
		if !v.valid() {
			o.optRestarts++
			stack = stack[:base]
			continue
		}
		if chased {
			t.Stats.RightlinkChases.Add(1)
		}
		o.closeView(&v)
		t.pool.Unpin(f, false, 0)
		return stack
	}
}

// visit performs one node visit of the cursor's traversal on the pinned
// frame f, which it unpins: the predicate is attached (blocking behind
// conflicting predicates ahead of it, then re-queueing the visit), an
// internal node pushes its consistent children, and a leaf is scanned
// into the cursor's pending results.
func (c *Cursor) visit(f *buffer.Frame, se stackEntry) error {
	t, o := c.t, c.o
	if c.pred != nil {
		// Invariant 1. Attach is idempotent, so revisits re-attach
		// harmlessly.
		if ahead := t.preds.Attach(c.pred, se.pg, c.conflicts); len(ahead) > 0 {
			t.pool.Unpin(f, false, 0)
			if err := o.blockOnPredicates(ahead); err != nil {
				return err
			}
			c.stack = append(c.stack, se)
			return nil
		}
	}
	// Level is immutable for a page id, so reading it off the frame
	// before taking a view is safe.
	if !f.Page.IsLeaf() {
		c.stack = o.visitInternal(f, se, c.query, c.stack)
		return nil
	}
	for attempt := 0; ; attempt++ {
		if v, ok := o.openView(f, se.pg, attempt); ok {
			if done, err := c.visitLeaf(&v, se); done {
				return err
			}
		}
	}
}

// visitLeaf collects the leaf view's entries consistent with the query
// into the cursor's pending results, skipping data RIDs already in seen so
// that rescans never duplicate results (footnote 9 of the paper).
// done=false means the final valid() failed: the scan's additions were
// rolled back and the caller retries with a new view (frame still
// pinned). done=true means the visit is complete — view closed, frame
// unpinned — or err is set. A record held by a writer is waited for with
// nothing latched or pinned, and the leaf is then revisited.
func (c *Cursor) visitLeaf(v *nodeView, se stackEntry) (done bool, err error) {
	t, o, p := c.t, c.o, v.p
	base := len(c.pending)
	for i := 0; i < p.NumSlots(); i++ {
		key, ok := p.PredAt(i)
		if !ok || !t.ops.Consistent(key, c.query) {
			continue
		}
		rid, deleted := p.LeafAt(i)
		if c.seen[rid] {
			continue
		}
		if !o.lockResult(rid, deleted, c.iso) {
			// A writer (inserter or logical deleter) holds the record:
			// Degree 3 requires waiting for it. The deleted entry's
			// physical presence is exactly what gives us this chance to
			// block (§7).
			if !v.valid() {
				c.rollback(base) // invariant 4
			}
			o.closeView(v)
			t.pool.Unpin(v.f, false, 0)
			if err := o.waitRecord(rid); err != nil {
				return true, err
			}
			c.stack = append(c.stack, se)
			return true, nil
		}
		// Lock granted instantly: within a valid window the entry state
		// is final for any terminated writer — a committed delete leaves
		// the mark set, an aborted delete has unmarked it (and bumped the
		// version of a copy taken before).
		if deleted {
			continue
		}
		c.pending = append(c.pending, SearchResult{Key: append([]byte(nil), key...), RID: rid})
		c.seen[rid] = true
	}
	if !v.valid() {
		c.rollback(base) // invariant 4
		o.optRestarts++
		return false, nil
	}
	if rl := p.Rightlink(); p.NSN() > se.nsn && rl != page.InvalidPage {
		c.stack = append(c.stack, stackEntry{pg: rl, nsn: se.nsn})
		t.Stats.RightlinkChases.Add(1)
	}
	o.closeView(v)
	t.pool.Unpin(v.f, false, 0)
	return true, nil
}

// rollback drops the pending results added since base.
func (c *Cursor) rollback(base int) {
	for _, r := range c.pending[base:] {
		delete(c.seen, r.RID)
	}
	c.pending = c.pending[:base]
}

// descend is the internal-node step of the insert descent (Figure 4's
// locateLeaf): it picks the minimal-penalty child of the internal node
// cached in the pinned frame f. A node that split after its pointer was
// read sends the step to the latched bestInChain walk, which may settle on
// another node of the rightlink chain. It returns the frame of the node
// whose entry it followed, still pinned, with the counter memorized for
// the child.
func (o *op) descend(f *buffer.Frame, pg page.PageID, curNSN page.LSN, key []byte) (at *buffer.Frame, slot int, child page.PageID, next page.LSN, err error) {
	t := o.t
	for attempt := 0; ; attempt++ {
		v, ok := o.openView(f, pg, attempt)
		if !ok {
			continue
		}
		if v.p.NSN() > curNSN {
			// Missed split(s): pick the minimal-penalty node in the
			// rightlink chain delimited by the memorized value.
			if !v.latched {
				o.latchPage(f, latch.S)
			}
			best, err := o.bestInChain(f, latch.S, curNSN, key)
			if err != nil {
				return nil, 0, 0, 0, err
			}
			v = nodeView{f: best, p: &best.Page, ctr: t.counter(), latched: true}
		}
		slot = t.minPenaltySlot(v.p, key)
		if slot >= 0 {
			child = v.p.ChildAt(slot)
			next = v.ctr
		}
		if !v.valid() {
			o.optRestarts++
			continue
		}
		o.closeView(&v)
		if slot < 0 {
			t.pool.Unpin(v.f, false, 0)
			return nil, 0, 0, 0, fmt.Errorf("gist: internal node %d has no entries", v.f.ID())
		}
		return v.f, slot, child, next, nil
	}
}
