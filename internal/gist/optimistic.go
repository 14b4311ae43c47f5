package gist

// Optimistic read path: node visits that would take the shared latch
// instead copy the page off the frame with no latch at all, validated by
// the latch's seqlock version word (latch.TryOptimistic / Validate). The
// NSN/rightlink machinery already makes readers tolerant of concurrent
// splits, so a reader needs no stronger guarantee than "these bytes were
// not mid-mutation" — exactly what version validation proves. A visit that
// keeps failing validation (a writer storm on the node) falls back to the
// pessimistic shared latch after Tree.optRetries consecutive failures, so
// worst-case behavior is the old behavior.
//
// Protocol invariants, in the order the code enforces them:
//
//  1. Search predicates are attached BEFORE the snapshot is captured
//     (the pessimistic path attaches under the latch). An inserter
//     installs its entry and attaches its own predicate under one X hold,
//     so it either bumps the version before our validation (we restart
//     and see the entry) or it finds our predicate and queues behind it —
//     no phantom window.
//
//  2. The tree-global counter is read INSIDE the validation window. A
//     child split between the copy and a later counter read could stamp
//     an NSN at or below the memorized value, and the moved entries would
//     be missed without a rightlink chase.
//
//  3. The copy is validated BEFORE anything is decoded from it: a torn
//     copy can hold garbage slot offsets that would panic the page
//     accessors.
//
//  4. Signaling locks on children (and chased rightlinks) are taken
//     BEFORE the final validation. A node deleter must X-latch the parent
//     to unlink a child — bumping the version — so a validation that
//     passes after our signal proves the child was still linked when the
//     deleter's TryLock probe could first have seen our lock missing.
//     Stray signals from failed attempts stay held until operation exit;
//     they are S node locks whose only cost is delaying a node delete.
//
//  5. Record state read off a leaf snapshot is only trusted after a
//     final re-validation: the record locks are granted after the copy,
//     so a writer (e.g. an inserter aborting, or a deleter aborting and
//     unmarking) may have slipped between copy and grant. Leaf results
//     are committed into the cursor inline (the same loop as the latched
//     scan) and rolled back if the re-validation fails — safe because
//     the cursor exposes nothing until the visit returns. Under
//     ReadCommitted each lock is an instant-duration probe that grants
//     nothing; under RepeatableRead the locks stay with the transaction
//     either way, so a retried visit re-grants them instantly.
//
// The buffer pool backs all of this by poisoning a frame's version when
// the frame is remapped to a different page (eviction/recycle ABA); visits
// additionally hold the frame pinned end to end, which already excludes
// remap — the poison is the fail-closed backstop.

import (
	"runtime"
	"sync"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/page"
)

// optScratch bundles an operation's optimistic-path scratch: the 8KB page
// snapshots are copied into plus the visit staging slices. Pooling the
// bundle across operations (not per cursor, which is born fresh on every
// search) is what makes the warm read path allocation-free.
type optScratch struct {
	snap page.Page
	push []stackEntry
}

// snapPool recycles optimistic-read scratch across operations.
var snapPool = sync.Pool{New: func() any { return new(optScratch) }}

// snapshotNode copies f's page into the operation's scratch page without
// latching and validates the copy (invariants 2 and 3 above). ok=false
// means an X holder interfered or the frame no longer caches the expected
// page; nothing about the scratch may be trusted then. On ok the returned
// version supports further Validate calls and ctr is the counter value a
// latched visit would have memorized.
func (o *op) snapshotNode(f *buffer.Frame, expect page.PageID) (snap *page.Page, v uint64, ctr page.LSN, ok bool) {
	if o.scratch == nil {
		o.scratch = snapPool.Get().(*optScratch)
	}
	snap = &o.scratch.snap
	v, ok = f.Latch.TryOptimistic()
	if !ok {
		o.optRestarts++
		return nil, 0, 0, false
	}
	ctr = o.t.counter()
	// Copy only the used regions: header + slot directory from the front,
	// entry bodies from freeEnd back. The bounds come from a racy read of
	// the header, so they may be garbage — UsedBounds clamps them to safe
	// copy ranges, and the validation below rejects the snapshot whenever
	// the header could have been torn. The uncopied middle is free space
	// on any consistent page, so no accessor ever reads the stale bytes
	// left there by a previous snapshot.
	src, dst := f.Page.Bytes(), snap.Bytes()
	latch.RacyCopy(dst[:page.HeaderSize], src[:page.HeaderSize])
	front, tail := snap.UsedBounds()
	latch.RacyCopy(dst[page.HeaderSize:front], src[page.HeaderSize:front])
	latch.RacyCopy(dst[tail:], src[tail:])
	if !f.Latch.Validate(v) || snap.ID() != expect {
		o.optRestarts++
		return nil, 0, 0, false
	}
	return snap, v, ctr, true
}

// optimisticRootID reads the root pointer off a validated snapshot of the
// permanently pinned anchor frame, falling back to the latched read when
// disabled or under contention (a root split holds the anchor exclusively).
// The common case never copies at all: the tree memoizes the last validated
// (anchor version, root) pair, and as long as the anchor's seqlock version
// still matches — no root change since, and the anchor frame never remaps —
// the cached pointer is proven current by the same argument as Validate.
func (o *op) optimisticRootID() (page.PageID, error) {
	t := o.t
	if !t.cfg.OptimisticReads {
		return t.rootID()
	}
	if v, ok := t.anchorF.Latch.TryOptimistic(); ok {
		if c := t.rootCache.Load(); c != nil && c.ver == v {
			o.optReads++
			return c.root, nil
		}
	}
	for attempt := 0; attempt <= t.optRetries; attempt++ {
		if attempt > 0 {
			runtime.Gosched()
		}
		snap, v, _, ok := o.snapshotNode(t.anchorF, t.anchor)
		if !ok {
			continue
		}
		root, err := anchorRootOf(snap)
		if err != nil {
			break // corrupt anchor: let the latched read report it
		}
		t.rootCache.Store(&rootCacheEntry{ver: v, root: root})
		o.optReads++
		return root, nil
	}
	o.optFallbacks++
	return t.rootID()
}

// visitOptimistic performs one cursor node visit without latching.
// handled=false means the visit must be redone under the pessimistic
// shared latch — the frame is still pinned and the caller falls through to
// the latched path. handled=true means the visit is complete (results
// staged, stack advanced, frame unpinned) or err is set.
func (c *Cursor) visitOptimistic(f *buffer.Frame, se stackEntry) (handled bool, err error) {
	t := c.t
	o := c.o
	if c.pred != nil {
		// Invariant 1: attach before snapshotting. Attach is idempotent,
		// so revisits and the pessimistic fallback re-attach harmlessly.
		ahead := t.preds.Attach(c.pred, se.pg, c.conflicts)
		if len(ahead) > 0 {
			t.pool.Unpin(f, false, 0)
			if err := o.blockOnPredicates(ahead); err != nil {
				return true, err
			}
			c.stack = append(c.stack, se)
			return true, nil
		}
	}
	for attempt := 0; attempt <= t.optRetries; attempt++ {
		if attempt > 0 {
			runtime.Gosched() // let the interfering writer finish
		}
		snap, v, ctr, ok := o.snapshotNode(f, se.pg)
		if !ok {
			continue
		}
		if snap.IsLeaf() {
			done, err := c.optLeafVisit(f, se, snap, v)
			if err != nil {
				return true, err
			}
			if done {
				return true, nil
			}
			continue // final validation failed; retry from a fresh copy
		}
		if c.optInternalVisit(f, se, snap, v, ctr) {
			return true, nil
		}
	}
	o.optFallbacks++
	return false, nil
}

// optLeafVisit scans a validated leaf snapshot with the same inner loop as
// the latched scanLeaf — results go straight into the cursor's pending set
// — and re-validates at the end (invariant 5). A failed re-validation rolls
// the visit's additions back (nothing external can have observed them: the
// cursor hands out results only after the visit returns) and the caller
// retries from a fresh snapshot; done=false signals that, with the frame
// still pinned. A record-lock conflict blocks exactly like the pessimistic
// path — drop the pin, wait for the lock, redo the visit — keeping the
// partial results only if the page re-validates at the conflict point, so
// every kept entry's lock was granted inside a validated window.
func (c *Cursor) optLeafVisit(f *buffer.Frame, se stackEntry, snap *page.Page, v uint64) (done bool, err error) {
	t := c.t
	o := c.o
	pendBase := len(c.pending)
	rollback := func() {
		for _, r := range c.pending[pendBase:] {
			delete(c.seen, r.RID)
		}
		c.pending = c.pending[:pendBase]
	}
	for i := 0; i < snap.NumSlots(); i++ {
		key, ok := snap.PredAt(i)
		if !ok || !t.ops.Consistent(key, c.query) {
			continue
		}
		rid, deleted := snap.LeafAt(i)
		if c.seen[rid] {
			continue
		}
		if !o.lockResult(rid, deleted, c.iso) {
			if !f.Latch.Validate(v) {
				rollback()
			}
			t.pool.Unpin(f, false, 0)
			if lerr := o.waitRecord(rid); lerr != nil {
				return true, lerr
			}
			c.stack = append(c.stack, se)
			return true, nil
		}
		if deleted {
			// The snapshot says dead and the record lock is free, so the
			// deleter terminated. If it aborted after our copy, the unmark
			// bumped the version and the validation below restarts us;
			// within a validated window the mark is trustworthy.
			continue
		}
		// A probed lock (ReadCommitted) only certifies that no writer was
		// active on the RID; the validation below vouches for the
		// snapshot across the whole window.
		c.pending = append(c.pending, SearchResult{Key: append([]byte(nil), key...), RID: rid})
		c.seen[rid] = true
	}
	rl := page.InvalidPage
	if snap.NSN() > se.nsn {
		if rl = snap.Rightlink(); rl != page.InvalidPage {
			o.signal(rl) // invariant 4: before the final validation
		}
	}
	if !f.Latch.Validate(v) {
		rollback()
		o.optRestarts++
		return false, nil
	}
	if rl != page.InvalidPage {
		c.stack = append(c.stack, stackEntry{pg: rl, nsn: se.nsn})
		t.Stats.RightlinkChases.Add(1)
	}
	o.releaseSignal(se.pg)
	t.pool.Unpin(f, false, 0)
	o.optReads++
	return true, nil
}

// optInternalVisit pushes the consistent children (and, on a missed split,
// the rightlink) of a validated internal-node snapshot. Children are
// signaled before the final validation (invariant 4); false means that
// validation failed and the visit should be retried (frame still pinned).
func (c *Cursor) optInternalVisit(f *buffer.Frame, se stackEntry, snap *page.Page, v uint64, ctr page.LSN) bool {
	t := c.t
	o := c.o
	push := o.scratch.push[:0] // pooled scratch; elements are copied into the stack
	chased := false
	if snap.NSN() > se.nsn {
		if rl := snap.Rightlink(); rl != page.InvalidPage {
			push = append(push, stackEntry{pg: rl, nsn: se.nsn})
			chased = true
		}
	}
	childNSN := ctr
	if t.cfg.ParentLSNOpt {
		childNSN = snap.LSN()
	}
	for i := 0; i < snap.NumSlots(); i++ {
		if pred, ok := snap.PredAt(i); ok && t.ops.Consistent(pred, c.query) {
			push = append(push, stackEntry{pg: snap.ChildAt(i), nsn: childNSN})
		}
	}
	for _, p := range push {
		o.signal(p.pg)
	}
	o.scratch.push = push
	if !f.Latch.Validate(v) {
		o.optRestarts++
		return false
	}
	if chased {
		t.Stats.RightlinkChases.Add(1)
	}
	c.stack = append(c.stack, push...)
	o.releaseSignal(se.pg)
	t.pool.Unpin(f, false, 0)
	o.optReads++
	return true
}

// descendOptimistic picks the minimal-penalty child of an internal node
// for the insert descent without latching it. ok=false means the caller
// must redo the visit pessimistically (frame still pinned): the node was
// missed-split (NSN past the memorized value → the latched bestInChain
// walk), unexpectedly a leaf, empty, or kept failing validation.
func (o *op) descendOptimistic(f *buffer.Frame, expect page.PageID, curNSN page.LSN, key []byte) (child page.PageID, slot int, next page.LSN, ok bool) {
	t := o.t
	for attempt := 0; attempt <= t.optRetries; attempt++ {
		if attempt > 0 {
			runtime.Gosched()
		}
		snap, v, ctr, sok := o.snapshotNode(f, expect)
		if !sok {
			continue
		}
		if snap.IsLeaf() || snap.NSN() > curNSN {
			// Not contention: protocol compensation (or the leaf target,
			// which the insert path always latches X). Not a fallback.
			return 0, 0, 0, false
		}
		bestSlot := t.minPenaltySlot(snap, key)
		if bestSlot < 0 {
			return 0, 0, 0, false // empty internal node: let the latched path report it
		}
		child = snap.ChildAt(bestSlot)
		next = ctr
		if t.cfg.ParentLSNOpt {
			next = snap.LSN()
		}
		o.signal(child) // invariant 4: before the final validation
		if !f.Latch.Validate(v) {
			o.optRestarts++
			continue
		}
		o.optReads++
		return child, bestSlot, next, true
	}
	o.optFallbacks++
	return 0, 0, 0, false
}
