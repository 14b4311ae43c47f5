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
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/page"
)

// optRetries is how many times a visit re-copies a node whose copy failed
// validation before it takes the shared latch instead.
const optRetries = 3

// maxSlots bounds the slot directory of any page: a slot past it would
// run off the page, so PredAt rejects it.
const maxSlots = (page.Size - page.HeaderSize) / page.SlotSize

// scratch is an operation's working memory for node visits: the 8KB page
// copies are taken into, the current visit's hit set (a bitset over
// slots), and what an order build works on — the bounds the visit's walk
// extracted (kept says the walk kept them), the sort's keys in two
// buffers and the order's arrays before they are published. scratchPool
// recycles it across operations (not per cursor, which is born fresh on
// every search), which keeps the warm read path allocation-free.
type scratch struct {
	page      page.Page
	hits      [(maxSlots + 63) / 64]uint64
	recs      []boundRec
	kept      bool
	keys, tmp []sortKey
	idx       []uint16
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch returns the operation's scratch, taking one from the pool on
// first use.
func (o *op) scratch() *scratch {
	if o.snap == nil {
		o.snap = scratchPool.Get().(*scratch)
	}
	return o.snap
}

// nodeView is one visit attempt's view of a pinned frame's page id: a
// validated private copy or, once the retry budget is spent, the frame's
// own page under the shared latch. ver is the seqlock version the copy
// validated at, or the (stable) version under the latch. ctr is the
// tree-global counter read inside the view's window.
type nodeView struct {
	f       *buffer.Frame
	p       *page.Page
	id      page.PageID
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
		ver, _ := f.Latch.TryOptimistic() // no X holder while S is held
		return nodeView{f: f, p: &f.Page, id: expect, ver: ver, ctr: o.t.counter(), latched: true}, true
	}
	if attempt > 0 {
		runtime.Gosched()
	}
	snap := &o.scratch().page
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
	src, dst := f.Page.Bytes(), snap.Bytes()
	latch.RacyCopy(dst[:page.HeaderSize], src[:page.HeaderSize])
	front, tail := snap.UsedBounds()
	latch.RacyCopy(dst[page.HeaderSize:front], src[page.HeaderSize:front])
	latch.RacyCopy(dst[tail:], src[tail:])
	if !f.Latch.Validate(ver) || snap.ID() != expect { // invariant 3
		o.optRestarts++
		return nodeView{}, false
	}
	return nodeView{f: f, p: snap, id: expect, ver: ver, ctr: ctr}, true
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

// matches is the one match step of a node visit: it marks in the
// operation's hit set the slots of v's page whose predicates are
// consistent with query, and returns the set's words up to the page's
// last slot. Callers read the hits in ascending slot order, so traversal,
// lock and result order do not depend on how the set was computed.
//
// With an Intervals extension and a current order on the frame (see
// buffer.Frame.Order), the step binary-searches the order for the first
// position whose running maximum upper bound reaches the query's lower
// bound — every slot before it ends below the query — and walks from
// there while the lower bound stays at or below the query's upper bound,
// keeping the slots whose upper bound reaches the query. That is exact
// for overlapping predicates too, and reads O(log n) predicates plus the
// ones it walks instead of n. Without a current order it tests every
// slot's bounds, and keeps them for learnOrder when the visit is the one
// that builds the order. An extension without the capability has
// Consistent called on every slot.
func (o *op) matches(v *nodeView, query []byte) []uint64 {
	p, sc, iv := v.p, o.scratch(), o.t.iv
	n := min(p.NumSlots(), maxSlots)
	hits := sc.hits[:(n+63)/64]
	clear(hits)
	sc.kept = false
	if iv == nil {
		for i := 0; i < n; i++ {
			if pred, ok := p.PredAt(i); ok && o.t.ops.Consistent(pred, query) {
				hits[i>>6] |= 1 << (i & 63)
			}
		}
		return hits
	}
	ord := v.f.Order.Load()
	if ord != nil && ord.ID == v.id && ord.Ver.Load() == v.ver {
		if _, ok := o.orderedMatches(p, ord, query, hits); ok {
			return hits
		}
		clear(hits)
	}
	keep := !v.latched && ord != nil && ord.Seen.Load() == v.ver
	recs := sc.recs[:0]
	qlo, qhi := iv.Bounds(query)
	for i := 0; i < n; i++ {
		pred, ok := p.PredAt(i)
		if !ok {
			continue
		}
		lo, hi := iv.Bounds(pred)
		if keep {
			recs = append(recs, boundRec{lo: lo, hi: hi, slot: uint16(i)})
		}
		if bytes.Compare(lo, qhi) <= 0 && bytes.Compare(qlo, hi) <= 0 {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	sc.recs, sc.kept = recs, keep
	return hits
}

// orderedMatches is matches' search over a current order. It returns
// end, the number of entries whose lower bound is at or below the query's
// upper bound: the walk stops at the first position past them. It reports
// false, leaving hits partly set, if a slot of the order is not live on
// p — impossible for an image of the order's version, and answered by the
// slot-by-slot walk all the same.
func (o *op) orderedMatches(p *page.Page, ord *buffer.SlotOrder, query []byte, hits []uint64) (end int, ok bool) {
	iv := o.t.iv
	qlo, qhi := iv.Bounds(query)
	lo, hi := 0, len(ord.MaxHi)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		pred, ok := p.PredAt(int(ord.MaxHi[m]))
		if !ok {
			return 0, false
		}
		if _, top := iv.Bounds(pred); bytes.Compare(top, qlo) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for end = lo; end < len(ord.Slots); end++ {
		s := ord.Slots[end]
		pred, ok := p.PredAt(int(s))
		if !ok {
			return 0, false
		}
		plo, phi := iv.Bounds(pred)
		if bytes.Compare(plo, qhi) > 0 {
			break
		}
		if bytes.Compare(phi, qlo) >= 0 {
			hits[s>>6] |= 1 << (s & 63)
		}
	}
	return end, true
}

// learnOrder runs when a visit that called matches, or the insert
// descent's chooseSubtree, has ended with its final valid() holding, so a
// copy view's copy is the page's image at v.ver. The first such visit at a version finds no current order and
// only stamps the version on the frame; the second builds the order from
// its copy and publishes it, and later visits at that version search it.
// Nothing is built inside a visit's optimistic window or under a latch (a
// latched view is skipped), and building only on the second visit keeps
// a node written between every two reads from paying for orders nobody
// uses.
func (o *op) learnOrder(v *nodeView) {
	if o.t.iv == nil || v.latched {
		return
	}
	ord := v.f.Order.Load()
	switch {
	case ord == nil:
		stamp := new(buffer.SlotOrder) // once per frame: later stamps reuse it
		stamp.Seen.Store(v.ver)
		v.f.Order.CompareAndSwap(nil, stamp)
	case ord.ID == v.id && ord.Ver.Load() == v.ver:
		// Current.
	case ord.Seen.CompareAndSwap(v.ver, v.ver|1):
		v.f.Order.Store(o.buildOrder(v))
	default:
		if seen := ord.Seen.Load(); seen < v.ver {
			ord.Seen.CompareAndSwap(seen, v.ver)
		}
	}
}

// boundRec is one live slot's bounds, extracted once per order build.
type boundRec struct {
	lo, hi []byte
	slot   uint16
}

// sortKey is a record's sort key: the first eight bytes of its lower
// bound as a big-endian integer, zero-padded, and the record's index.
type sortKey struct {
	k uint64
	i uint16
}

// prefix8 is b's first eight bytes as a big-endian integer, zero-padded;
// prefix8(a) < prefix8(b) implies bytes.Compare(a, b) < 0.
func prefix8(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var pad [8]byte
	copy(pad[:], b)
	return binary.BigEndian.Uint64(pad[:])
}

// buildOrder sorts the live slots of the copy view v by lower bound and
// computes the running maximum upper bound, from the bounds the visit's
// walk kept or, if it kept none, extracted here. The sort reads only
// those records: a radix sort on the lower bounds' eight-byte prefixes,
// then an insertion sort by the full bytes within each run of equal
// prefixes.
func (o *op) buildOrder(v *nodeView) *buffer.SlotOrder {
	p, sc := v.p, o.scratch()
	recs := sc.recs
	if !sc.kept {
		recs = recs[:0]
		for i, n := 0, min(p.NumSlots(), maxSlots); i < n; i++ {
			if pred, ok := p.PredAt(i); ok {
				lo, hi := o.t.iv.Bounds(pred)
				recs = append(recs, boundRec{lo: lo, hi: hi, slot: uint16(i)})
			}
		}
	}
	n := len(recs)
	keys := sc.keys[:0]
	for i := range recs {
		keys = append(keys, sortKey{k: prefix8(recs[i].lo), i: uint16(i)})
	}
	keys, sc.tmp = radixSort(keys, slices.Grow(sc.tmp[:0], n)[:n])
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[j-1].k == keys[j].k && bytes.Compare(recs[keys[j-1].i].lo, recs[keys[j].i].lo) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	// Slots and MaxHi go to the idx scratch first: on a node of points
	// (a leaf of keys) every slot is its own running maximum — ties move
	// the maximum to the later slot — and the two share one array.
	sc.idx = slices.Grow(sc.idx[:0], 2*n)[:2*n]
	slots, maxHi := sc.idx[:n], sc.idx[n:]
	points := true
	var top []byte
	var topSlot uint16
	for i, k := range keys {
		r := &recs[k.i]
		if i == 0 || bytes.Compare(r.hi, top) >= 0 {
			top, topSlot = r.hi, r.slot
		}
		slots[i], maxHi[i] = r.slot, topSlot
		points = points && topSlot == r.slot
	}
	ord := &buffer.SlotOrder{ID: v.id, LSN: p.LSN()}
	ord.Ver.Store(v.ver)
	if points {
		ord.Slots = slices.Clone(slots)
		ord.MaxHi = ord.Slots
	} else {
		idx := slices.Clone(sc.idx)
		ord.Slots, ord.MaxHi = idx[:n:n], idx[n:]
	}
	sc.recs, sc.keys, sc.kept = recs[:0], keys[:0], false
	return ord
}

// radixSort sorts keys by k, least significant byte first, using tmp (as
// long as keys) as the second buffer; it returns the sorted keys and the
// other buffer. A byte position where every key has the same byte is
// skipped.
func radixSort(keys, tmp []sortKey) (sorted, spare []sortKey) {
	if len(keys) < 2 {
		return keys, tmp
	}
	var counts [8][256]uint16
	for _, x := range keys {
		for b := range counts {
			counts[b][byte(x.k>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		if int(c[byte(keys[0].k>>(8*b))]) == len(keys) {
			continue
		}
		var sum uint16
		for d, m := range c {
			c[d] = sum
			sum += m
		}
		for _, x := range keys {
			d := byte(x.k >> (8 * b))
			tmp[c[d]] = x
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
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
		for w, word := range o.matches(&v, query) {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				stack = append(stack, stackEntry{pg: p.ChildAt(i), nsn: v.ctr})
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
		o.learnOrder(&v)
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
	for w, word := range o.matches(v, c.query) {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			key, rid, deleted, ok := p.LeafAt(i)
			if !ok || c.seen[rid] {
				continue
			}
			if !o.lockResult(rid, deleted, c.iso) {
				// A writer (inserter or logical deleter) holds the
				// record: Degree 3 requires waiting for it. The deleted
				// entry's physical presence is exactly what gives us
				// this chance to block (§7).
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
			// Lock granted instantly: within a valid window the entry
			// state is final for any terminated writer — a committed
			// delete leaves the mark set, an aborted delete has unmarked
			// it (and bumped the version of a copy taken before).
			if deleted {
				continue
			}
			c.pending = append(c.pending, SearchResult{Key: append([]byte(nil), key...), RID: rid})
			c.seen[rid] = true
		}
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
	o.learnOrder(v)
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
// cached in the pinned frame f (chooseSubtree). A node that split after
// its pointer was read sends the step to the latched bestInChain walk,
// which may settle on another node of the rightlink chain. It returns the
// path entry of the node whose entry it followed, still pinned, the child
// and the counter memorized for it. At the leaf's parent the entry also
// records whether the followed entry already covers key, and the view's
// version, so that phase 4 can leave an unchanged parent unlatched (see
// coveredParent).
func (o *op) descend(f *buffer.Frame, pg page.PageID, curNSN page.LSN, key []byte) (pe pathEntry, child page.PageID, next page.LSN, err error) {
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
				return pathEntry{}, 0, 0, err
			}
			ver, _ := best.Latch.TryOptimistic() // no X holder while S is held
			v = nodeView{f: best, p: &best.Page, id: best.ID(), ver: ver, ctr: t.counter(), latched: true}
		}
		slot, zero := o.chooseSubtree(&v, key)
		covered := false
		if slot >= 0 {
			child, next = v.p.ChildAt(slot), v.ctr
			if zero && v.p.Level() == 1 {
				pred, _ := v.p.PredAt(slot)
				covered = bytes.Equal(t.ops.Union(pred, key), pred)
			}
		}
		if !v.valid() {
			o.optRestarts++
			continue
		}
		o.learnOrder(&v)
		o.closeView(&v)
		if slot < 0 {
			t.pool.Unpin(v.f, false, 0)
			return pathEntry{}, 0, 0, fmt.Errorf("gist: internal node %d has no entries", v.f.ID())
		}
		return pathEntry{pg: v.f.ID(), f: v.f, slot: slot, child: child, ver: v.ver, covered: covered}, child, next, nil
	}
}

// chooseSubtree returns the slot of v's entry that the insert descent
// follows for key — the first entry of minimal Penalty, as minPenaltySlot
// finds it — and whether that penalty is 0. With an Intervals extension,
// a point key and a current order on the frame, it searches the order
// with the key as the query: by the Intervals contract the penalty-0
// entries are exactly the ones whose bounds contain the key, so the
// lowest slot the ordered walk reports is the first of them. When no
// entry contains the key, nearestSlot finds the nearest ones by binary
// search. Without a current order it walks every slot.
func (o *op) chooseSubtree(v *nodeView, key []byte) (slot int, zero bool) {
	sc := o.scratch()
	sc.kept = false // this visit keeps no bounds for learnOrder
	if iv := o.t.iv; iv != nil {
		ord := v.f.Order.Load()
		if lo, hi := iv.Bounds(key); ord != nil && ord.ID == v.id && ord.Ver.Load() == v.ver && bytes.Equal(lo, hi) {
			hits := sc.hits[:(min(v.p.NumSlots(), maxSlots)+63)/64]
			clear(hits)
			if end, ok := o.orderedMatches(v.p, ord, key, hits); ok {
				for w, word := range hits {
					if word != 0 {
						return w<<6 | bits.TrailingZeros64(word), true
					}
				}
				if slot, ok := o.nearestSlot(v.p, ord, key, end); ok {
					return slot, false
				}
			}
		}
	}
	slot, pen := o.t.minPenaltySlot(v.p, key)
	return slot, pen == 0
}

// nearestSlot is chooseSubtree's answer for a point key that no entry of
// the current order ord contains: minPenaltySlot's slot, found by binary
// search. The first i entries of the order have their lower bound at or
// below the key, so they all end below it; the rest start above it. By
// the Intervals contract the penalty of an entry that does not contain
// the key depends only on its bound nearer the key and does not fall as
// that bound moves away. So the minimal penalty p belongs to the greatest
// upper bound below the key (the running maximum MaxHi[i-1]) or to the
// least lower bound above it (Slots[i]). Above the key, the entries at p
// are a run from position i on. Below it, every entry before the first
// position whose running maximum costs p costs more, so that position,
// found by galloping back from i, starts the last stretch to check. Ties
// go to the lowest slot. It reports false when a slot of the order is not
// live on p or no penalty is finite, leaving the answer to the walk.
func (o *op) nearestSlot(p *page.Page, ord *buffer.SlotOrder, key []byte, i int) (slot int, ok bool) {
	ops := o.t.ops
	pen := func(s uint16) float64 {
		pred, live := p.PredAt(int(s))
		if !live {
			ok = false
			return math.NaN()
		}
		return ops.Penalty(pred, key)
	}
	ok = true
	n := len(ord.Slots)
	below, above := math.Inf(1), math.Inf(1)
	if i > 0 {
		below = pen(ord.MaxHi[i-1])
	}
	if i < n {
		above = pen(ord.Slots[i])
	}
	best := min(below, above)
	if !ok || !(best < math.Inf(1)) {
		return 0, false
	}
	slot = maxSlots
	if above == best {
		for j := i; j < n; j++ {
			if j > i && pen(ord.Slots[j]) != best {
				break
			}
			slot = min(slot, int(ord.Slots[j]))
		}
	}
	if below == best {
		// pen(MaxHi[j]) does not grow with j; find the first j < i at best.
		first, last := 0, i-1 // pen(MaxHi[last]) == best
		for step := 1; last-step >= 0; step *= 2 {
			if pen(ord.MaxHi[last-step]) != best {
				first = last - step + 1
				break
			}
			last -= step
		}
		for first < last {
			m := int(uint(first+last) >> 1)
			if pen(ord.MaxHi[m]) == best {
				last = m
			} else {
				first = m + 1
			}
		}
		for j := first; j < i; j++ {
			if s := ord.Slots[j]; int(s) < slot && pen(s) == best {
				slot = int(s)
			}
		}
	}
	return slot, ok
}
