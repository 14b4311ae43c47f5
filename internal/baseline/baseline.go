// Package baseline implements alternative concurrency-control protocols for
// the evaluation (experiment E8, validating the qualitative claim of §11
// and the [SC91]/[JS93] studies the paper cites): the paper's link protocol
// should dominate subtree-locking and coarse-grained protocols under
// concurrency, because it holds no latch during I/O and at most one node
// latch at a time.
//
// All three protocols share the same page format, buffer pool and extension
// methods, and omit transactions, logging and predicate locks alike, so the
// measured difference is purely the concurrency protocol:
//
//   - Coarse: one tree-wide reader/writer latch (the "lock the whole
//     index" strawman).
//   - Coupling: subtree latch-coupling in the style of Bayer/Schkolnick
//     [BS77]: searches hold a path of S latches while descending into each
//     consistent subtree; inserts X-latch-couple downward, retaining
//     latches on the scope of a possible split ("unsafe" full nodes).
//     Latches are held across I/Os by construction.
//   - Link: the paper's NSN/rightlink protocol with a tree-global atomic
//     counter, one latch at a time, never across an I/O.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/latch"
	"repro/internal/page"
)

// Protocol selects the concurrency-control scheme.
type Protocol int

// Protocols.
const (
	Coarse Protocol = iota
	Coupling
	Link
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Coarse:
		return "coarse"
	case Coupling:
		return "coupling"
	default:
		return "link"
	}
}

// Result is one search hit.
type Result struct {
	Key []byte
	RID page.RID
}

// Index is a non-transactional GiST with a pluggable concurrency protocol.
type Index struct {
	pool       *buffer.Pool
	ops        gist.Ops
	proto      Protocol
	maxEntries int

	// Tree-wide latch (Coarse) and root bookkeeping. rootMu guards the
	// root pointer for all protocols.
	treeLatch latch.Latch
	rootMu    sync.Mutex
	root      page.PageID

	// Tree-global counter for the Link protocol.
	counter atomic.Uint64

	// Instrumentation.
	LatchedIOs   atomic.Int64 // buffer misses while ≥1 latch held
	LatchlessIOs atomic.Int64
	Splits       atomic.Int64
	Chases       atomic.Int64
}

// New creates an empty index. maxEntries bounds node fanout (0 = byte
// space only).
func New(pool *buffer.Pool, ops gist.Ops, proto Protocol, maxEntries int) (*Index, error) {
	f, err := pool.NewPage(0)
	if err != nil {
		return nil, err
	}
	ix := &Index{pool: pool, ops: ops, proto: proto, maxEntries: maxEntries, root: f.ID()}
	pool.Unpin(f, true, 0)
	return ix, nil
}

// Protocol returns the index's protocol.
func (ix *Index) Protocol() Protocol { return ix.proto }

func (ix *Index) rootID() page.PageID {
	ix.rootMu.Lock()
	defer ix.rootMu.Unlock()
	return ix.root
}

// latchRoot returns the current root latched in the given mode. Without
// rightlinks (the coupling protocol) a traversal from a stale root would
// silently miss the subtrees split off it, so the root identity is
// re-verified after the latch is held; a concurrent root split between the
// read and the acquisition restarts the attempt.
func (ix *Index) latchRoot(mode latch.Mode, latched int) (*buffer.Frame, error) {
	for {
		id := ix.rootID()
		f, err := ix.fetch(id, latched)
		if err != nil {
			return nil, err
		}
		f.Latch.Acquire(mode)
		if ix.rootID() == id {
			return f, nil
		}
		f.Latch.Release(mode)
		ix.pool.Unpin(f, false, 0)
	}
}

// fetch pins a page, attributing any miss to the current latch depth.
func (ix *Index) fetch(id page.PageID, latched int) (*buffer.Frame, error) {
	f, missed, _, err := ix.pool.FetchExStats(nil, id)
	if err != nil {
		return nil, err
	}
	if missed {
		if latched > 0 {
			ix.LatchedIOs.Add(1)
		} else {
			ix.LatchlessIOs.Add(1)
		}
	}
	return f, nil
}

func (ix *Index) needsSplit(p *page.Page, encLen int) bool {
	if ix.maxEntries > 0 && p.NumSlots() >= ix.maxEntries {
		return true
	}
	return p.FreeSpaceAfterCompaction() < encLen
}

func (ix *Index) computedBP(p *page.Page) []byte {
	var bp []byte
	for i := 0; i < p.NumSlots(); i++ {
		e, err := p.Entry(i)
		if err != nil {
			continue
		}
		bp = ix.ops.Union(bp, e.Pred)
	}
	return bp
}

// Search returns all entries consistent with query.
func (ix *Index) Search(query []byte) ([]Result, error) {
	switch ix.proto {
	case Coarse:
		ix.treeLatch.Acquire(latch.S)
		defer ix.treeLatch.Release(latch.S)
		var out []Result
		err := ix.searchUnlatched(ix.rootID(), query, &out)
		return out, err
	case Coupling:
		var out []Result
		f, err := ix.latchRoot(latch.S, 0)
		if err != nil {
			return nil, err
		}
		err = ix.searchCoupled(f, query, &out, 1)
		return out, err
	default:
		return ix.searchLink(query)
	}
}

// searchUnlatched descends without per-node latches (the coarse tree latch
// already excludes writers).
func (ix *Index) searchUnlatched(pg page.PageID, query []byte, out *[]Result) error {
	f, err := ix.fetch(pg, 1) // the tree latch counts as held
	if err != nil {
		return err
	}
	defer ix.pool.Unpin(f, false, 0)
	if f.Page.IsLeaf() {
		for i := 0; i < f.Page.NumSlots(); i++ {
			e, err := f.Page.Entry(i)
			if err != nil {
				continue
			}
			if ix.ops.Consistent(e.Pred, query) {
				*out = append(*out, Result{Key: append([]byte(nil), e.Pred...), RID: e.RID})
			}
		}
		return nil
	}
	for i := 0; i < f.Page.NumSlots(); i++ {
		e, err := f.Page.Entry(i)
		if err != nil {
			continue
		}
		if ix.ops.Consistent(e.Pred, query) {
			if err := ix.searchUnlatched(e.Child, query, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchCoupled holds the S latch on f while visiting each consistent
// child — the subtree-locking discipline. f arrives latched and pinned;
// both are released before return. depth counts latches currently held.
func (ix *Index) searchCoupled(f *buffer.Frame, query []byte, out *[]Result, depth int) error {
	defer func() {
		f.Latch.Release(latch.S)
		ix.pool.Unpin(f, false, 0)
	}()
	if f.Page.IsLeaf() {
		for i := 0; i < f.Page.NumSlots(); i++ {
			e, err := f.Page.Entry(i)
			if err != nil {
				continue
			}
			if ix.ops.Consistent(e.Pred, query) {
				*out = append(*out, Result{Key: append([]byte(nil), e.Pred...), RID: e.RID})
			}
		}
		return nil
	}
	for i := 0; i < f.Page.NumSlots(); i++ {
		e, err := f.Page.Entry(i)
		if err != nil {
			continue
		}
		if !ix.ops.Consistent(e.Pred, query) {
			continue
		}
		// Latch the child while still holding the parent: the I/O to
		// fetch the child happens with the parent latch held — the
		// structural cost of this protocol.
		cf, err := ix.fetch(e.Child, depth)
		if err != nil {
			return err
		}
		cf.Latch.Acquire(latch.S)
		if err := ix.searchCoupled(cf, query, out, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Insert adds (key, rid).
func (ix *Index) Insert(key []byte, rid page.RID) error {
	switch ix.proto {
	case Coarse:
		ix.treeLatch.Acquire(latch.X)
		defer ix.treeLatch.Release(latch.X)
		return ix.insertExclusive(key, rid)
	case Coupling:
		return ix.insertCoupled(key, rid)
	default:
		return ix.insertLink(key, rid)
	}
}

var errNoEntries = errors.New("baseline: internal node has no entries")

// insertExclusive runs under the coarse tree latch: plain recursive insert
// with splitting, no per-node latches.
func (ix *Index) insertExclusive(key []byte, rid page.RID) error {
	rootID := ix.rootID()
	moved, newChild, err := ix.insertRec(rootID, key, rid)
	if err != nil {
		return err
	}
	if moved != nil {
		return ix.growRoot(rootID, moved, newChild)
	}
	return nil
}

// insertRec inserts under pg; if pg split, it returns the new sibling's BP
// and id for the caller to install.
func (ix *Index) insertRec(pg page.PageID, key []byte, rid page.RID) ([]byte, page.PageID, error) {
	f, err := ix.fetch(pg, 1)
	if err != nil {
		return nil, 0, err
	}
	defer ix.pool.Unpin(f, true, 0)

	if f.Page.IsLeaf() {
		entry := page.Entry{Pred: key, RID: rid}
		if ix.needsSplit(&f.Page, entry.EncodedLen(true)) {
			sibBP, sibID, err := ix.splitPage(f)
			if err != nil {
				return nil, 0, err
			}
			// Place the key on the better half.
			target := f
			if ix.ops.Penalty(sibBP, key) < ix.ops.Penalty(ix.computedBP(&f.Page), key) {
				tf, err := ix.fetch(sibID, 1)
				if err != nil {
					return nil, 0, err
				}
				defer ix.pool.Unpin(tf, true, 0)
				target = tf
			}
			if _, err := target.Page.InsertEntry(entry); err != nil {
				return nil, 0, err
			}
			return ix.freshBP(sibID)
		}
		if _, err := f.Page.InsertEntry(entry); err != nil {
			return nil, 0, err
		}
		return nil, 0, nil
	}

	// Choose minimal-penalty branch.
	slot := ix.bestSlot(&f.Page, key)
	if slot < 0 {
		return nil, 0, errNoEntries
	}
	child := f.Page.MustEntry(slot).Child
	moved, newChild, err := ix.insertRec(child, key, rid)
	if err != nil {
		return nil, 0, err
	}
	// Expand the child's BP for the new key.
	e := f.Page.MustEntry(slot)
	merged := ix.ops.Union(e.Pred, key)
	if err := f.Page.ReplaceEntry(slot, page.Entry{Pred: merged, Child: child}); err != nil {
		return nil, 0, err
	}
	if moved == nil {
		return nil, 0, nil
	}
	// Install entry for the child's new sibling, splitting this node if
	// necessary. Recompute the original child's BP (entries moved away).
	cf, err := ix.fetch(child, 1)
	if err != nil {
		return nil, 0, err
	}
	childBP := ix.computedBP(&cf.Page)
	ix.pool.Unpin(cf, false, 0)
	if slot2 := f.Page.FindChild(child); slot2 >= 0 {
		f.Page.ReplaceEntry(slot2, page.Entry{Pred: childBP, Child: child})
	}
	add := page.Entry{Pred: moved, Child: newChild}
	if ix.needsSplit(&f.Page, add.EncodedLen(false)) {
		_, sibID, err := ix.splitPage(f)
		if err != nil {
			return nil, 0, err
		}
		// The child's entry may have moved to the sibling; install
		// next to it.
		target := f
		if f.Page.FindChild(child) < 0 {
			tf, err := ix.fetch(sibID, 1)
			if err != nil {
				return nil, 0, err
			}
			defer ix.pool.Unpin(tf, true, 0)
			target = tf
		}
		if _, err := target.Page.InsertEntry(add); err != nil {
			return nil, 0, err
		}
		return ix.freshBP(sibID)
	}
	if _, err := f.Page.InsertEntry(add); err != nil {
		return nil, 0, err
	}
	return nil, 0, nil
}

// freshBP returns the current computed BP of a page together with its id,
// in the shape insertRec reports a split with.
func (ix *Index) freshBP(pg page.PageID) ([]byte, page.PageID, error) {
	f, err := ix.fetch(pg, 1)
	if err != nil {
		return nil, 0, err
	}
	bp := ix.computedBP(&f.Page)
	ix.pool.Unpin(f, false, 0)
	return bp, pg, nil
}

// bestSlot returns the minimal-penalty entry index.
func (ix *Index) bestSlot(p *page.Page, key []byte) int {
	best, bestPenalty := -1, math.Inf(1)
	for i := 0; i < p.NumSlots(); i++ {
		e, err := p.Entry(i)
		if err != nil {
			continue
		}
		if pen := ix.ops.Penalty(e.Pred, key); pen < bestPenalty {
			bestPenalty, best = pen, i
		}
	}
	return best
}

// splitPage distributes f's entries to a new sibling (no rightlinks in the
// non-link protocols; the link protocol maintains them itself). Returns the
// sibling's BP and id.
func (ix *Index) splitPage(f *buffer.Frame) ([]byte, page.PageID, error) {
	leaf := f.Page.IsLeaf()
	n := f.Page.NumSlots()
	preds := make([][]byte, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			return nil, 0, err
		}
		bodies[i] = append([]byte(nil), b...)
		e, err := page.DecodeEntry(bodies[i], leaf)
		if err != nil {
			return nil, 0, err
		}
		preds[i] = e.Pred
	}
	stayIdx := ix.ops.PickSplit(preds)
	stay := make(map[int]bool, len(stayIdx))
	for _, i := range stayIdx {
		stay[i] = true
	}
	if len(stay) == 0 || len(stay) >= n {
		return nil, 0, fmt.Errorf("baseline: PickSplit kept %d of %d", len(stay), n)
	}
	sib, err := ix.pool.NewPage(f.Page.Level())
	if err != nil {
		return nil, 0, err
	}
	defer ix.pool.Unpin(sib, true, 0)
	f.Page.Reset()
	for i := 0; i < n; i++ {
		var target *page.Page
		if stay[i] {
			target = &f.Page
		} else {
			target = &sib.Page
		}
		if _, err := target.InsertBytes(bodies[i]); err != nil {
			return nil, 0, err
		}
	}
	ix.Splits.Add(1)
	return ix.computedBP(&sib.Page), sib.ID(), nil
}

// growRoot installs a new root above the old one after a root split.
func (ix *Index) growRoot(oldRoot page.PageID, sibBP []byte, sibID page.PageID) error {
	of, err := ix.fetch(oldRoot, 1)
	if err != nil {
		return err
	}
	oldBP := ix.computedBP(&of.Page)
	level := of.Page.Level()
	ix.pool.Unpin(of, false, 0)

	nf, err := ix.pool.NewPage(level + 1)
	if err != nil {
		return err
	}
	if _, err := nf.Page.InsertEntry(page.Entry{Pred: oldBP, Child: oldRoot}); err != nil {
		return err
	}
	if _, err := nf.Page.InsertEntry(page.Entry{Pred: sibBP, Child: sibID}); err != nil {
		return err
	}
	ix.rootMu.Lock()
	ix.root = nf.ID()
	ix.rootMu.Unlock()
	ix.pool.Unpin(nf, true, 0)
	return nil
}
