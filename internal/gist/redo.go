package gist

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/wal"
)

// Pages lists the pages whose images Redo of the tree record r changes, in
// the order redo applies it to them, or nil when r is not a tree record. A
// Split changes both of its pages and its CLR the original node only;
// every other tree record changes r.Pg.
func Pages(r *wal.Record) []page.PageID {
	switch r.Type.Base() {
	case wal.RecSplit:
		if r.Type.IsCLR() {
			return []page.PageID{r.Pg}
		}
		return []page.PageID{r.Pg, r.Pg2}
	case wal.RecParentEntryUpdate, wal.RecInternalEntryAdd, wal.RecInternalEntryUpdate,
		wal.RecInternalEntryDelete, wal.RecAddLeafEntry, wal.RecMarkLeafEntry,
		wal.RecGarbageCollection, wal.RecGetPage, wal.RecFreePage, wal.RecRootChange:
		return []page.PageID{r.Pg}
	default:
		return nil
	}
}

// logApply logs rec in the operation's transaction and applies it to the
// X-latched frames it touches (both pages of a Split).
func (o *op) logApply(rec *wal.Record, frames ...*buffer.Frame) error {
	o.tx.Log(rec)
	return o.t.apply(rec, frames...)
}

// logParentUpdate logs and applies a Parent-Entry-Update that sets the
// entry of child on the X-latched parentF to pred. slot is where the
// caller found that entry (ascendToParent's), which spares the apply its
// FindChild.
func (o *op) logParentUpdate(parentF *buffer.Frame, slot int, child page.PageID, pred []byte) error {
	rec := &wal.Record{Type: wal.RecParentEntryUpdate, Pg: parentF.ID(), Pg2: child, Body: pred}
	o.tx.Log(rec)
	return o.t.applyAt(rec, parentF, slot)
}

// apply performs a logged record's page effect on each X-latched frame by
// its redo action, which stamps the pageLSN, and marks the frame dirty at
// the record's LSN — its first record if the frame was clean, as the
// checkpoint's dirty page table needs. Structure modifications, garbage
// collection and rollback change tree pages only here, so restart redo and
// replica apply rebuild exactly the images the forward path wrote.
func (t *Tree) apply(rec *wal.Record, frames ...*buffer.Frame) error {
	for _, f := range frames {
		if err := t.applyAt(rec, f, -1); err != nil {
			return err
		}
	}
	return nil
}

// applyAt is apply on one frame, with the slot of the entry a
// Parent-Entry-Update changes when the caller knows it (-1 otherwise).
func (t *Tree) applyAt(rec *wal.Record, f *buffer.Frame, slot int) error {
	if err := t.carryOrder(rec, f, slot); err != nil {
		return err
	}
	t.pool.MarkDirty(f, rec.LSN)
	return nil
}

// carryOrder runs rec's redo action on the X-latched frame f and keeps the
// frame's slot order current across a Parent-Entry-Update that widens one
// entry, so a node widened by every append (the root and the leaf's parent,
// for ascending keys) does not lose its order each time. The order may be
// carried when it describes the image this X hold began with (its Ver is
// the held version's predecessor) or one an earlier widening of this hold
// carried (Ver is the release version, held+1), and no record has changed
// the page since (its LSN is the page's). Then the widened image keeps the
// order's Slots, and widenOrder says which running maxima change: the
// order is re-stamped in place with the release version when none do, and
// replaced by one with patched maxima otherwise. No view validates at the
// release version before the release, and one that loaded the order
// earlier validates at an older version, for which the arrays were right
// as well. A widening that moves the entry in the order or ties an upper
// bound is not carried. Then, and whenever a Parent-Entry-Update finds a
// read stamp (Seen) at the version the hold began with, the stamp moves to
// the release version, so the next visit builds an order. Any other
// record drops an order carried earlier in the hold, by stamping it with
// the held version, at which no view validates.
func (t *Tree) carryOrder(rec *wal.Record, f *buffer.Frame, slot int) error {
	p := &f.Page
	ord := f.Order.Load()
	if rec.Type == wal.RecParentEntryUpdate {
		slot = entrySlot(p, rec.Pg2, slot)
	}
	if ord == nil {
		return redo(rec, p, f.ID(), slot)
	}
	held, _ := f.Latch.TryOptimistic() // odd, and no view validates at it: the caller holds X
	ver := ord.Ver.Load()
	carried := ver == held+1
	if rec.Type == wal.RecParentEntryUpdate && t.iv != nil {
		if slot >= 0 && ord.ID == f.ID() && (carried || ver == held-1) && ord.LSN == p.LSN() {
			if maxHi, ok := t.widenOrder(p, ord, slot, rec.Body); ok {
				err := redo(rec, p, f.ID(), slot)
				switch {
				case err != nil:
					ord.Ver.Store(held)
				case maxHi == nil:
					ord.LSN = rec.LSN
					ord.Ver.Store(held + 1)
				default:
					next := &buffer.SlotOrder{ID: ord.ID, LSN: rec.LSN, Slots: ord.Slots, MaxHi: maxHi}
					next.Ver.Store(held + 1)
					ord.Ver.Store(held)
					f.Order.Store(next)
				}
				return err
			}
		}
		if carried || ver == held-1 || ord.Seen.Load() == held-1 {
			ord.Seen.Store(held + 1)
		}
	}
	if carried {
		ord.Ver.Store(held)
	}
	return redo(rec, p, f.ID(), slot)
}

// widenOrder reports whether the order ord, current for p, stays right
// for p once the entry in slot is set to pred, and returns the running
// maxima of that image when they differ from ord's (nil when they do not).
// That needs pred to widen the entry without moving it in the order (a
// lower bound that falls stays above the previous entry's) and without
// tying an upper bound it meets on the way up, which would make the later
// of the two the running maximum. The slot's position in the order is
// found by binary search on its old lower bound.
func (t *Tree) widenOrder(p *page.Page, ord *buffer.SlotOrder, slot int, pred []byte) (patched []uint16, ok bool) {
	iv := t.iv
	bounds := func(s uint16) (lo, hi []byte, ok bool) {
		pred, ok := p.PredAt(int(s))
		if !ok {
			return nil, nil, false
		}
		lo, hi = iv.Bounds(pred)
		return lo, hi, true
	}
	olo, ohi, live := bounds(uint16(slot))
	if !live {
		return nil, false
	}
	nlo, nhi := iv.Bounds(pred)
	clo, chi := bytes.Compare(nlo, olo), bytes.Compare(nhi, ohi)
	if clo > 0 || chi < 0 {
		return nil, false // not a widening: a shrink
	}
	// Entries with equal lower bounds are in slot order (buildOrder's sort
	// is stable), and a carried widening never makes two lower bounds equal.
	k, end := 0, len(ord.Slots)
	for k < end {
		m := int(uint(k+end) >> 1)
		s := ord.Slots[m]
		lo, _, ok := bounds(s)
		if !ok {
			return nil, false
		}
		if c := bytes.Compare(lo, olo); c < 0 || c == 0 && int(s) < slot {
			k = m + 1
		} else {
			end = m
		}
	}
	if k == len(ord.Slots) || int(ord.Slots[k]) != slot {
		return nil, false
	}
	if clo < 0 && k > 0 {
		if lo, _, ok := bounds(ord.Slots[k-1]); !ok || bytes.Compare(lo, nlo) >= 0 {
			return nil, false
		}
	}
	if chi == 0 {
		return nil, true
	}
	s := uint16(slot)
	for j := k; j < len(ord.MaxHi); j++ {
		m := ord.MaxHi[j]
		if m == s {
			continue
		}
		_, hi, ok := bounds(m)
		if !ok {
			return nil, false
		}
		c := bytes.Compare(hi, nhi)
		if c > 0 {
			break
		}
		if c == 0 {
			return nil, false
		}
		if patched == nil {
			patched = slices.Clone(ord.MaxHi)
		}
		patched[j] = s
	}
	return patched, true
}

// entrySlot returns the slot of p's entry for child: hint when it holds
// that entry, else FindChild's.
func entrySlot(p *page.Page, child page.PageID, hint int) int {
	if hint >= 0 && p.ChildAt(hint) == child {
		if _, ok := p.PredAt(hint); ok {
			return hint
		}
	}
	return p.FindChild(child)
}

// Redo applies the page-local effect of a tree log record (or CLR),
// implementing the redo column of Table 1. It is the one definition of
// each record's page change: the forward path (apply), runtime and restart
// rollback (their CLRs), restart redo and replica apply all run it. pg
// names which of the record's pages p is (a zeroed never-flushed image
// cannot say itself). The caller has verified pageLSN < r.LSN; Redo stamps
// the pageLSN. Redo actions are written to be idempotent against partially
// applied state.
func Redo(r *wal.Record, p *page.Page, pg page.PageID) error {
	return redo(r, p, pg, -1)
}

// redo is Redo with the slot of the entry an entry update changes, when
// the caller has found it (-1 otherwise).
func redo(r *wal.Record, p *page.Page, pg page.PageID, slot int) error {
	base := r.Type.Base()
	clr := r.Type.IsCLR()
	switch base {
	case wal.RecGetPage:
		if clr {
			p.SetFlags(p.Flags() | page.FlagDeallocated)
		} else {
			// "mark page as unavailable": format the fresh page.
			p.Init(r.Pg, r.Level)
		}

	case wal.RecFreePage:
		if clr {
			// Compensated deallocation: the node is live again, with
			// the entries it had. An image lost with the page's storage
			// (a replica gives a page back at its Free-Page) is rebuilt
			// as the empty node.
			if p.ID() != r.Pg {
				p.Init(r.Pg, r.Level)
				p.SetNSN(r.OldNSN)
				p.SetRightlink(r.OldRight)
			}
			p.SetFlags(p.Flags() &^ page.FlagDeallocated)
		} else {
			p.SetFlags(p.Flags() | page.FlagDeallocated)
		}

	case wal.RecSplit:
		if clr {
			// Compensation: the split is reversed on the original.
			for _, b := range r.Moved {
				if p.FindBody(b) < 0 {
					if _, err := p.InsertBytes(b); err != nil {
						return err
					}
				}
			}
			p.SetNSN(r.OldNSN)
			p.SetRightlink(r.OldRight)
			break
		}
		if pg == r.Pg {
			// Original page: moved entries leave; stamp new NSN.
			removeBodies(p, r.Moved)
			p.SetNSN(r.LSN)
			p.SetRightlink(r.Pg2)
		} else {
			// New sibling: fresh page receives the moved entries
			// plus the original's old NSN and rightlink.
			p.Init(r.Pg2, r.Level)
			for _, b := range r.Moved {
				if _, err := p.InsertBytes(b); err != nil {
					return err
				}
			}
			p.SetNSN(r.OldNSN)
			p.SetRightlink(r.OldRight)
		}

	case wal.RecParentEntryUpdate, wal.RecInternalEntryUpdate:
		// "Update BP in corresponding slot in parent". An Internal-Entry-
		// Update CLR carries the restored value in Body as well (undoPage
		// swaps the fields); Parent-Entry-Update is redo-only.
		if slot < 0 {
			slot = p.FindChild(r.Pg2)
		}
		if slot >= 0 {
			if err := p.ReplaceEntry(slot, page.Entry{Pred: r.Body, Child: r.Pg2}); err != nil {
				return err
			}
		}

	case wal.RecInternalEntryAdd, wal.RecInternalEntryDelete:
		// An add, or the compensation of a delete, installs the entry;
		// a delete, or the compensation of an add, removes it.
		slot := p.FindBody(r.Body)
		switch install := (base == wal.RecInternalEntryAdd) != clr; {
		case install && slot < 0:
			if _, err := p.InsertBytes(r.Body); err != nil {
				return err
			}
		case !install && slot >= 0:
			p.DeleteSlot(slot)
		}

	case wal.RecAddLeafEntry:
		e, err := page.DecodeEntry(r.Body, true)
		if err != nil {
			return err
		}
		if clr {
			if slot := p.FindEntry(e.RID, e.Pred, false); slot >= 0 {
				p.DeleteSlot(slot)
			}
		} else if p.FindEntry(e.RID, e.Pred, false) < 0 {
			if _, err := p.InsertBytes(r.Body); err != nil {
				return err
			}
		}

	case wal.RecMarkLeafEntry:
		// The logged body is the entry before marking (not deleted).
		e, err := page.DecodeEntry(r.Body, true)
		if err != nil {
			return err
		}
		if clr {
			if slot := p.FindEntry(e.RID, e.Pred, true); slot >= 0 {
				if err := p.UnmarkDeleted(slot); err != nil {
					return err
				}
			}
		} else if slot := p.FindEntry(e.RID, e.Pred, false); slot >= 0 {
			if err := p.MarkDeleted(slot, r.Txn); err != nil {
				return err
			}
		}

	case wal.RecGarbageCollection:
		// Redo-only: remove the recorded entries from the leaf.
		removeBodies(p, r.Moved)

	case wal.RecRootChange:
		// A CLR carries the restored root in Pg2 as well (undoPage
		// swaps Pg2 and OldRight).
		if err := p.EnsureSlot(0, anchorBody(r.Pg2)); err != nil {
			return err
		}

	default:
		return fmt.Errorf("gist: Redo of unexpected record %v", r.Type)
	}
	p.SetLSN(r.LSN)
	return nil
}

// removeBodies deletes one slot per listed body in a single pass from the
// high slot down, against a count of the bodies still to remove, so a
// split or garbage collection costs one scan of the node however many
// entries leave.
func removeBodies(p *page.Page, bodies [][]byte) {
	left := make(map[string]int, len(bodies))
	for _, b := range bodies {
		left[string(b)]++
	}
	for i := p.NumSlots() - 1; i >= 0 && len(left) > 0; i-- {
		b, err := p.SlotBytes(i)
		if err != nil {
			continue
		}
		switch n := left[string(b)]; n {
		case 0:
		case 1:
			delete(left, string(b))
			p.DeleteSlot(i)
		default:
			left[string(b)] = n - 1
			p.DeleteSlot(i)
		}
	}
}
