package gist

import (
	"fmt"

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

// apply performs a logged record's page effect on each X-latched frame by
// its redo action, which stamps the pageLSN, and marks the frame dirty at
// the record's LSN — its first record if the frame was clean, as the
// checkpoint's dirty page table needs. Structure modifications, garbage
// collection and rollback change tree pages only here, so restart redo and
// replica apply rebuild exactly the images the forward path wrote.
func (t *Tree) apply(rec *wal.Record, frames ...*buffer.Frame) error {
	for _, f := range frames {
		if err := Redo(rec, &f.Page, f.ID()); err != nil {
			return err
		}
		t.pool.MarkDirty(f, rec.LSN)
	}
	return nil
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
		if slot := p.FindChild(r.Pg2); slot >= 0 {
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
