package gist

import (
	"fmt"

	"repro/internal/page"
	"repro/internal/wal"
)

// TouchesPage reports whether restart redo of r must be applied to pg.
// Split records touch two pages; everything else touches r.Pg only.
func TouchesPage(r *wal.Record, pg page.PageID) bool {
	switch r.Type.Base() {
	case wal.RecSplit:
		if r.Type.IsCLR() {
			return pg == r.Pg
		}
		return pg == r.Pg || pg == r.Pg2
	case wal.RecParentEntryUpdate, wal.RecInternalEntryAdd, wal.RecInternalEntryUpdate,
		wal.RecInternalEntryDelete, wal.RecAddLeafEntry, wal.RecMarkLeafEntry,
		wal.RecGarbageCollection, wal.RecGetPage, wal.RecFreePage, wal.RecRootChange:
		return pg == r.Pg
	default:
		return false
	}
}

// Redo applies the page-local effect of a tree log record (or CLR) during
// restart, implementing the redo column of Table 1. pg names which of the
// record's pages p is (a zeroed never-flushed image cannot say itself). The
// caller has verified pageLSN < r.LSN; Redo stamps the pageLSN. Redo
// actions are written to be idempotent against partially applied state.
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
			// Compensated deallocation: rebuild the empty node.
			p.Init(r.Pg, r.Level)
			p.SetNSN(r.OldNSN)
			p.SetRightlink(r.OldRight)
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
			for _, b := range r.Moved {
				if slot := p.FindBody(b); slot >= 0 {
					p.DeleteSlot(slot)
				}
			}
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

	case wal.RecParentEntryUpdate:
		// Redo-only: "update BP in corresponding slot in parent".
		if slot := p.FindChild(r.Pg2); slot >= 0 {
			if err := p.ReplaceEntry(slot, page.Entry{Pred: r.Body, Child: r.Pg2}); err != nil {
				return err
			}
		}

	case wal.RecInternalEntryAdd:
		if clr {
			if slot := p.FindBody(r.Body); slot >= 0 {
				p.DeleteSlot(slot)
			}
		} else if p.FindBody(r.Body) < 0 {
			if _, err := p.InsertBytes(r.Body); err != nil {
				return err
			}
		}

	case wal.RecInternalEntryUpdate:
		// Forward: set to Body; CLR already carries the restored value
		// in Body as well (undoInternalEntryUpdate swaps the fields).
		if slot := p.FindChild(r.Pg2); slot >= 0 {
			if err := p.ReplaceEntry(slot, page.Entry{Pred: r.Body, Child: r.Pg2}); err != nil {
				return err
			}
		}

	case wal.RecInternalEntryDelete:
		if clr {
			if p.FindBody(r.Body) < 0 {
				if _, err := p.InsertBytes(r.Body); err != nil {
					return err
				}
			}
		} else if slot := p.FindBody(r.Body); slot >= 0 {
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
		for _, b := range r.Moved {
			if slot := p.FindBody(b); slot >= 0 {
				p.DeleteSlot(slot)
			}
		}

	case wal.RecRootChange:
		root := r.Pg2
		if clr {
			// undoRootChange already swapped Pg2/OldRight, so the
			// CLR's forward action is the same shape.
			root = r.Pg2
		}
		if err := p.EnsureSlot(0, anchorBody(root)); err != nil {
			return err
		}

	default:
		return fmt.Errorf("gist: Redo of unexpected record %v", r.Type)
	}
	p.SetLSN(r.LSN)
	return nil
}
