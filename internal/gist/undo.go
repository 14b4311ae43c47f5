package gist

import (
	"fmt"

	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// registerUndo installs the tree's rollback handlers. Content-changing
// records (Add-Leaf-Entry, Mark-Leaf-Entry) are undone logically — the
// entry is re-located by walking rightlinks from the recorded page, because
// splits may have moved it since (§9.2). Structure-modification records are
// undone page-oriented; at runtime they are only ever reached when an SMO
// failed mid-flight (a completed SMO hides behind its dummy CLR), and at
// restart when a crash interrupted one.
func (t *Tree) registerUndo() {
	tm := t.tm
	tm.RegisterUndo(wal.RecAddLeafEntry, t.undoAddLeafEntry)
	tm.RegisterUndo(wal.RecMarkLeafEntry, t.undoMarkLeafEntry)
	tm.RegisterUndo(wal.RecSplit, t.undoSplit)
	tm.RegisterUndo(wal.RecInternalEntryAdd, t.undoInternalEntryAdd)
	tm.RegisterUndo(wal.RecInternalEntryUpdate, t.undoInternalEntryUpdate)
	tm.RegisterUndo(wal.RecInternalEntryDelete, t.undoInternalEntryDelete)
	tm.RegisterUndo(wal.RecGetPage, t.undoGetPage)
	tm.RegisterUndo(wal.RecFreePage, t.undoFreePage)
	tm.RegisterUndo(wal.RecRootChange, t.undoRootChange)
	// Redo-only record types (Table 1): undo is a no-op.
	noop := func(*wal.Record, *txn.Txn) error { return nil }
	tm.RegisterUndo(wal.RecParentEntryUpdate, noop)
	tm.RegisterUndo(wal.RecGarbageCollection, noop)
}

// withPageX fetches and X-latches a page, runs fn, and releases. fn returns
// the LSN to stamp (0 for no modification).
func (t *Tree) withPageX(pg page.PageID, fn func(p *page.Page) (page.LSN, error)) error {
	f, err := t.pool.Fetch(pg)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	lsn, ferr := fn(&f.Page)
	if lsn != 0 {
		f.Page.SetLSN(lsn)
	}
	f.Latch.Release(latch.X)
	t.pool.Unpin(f, lsn != 0, lsn)
	return ferr
}

// locateEntryForUndo walks the rightlink chain starting at the page
// recorded in the log until it finds the leaf currently holding the entry
// with the given RID. Between the original operation and the rollback the
// tree may have split arbitrarily, so the chain is the only reliable path
// back to the entry. Its pages stay linked even once emptied: node
// deletion keeps a leaf while a live transaction may still undo through it
// (tryDeleteNode), which also holds at restart.
func (t *Tree) locateEntryForUndo(start page.PageID, rid page.RID, pred []byte, deleted bool, fn func(p *page.Page, slot int) (page.LSN, error)) error {
	cur := start
	for cur != page.InvalidPage {
		found := false
		var next page.PageID
		err := t.withPageX(cur, func(p *page.Page) (page.LSN, error) {
			next = p.Rightlink()
			if slot := p.FindEntry(rid, pred, deleted); slot >= 0 {
				found = true
				return fn(p, slot)
			}
			return 0, nil
		})
		if err != nil {
			return err
		}
		if found {
			return nil
		}
		cur = next
	}
	return fmt.Errorf("gist: undo could not locate entry %v from page %d", rid, start)
}

// undoAddLeafEntry logically undoes a key insertion: locate the leaf now
// holding the entry and remove it physically. No BP shrinking or node
// deletion is attempted — mandatory during restart (§9.2), and harmless to
// skip at runtime (a loose BP is always safe).
func (t *Tree) undoAddLeafEntry(r *wal.Record, tx *txn.Txn) error {
	e, err := page.DecodeEntry(r.Body, true)
	if err != nil {
		return err
	}
	return t.locateEntryForUndo(r.Pg, e.RID, e.Pred, false, func(p *page.Page, slot int) (page.LSN, error) {
		if err := p.DeleteSlot(slot); err != nil {
			return 0, err
		}
		lsn := tx.LogCLR(&wal.Record{
			Type: wal.RecAddLeafEntry,
			Pg:   p.ID(),
			RID:  e.RID,
			Body: r.Body,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// undoMarkLeafEntry logically undoes a logical deletion: locate the entry
// and clear its deleted mark.
func (t *Tree) undoMarkLeafEntry(r *wal.Record, tx *txn.Txn) error {
	e, err := page.DecodeEntry(r.Body, true)
	if err != nil {
		return err
	}
	return t.locateEntryForUndo(r.Pg, e.RID, e.Pred, true, func(p *page.Page, slot int) (page.LSN, error) {
		if err := p.UnmarkDeleted(slot); err != nil {
			return 0, err
		}
		t.Stats.Unmarks.Add(1)
		lsn := tx.LogCLR(&wal.Record{
			Type: wal.RecMarkLeafEntry,
			Pg:   p.ID(),
			RID:  e.RID,
			Body: r.Body,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// undoSplit reverses an incomplete node split: the moved entries return to
// the original page and its NSN and rightlink are restored (Table 1). The
// new page needs no content action (its Get-Page record's undo frees it).
func (t *Tree) undoSplit(r *wal.Record, tx *txn.Txn) error {
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		for _, b := range r.Moved {
			if _, err := p.InsertBytes(b); err != nil {
				return 0, fmt.Errorf("gist: undo split reinsert: %w", err)
			}
		}
		p.SetNSN(r.OldNSN)
		p.SetRightlink(r.OldRight)
		lsn := tx.LogCLR(&wal.Record{
			Type:     wal.RecSplit,
			Pg:       r.Pg,
			Pg2:      r.Pg2,
			Level:    r.Level,
			OldNSN:   r.OldNSN,
			OldRight: r.OldRight,
			Moved:    r.Moved,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// undoInternalEntryAdd removes the added parent entry (matched by content).
func (t *Tree) undoInternalEntryAdd(r *wal.Record, tx *txn.Txn) error {
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		if slot := p.FindBody(r.Body); slot >= 0 {
			if err := p.DeleteSlot(slot); err != nil {
				return 0, err
			}
		}
		lsn := tx.LogCLR(&wal.Record{Type: wal.RecInternalEntryAdd, Pg: r.Pg, Body: r.Body}, r.PrevLSN)
		return lsn, nil
	})
}

// undoInternalEntryUpdate restores the old bounding predicate.
func (t *Tree) undoInternalEntryUpdate(r *wal.Record, tx *txn.Txn) error {
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		if slot := p.FindChild(r.Pg2); slot >= 0 {
			if err := p.ReplaceEntry(slot, page.Entry{Pred: r.OldBody, Child: r.Pg2}); err != nil {
				return 0, err
			}
		}
		lsn := tx.LogCLR(&wal.Record{
			Type:    wal.RecInternalEntryUpdate,
			Pg:      r.Pg,
			Pg2:     r.Pg2,
			Body:    r.OldBody,
			OldBody: r.Body,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// undoInternalEntryDelete reinstalls the removed parent entry.
func (t *Tree) undoInternalEntryDelete(r *wal.Record, tx *txn.Txn) error {
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		if p.FindBody(r.Body) < 0 {
			if _, err := p.InsertBytes(r.Body); err != nil {
				return 0, err
			}
		}
		lsn := tx.LogCLR(&wal.Record{Type: wal.RecInternalEntryDelete, Pg: r.Pg, Body: r.Body}, r.PrevLSN)
		return lsn, nil
	})
}

// undoGetPage marks an allocated page available again. Physical reuse is
// quarantined behind the drain, exactly as for node deletion.
func (t *Tree) undoGetPage(r *wal.Record, tx *txn.Txn) error {
	err := t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		p.SetFlags(p.Flags() | page.FlagDeallocated)
		lsn := tx.LogCLR(&wal.Record{Type: wal.RecGetPage, Pg: r.Pg, Level: r.Level}, r.PrevLSN)
		return lsn, nil
	})
	if err != nil {
		return err
	}
	t.drain(r.Pg)
	return nil
}

// undoFreePage marks a freed page unavailable (allocated) again and
// reconstructs its empty-node image (identity, level, NSN, rightlink) from
// the Free-Page record, since the deallocation may have discarded it.
func (t *Tree) undoFreePage(r *wal.Record, tx *txn.Txn) error {
	if err := t.pool.EnsureAllocated(r.Pg); err != nil {
		return err
	}
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		p.Init(r.Pg, r.Level)
		p.SetNSN(r.OldNSN)
		p.SetRightlink(r.OldRight)
		lsn := tx.LogCLR(&wal.Record{
			Type:     wal.RecFreePage,
			Pg:       r.Pg,
			Level:    r.Level,
			OldNSN:   r.OldNSN,
			OldRight: r.OldRight,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// undoRootChange swings the anchor back to the previous root.
func (t *Tree) undoRootChange(r *wal.Record, tx *txn.Txn) error {
	return t.withPageX(r.Pg, func(p *page.Page) (page.LSN, error) {
		if err := p.EnsureSlot(0, anchorBody(r.OldRight)); err != nil {
			return 0, err
		}
		lsn := tx.LogCLR(&wal.Record{
			Type:     wal.RecRootChange,
			Pg:       r.Pg,
			Pg2:      r.OldRight,
			OldRight: r.Pg2,
		}, r.PrevLSN)
		return lsn, nil
	})
}

// DrainQuarantine force-releases quarantined pages; callable only when no
// transaction can still reach them (the tree is quiesced, e.g. dropped).
func (t *Tree) DrainQuarantine() {
	t.qmu.Lock()
	pending := t.quarantine
	t.quarantine = nil
	t.qmu.Unlock()
	for _, pf := range pending {
		_ = t.pool.Deallocate(pf.pg)
	}
}
