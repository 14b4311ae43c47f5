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
// restart when a crash interrupted one. Either way the handler only builds
// and logs the CLR; the page change is the CLR's redo action (Table 1's
// undo column), applied through Tree.apply.
func (t *Tree) registerUndo() {
	tm := t.tm
	tm.RegisterUndo(wal.RecAddLeafEntry, t.undoLeafEntry)
	tm.RegisterUndo(wal.RecMarkLeafEntry, t.undoLeafEntry)
	for _, typ := range []wal.RecType{wal.RecSplit, wal.RecInternalEntryAdd, wal.RecInternalEntryUpdate,
		wal.RecInternalEntryDelete, wal.RecGetPage, wal.RecFreePage, wal.RecRootChange} {
		tm.RegisterUndo(typ, t.undoPage)
	}
	// Redo-only record types (Table 1): undo is a no-op.
	noop := func(*wal.Record, *txn.Txn) error { return nil }
	tm.RegisterUndo(wal.RecParentEntryUpdate, noop)
	tm.RegisterUndo(wal.RecGarbageCollection, noop)
}

// withPageX fetches and X-latches pg and runs fn. A CLR fn returns is
// logged as the compensation of r and applied to the page by its redo
// action, which stamps the page and marks it dirty.
func (t *Tree) withPageX(pg page.PageID, r *wal.Record, tx *txn.Txn, fn func(p *page.Page) *wal.Record) error {
	f, err := t.pool.Fetch(pg)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if clr := fn(&f.Page); clr != nil {
		tx.LogCLR(clr, r.PrevLSN)
		err = t.apply(clr, f)
	}
	f.Latch.Release(latch.X)
	t.pool.Unpin(f, false, 0)
	return err
}

// undoLeafEntry logically undoes a key insertion (the entry is removed) or
// a logical deletion (its mark is cleared). Between the original operation
// and the rollback the tree may have split arbitrarily, so the entry is
// found by walking the rightlink chain from the page recorded in the log.
// Its pages stay linked even once emptied: node deletion keeps a leaf
// while a live transaction may still undo through it (tryDeleteNode),
// which also holds at restart. No BP shrinking or node deletion is
// attempted — mandatory during restart (§9.2), and harmless to skip at
// runtime (a loose BP is always safe).
func (t *Tree) undoLeafEntry(r *wal.Record, tx *txn.Txn) error {
	e, err := page.DecodeEntry(r.Body, true)
	if err != nil {
		return err
	}
	marked := r.Type.Base() == wal.RecMarkLeafEntry
	for cur := r.Pg; cur != page.InvalidPage; {
		found := false
		err := t.withPageX(cur, r, tx, func(p *page.Page) *wal.Record {
			cur = p.Rightlink()
			if p.FindEntry(e.RID, e.Pred, marked) < 0 {
				return nil
			}
			found = true
			return &wal.Record{Type: r.Type, Pg: p.ID(), RID: e.RID, Body: r.Body}
		})
		if err != nil {
			return err
		}
		if found {
			if marked {
				t.Stats.Unmarks.Add(1)
			}
			return nil
		}
	}
	return fmt.Errorf("gist: undo could not locate entry %v from page %d", e.RID, r.Pg)
}

// undoPage undoes a structure-modification record page-oriented: its CLR
// names the same page and carries the record's fields, with the before and
// after values of an Internal-Entry-Update or Root-Change swapped so that
// the CLR's redo restores them. Undoing a Split moves the entries back and
// restores the original's NSN and rightlink; the sibling needs no content
// action (its Get-Page record's undo frees it). A page whose allocation is
// undone is quarantined behind the drain, exactly as for node deletion; a
// page whose deallocation is undone is allocated again first (a no-op
// unless its storage was given back) and is live again with its entries.
func (t *Tree) undoPage(r *wal.Record, tx *txn.Txn) error {
	clr := &wal.Record{Type: r.Type, Pg: r.Pg, Pg2: r.Pg2, Level: r.Level, Body: r.Body,
		OldNSN: r.OldNSN, OldRight: r.OldRight, Moved: r.Moved}
	switch r.Type {
	case wal.RecInternalEntryUpdate:
		clr.Body, clr.OldBody = r.OldBody, r.Body
	case wal.RecRootChange:
		clr.Pg2, clr.OldRight = r.OldRight, r.Pg2
	case wal.RecFreePage:
		if err := t.pool.EnsureAllocated(r.Pg); err != nil {
			return err
		}
	}
	err := t.withPageX(r.Pg, r, tx, func(*page.Page) *wal.Record { return clr })
	if err == nil && r.Type == wal.RecGetPage {
		t.drain(r.Pg)
	}
	return err
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
