// Package heap implements the heap file holding the data records that the
// index's RIDs point at. The paper treats data records as "stored elsewhere
// in the database"; this package is that elsewhere, so that the repository
// is a complete, recoverable system: heap updates are write-ahead logged,
// undone on rollback, and redone at restart alongside the index.
//
// Records never move: a RID (page, slot) is stable for the record's
// lifetime because deletion kills the slot in place rather than compacting
// the directory. That stability is what lets the tree use RIDs as lock
// names and as leaf-entry payloads.
package heap

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrNoRecord is returned when reading a RID whose slot is dead or absent.
var ErrNoRecord = errors.New("heap: no record at RID")

// File is a heap file: an unordered collection of variable-length records
// on pages drawn from the shared buffer pool.
type File struct {
	pool *buffer.Pool

	mu    sync.Mutex
	pages []page.PageID // pages owned by this heap, for insert placement

	// pending holds slots killed by transactions that have not finished
	// yet. Such a slot must not be resurrected for a new record: until the
	// deleter's commit is durable its rollback — at runtime or as a restart
	// loser — restores the old record into the slot, and a reuse in the
	// meantime would leave two leaf entries claiming one RID. Entries are
	// cleared by TxnFinished; a missed notification only delays reuse.
	pending map[page.RID]page.TxnID
}

// New creates an empty heap file over pool.
func New(pool *buffer.Pool) *File {
	return &File{pool: pool, pending: make(map[page.RID]page.TxnID)}
}

// TxnFinished releases the slots whose deletes were pinned by tx; its commit
// or abort is complete, so they are free for reuse.
func (h *File) TxnFinished(id page.TxnID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for rid, owner := range h.pending {
		if owner == id {
			delete(h.pending, rid)
		}
	}
}

// RegisterUndo installs the heap's runtime rollback handlers on the
// transaction manager.
func (h *File) RegisterUndo(tm *txn.Manager) {
	tm.RegisterUndo(wal.RecHeapInsert, h.undoInsert)
	tm.RegisterUndo(wal.RecHeapDelete, h.undoDelete)
}

// NotePage adds a page to the insert-placement list (used after restart to
// re-adopt surviving heap pages discovered in the log).
func (h *File) NotePage(id page.PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.pages {
		if p == id {
			return
		}
	}
	h.pages = append(h.pages, id)
}

// Pages returns the pages currently used for insert placement.
func (h *File) Pages() []page.PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]page.PageID(nil), h.pages...)
}

// Insert stores rec and returns its RID. The insert is logged in tx's
// backchain so that rollback removes it.
func (h *File) Insert(tx *txn.Txn, rec []byte) (page.RID, error) {
	return h.InsertCtx(nil, tx, rec)
}

// InsertCtx is Insert honoring ctx while waiting for the record's page to
// become available in the buffer pool. A nil ctx never cancels. The page
// allocation NTA, once begun, runs to completion regardless of ctx.
func (h *File) InsertCtx(ctx context.Context, tx *txn.Txn, rec []byte) (page.RID, error) {
	if len(rec) == 0 {
		return page.RID{}, errors.New("heap: empty record")
	}
	// Try existing pages, newest first (they are most likely to have
	// room); allocate a fresh page when none fits.
	h.mu.Lock()
	candidates := append([]page.PageID(nil), h.pages...)
	h.mu.Unlock()
	for i := len(candidates) - 1; i >= 0; i-- {
		rid, err := h.tryInsert(ctx, tx, candidates[i], rec)
		if err == nil {
			return rid, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			return page.RID{}, err
		}
	}
	f, err := h.pool.NewPage(0)
	if err != nil {
		return page.RID{}, err
	}
	f.Page.SetFlags(page.FlagHeap)
	id := f.ID()
	// Page allocation is a structure modification: make it permanent
	// immediately via a nested top action so a later rollback of tx does
	// not try to undo updates by other transactions sharing the page.
	if err := tx.BeginNTA(); err != nil {
		h.pool.Discard(f)
		return page.RID{}, err
	}
	lsn := tx.Log(&wal.Record{Type: wal.RecGetPage, Pg: id, Level: 0})
	f.Page.SetLSN(lsn)
	tx.EndNTA()
	h.pool.Unpin(f, true, lsn)
	// Publish the page for placement only after this record is in it: a
	// concurrent inserter that found it empty could otherwise fill it
	// first and leave this insert with page.ErrPageFull.
	rid, err := h.tryInsert(ctx, tx, id, rec)
	h.mu.Lock()
	h.pages = append(h.pages, id)
	h.mu.Unlock()
	return rid, err
}

// tryInsert attempts the insert on one page.
func (h *File) tryInsert(ctx context.Context, tx *txn.Txn, id page.PageID, rec []byte) (page.RID, error) {
	f, err := h.pool.FetchCtx(ctx, id)
	if err != nil {
		return page.RID{}, err
	}
	f.Latch.Acquire(latch.X)
	// A slot with a pending delete may be reused only by the deleter
	// itself: backward undo then kills the reuse before restoring the old
	// record, so the order stays reversible.
	reusable := func(slot int) bool {
		h.mu.Lock()
		owner, pend := h.pending[page.RID{Page: id, Slot: uint16(slot)}]
		h.mu.Unlock()
		return !pend || owner == tx.ID()
	}
	var slot int
	if dead := f.Page.FindDeadSlot(); dead >= 0 && reusable(dead) && f.Page.FreeSpaceAfterCompaction()+4 >= len(rec) {
		if err := f.Page.ResurrectSlot(dead, rec); err != nil {
			f.Latch.Release(latch.X)
			h.pool.Unpin(f, false, 0)
			return page.RID{}, err
		}
		slot = dead
	} else {
		slot, err = f.Page.InsertBytes(rec)
		if err != nil {
			f.Latch.Release(latch.X)
			h.pool.Unpin(f, false, 0)
			return page.RID{}, err
		}
	}
	rid := page.RID{Page: id, Slot: uint16(slot)}
	lsn := tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: id, RID: rid, Body: rec})
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	return rid, nil
}

// Read returns a copy of the record at rid.
func (h *File) Read(rid page.RID) ([]byte, error) {
	return h.ReadCtx(nil, rid)
}

// ReadCtx is Read honoring ctx while waiting for the page frame.
func (h *File) ReadCtx(ctx context.Context, rid page.RID) ([]byte, error) {
	f, err := h.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return nil, err
	}
	f.Latch.Acquire(latch.S)
	b, err := f.Page.SlotBytes(int(rid.Slot))
	var out []byte
	if err == nil {
		out = append([]byte(nil), b...)
	}
	f.Latch.Release(latch.S)
	h.pool.Unpin(f, false, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return out, nil
}

// Delete removes the record at rid, logged for rollback.
func (h *File) Delete(tx *txn.Txn, rid page.RID) error {
	return h.DeleteCtx(nil, tx, rid)
}

// DeleteCtx is Delete honoring ctx while waiting for the page frame. Once
// the frame is latched the kill-and-log step is not interruptible (it is a
// single logged page update; rollback undoes it).
func (h *File) DeleteCtx(ctx context.Context, tx *txn.Txn, rid page.RID) error {
	f, err := h.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	b, err := f.Page.SlotBytes(int(rid.Slot))
	if err != nil {
		f.Latch.Release(latch.X)
		h.pool.Unpin(f, false, 0)
		return fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	old := append([]byte(nil), b...)
	if err := f.Page.KillSlot(int(rid.Slot)); err != nil {
		f.Latch.Release(latch.X)
		h.pool.Unpin(f, false, 0)
		return err
	}
	lsn := tx.Log(&wal.Record{Type: wal.RecHeapDelete, Pg: rid.Page, RID: rid, Body: old})
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	h.mu.Lock()
	h.pending[rid] = tx.ID()
	h.mu.Unlock()
	return nil
}

// undoInsert rolls back a Heap-Insert by killing the slot again and writes
// the CLR carrying the compensation's redo information.
func (h *File) undoInsert(r *wal.Record, tx *txn.Txn) error {
	f, err := h.pool.Fetch(r.RID.Page)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if !f.Page.SlotDead(int(r.RID.Slot)) {
		if err := f.Page.KillSlot(int(r.RID.Slot)); err != nil {
			f.Latch.Release(latch.X)
			h.pool.Unpin(f, false, 0)
			return err
		}
	}
	lsn := tx.LogCLR(&wal.Record{Type: wal.RecHeapInsert, Pg: r.RID.Page, RID: r.RID}, r.PrevLSN)
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	return nil
}

// undoDelete rolls back a Heap-Delete by restoring the old record bytes.
func (h *File) undoDelete(r *wal.Record, tx *txn.Txn) error {
	f, err := h.pool.Fetch(r.RID.Page)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if f.Page.SlotDead(int(r.RID.Slot)) {
		if err := f.Page.ResurrectSlot(int(r.RID.Slot), r.Body); err != nil {
			f.Latch.Release(latch.X)
			h.pool.Unpin(f, false, 0)
			return err
		}
	}
	lsn := tx.LogCLR(&wal.Record{Type: wal.RecHeapDelete, Pg: r.RID.Page, RID: r.RID, Body: r.Body}, r.PrevLSN)
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	return nil
}

// Redo applies a heap log record (or heap CLR) to the page during restart
// redo. The caller has already checked pageLSN < r.LSN; Redo sets the
// pageLSN.
func Redo(r *wal.Record, p *page.Page) error {
	switch {
	case r.Type == wal.RecHeapInsert:
		if err := p.EnsureSlot(int(r.RID.Slot), r.Body); err != nil {
			return err
		}
	case r.Type == wal.RecHeapDelete:
		if !p.SlotDead(int(r.RID.Slot)) && int(r.RID.Slot) < p.NumSlots() {
			if err := p.KillSlot(int(r.RID.Slot)); err != nil {
				return err
			}
		}
	case r.Type == wal.RecHeapInsert|wal.ClrFlag:
		// Compensation of an insert: the slot dies.
		if !p.SlotDead(int(r.RID.Slot)) && int(r.RID.Slot) < p.NumSlots() {
			if err := p.KillSlot(int(r.RID.Slot)); err != nil {
				return err
			}
		}
	case r.Type == wal.RecHeapDelete|wal.ClrFlag:
		// Compensation of a delete: the record returns.
		if err := p.EnsureSlot(int(r.RID.Slot), r.Body); err != nil {
			return err
		}
	default:
		return fmt.Errorf("heap: Redo of unexpected record %v", r.Type)
	}
	p.SetLSN(r.LSN)
	return nil
}
