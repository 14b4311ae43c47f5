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
//
// Placement. free lists the pages that may have room, most recently added
// last; an insert tries the last one first. A page leaves the list when an
// insert finds it full and comes back when a finished delete may have freed
// space on it (TxnFinished), so an insert fetches O(1) pages in expectation
// however large the heap grows.
//
// Undo-space reservation. A delete kills its slot in place and turns the
// record's bytes into garbage, but until the deleter finishes, its rollback
// — at runtime or as a restart loser — must put the record back into the
// same slot. So the slot and the bytes stay reserved for the deleter: no
// other transaction may resurrect the slot, and no other transaction's
// insert may take the bytes, neither through compaction nor through a dead
// slot. The deleter itself may reuse them: backward undo removes that reuse
// before it restores the record. A new slot's directory entry is never
// returned by undo, so it always comes from unreserved space. Under these
// rules every undo of a delete finds its slot dead and at least the
// record's size free (see DESIGN.md), which makes rollback and restart
// undo infallible. A missed TxnFinished only withholds space from reuse.
type File struct {
	pool *buffer.Pool

	mu     sync.Mutex
	free   []page.PageID
	inFree map[page.PageID]bool

	owner   map[page.RID]page.TxnID            // dead slots whose deleter has not finished
	held    map[page.PageID]map[page.TxnID]int // reserved body bytes per page and deleter
	deletes map[page.TxnID][]page.RID          // each unfinished deleter's deletes
}

// New creates an empty heap file over pool.
func New(pool *buffer.Pool) *File {
	return &File{
		pool:    pool,
		inFree:  make(map[page.PageID]bool),
		owner:   make(map[page.RID]page.TxnID),
		held:    make(map[page.PageID]map[page.TxnID]int),
		deletes: make(map[page.TxnID][]page.RID),
	}
}

// TxnFinished ends the reservations of tx's deletes: its commit is durable
// or its abort complete, so the slots and bytes are free for reuse and
// their pages return to the placement list. It costs O(tx's deletes).
func (h *File) TxnFinished(id page.TxnID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rids, ok := h.deletes[id]
	if !ok {
		return
	}
	delete(h.deletes, id)
	for _, rid := range rids {
		if h.owner[rid] == id {
			delete(h.owner, rid)
		}
		if by := h.held[rid.Page]; by != nil {
			delete(by, id)
			if len(by) == 0 {
				delete(h.held, rid.Page)
			}
		}
		h.pushFree(rid.Page)
	}
}

// Pending returns the number of deletes whose deleter has not finished.
func (h *File) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, rids := range h.deletes {
		n += len(rids)
	}
	return n
}

// pushFree puts id on top of the placement list unless it is there.
// Caller holds h.mu.
func (h *File) pushFree(id page.PageID) {
	if !h.inFree[id] {
		h.inFree[id] = true
		h.free = append(h.free, id)
	}
}

// dropFree removes id from the placement list, searching from the top
// where an insert found it. Caller holds h.mu.
func (h *File) dropFree(id page.PageID) {
	if !h.inFree[id] {
		return
	}
	delete(h.inFree, id)
	for i := len(h.free) - 1; i >= 0; i-- {
		if h.free[i] == id {
			h.free = append(h.free[:i], h.free[i+1:]...)
			return
		}
	}
}

// RegisterUndo installs the heap's runtime rollback handlers on the
// transaction manager.
func (h *File) RegisterUndo(tm *txn.Manager) {
	tm.RegisterUndo(wal.RecHeapInsert, h.undoInsert)
	tm.RegisterUndo(wal.RecHeapDelete, h.undoDelete)
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
	if len(rec)+page.SlotSize > page.Size-page.HeaderSize {
		return page.RID{}, page.ErrTooLarge
	}
	// Try the placement list from the top; every miss drops a page, so
	// the list cannot be walked twice without new space appearing.
	for {
		h.mu.Lock()
		if len(h.free) == 0 {
			h.mu.Unlock()
			break
		}
		id := h.free[len(h.free)-1]
		h.mu.Unlock()
		rid, err := h.tryInsert(ctx, tx, id, rec)
		if err == nil {
			return rid, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			return page.RID{}, err
		}
		h.mu.Lock()
		h.dropFree(id)
		h.mu.Unlock()
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
	h.pushFree(id)
	h.mu.Unlock()
	return rid, err
}

// tryInsert attempts the insert on one page, within the space the page's
// reservations leave to tx; page.ErrPageFull means it does not fit.
func (h *File) tryInsert(ctx context.Context, tx *txn.Txn, id page.PageID, rec []byte) (page.RID, error) {
	f, err := h.pool.FetchCtx(ctx, id)
	if err != nil {
		return page.RID{}, err
	}
	f.Latch.Acquire(latch.X)
	slot, err := h.place(&f.Page, tx.ID(), rec)
	if err != nil {
		f.Latch.Release(latch.X)
		h.pool.Unpin(f, false, 0)
		return page.RID{}, err
	}
	rid := page.RID{Page: id, Slot: uint16(slot)}
	lsn := tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: id, RID: rid, Body: rec})
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	return rid, nil
}

// place stores rec on the X-latched page p for transaction id and returns
// its slot. The bytes reserved by other transactions' unfinished deletes
// stay free: a dead slot takes the body from p.Room() less those bytes,
// and a new slot additionally takes its directory entry from space no
// reservation, not even id's own, holds (undo never returns an entry).
func (h *File) place(p *page.Page, id page.TxnID, rec []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	by := h.held[p.ID()]
	others, all := 0, 0
	for t, n := range by {
		all += n
		if t != id {
			others += n
		}
	}
	room := p.Room()
	if room-len(rec) >= others {
		for i := 0; i < p.NumSlots(); i++ {
			if !p.SlotDead(i) {
				continue
			}
			if owner, pend := h.owner[page.RID{Page: p.ID(), Slot: uint16(i)}]; pend && owner != id {
				continue
			}
			return i, p.ResurrectSlot(i, rec)
		}
	}
	if room-len(rec)-page.SlotSize < others || room-page.SlotSize < all {
		return 0, page.ErrPageFull
	}
	return p.InsertBytes(rec)
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
	// Reserve the slot and bytes before the latch drops, so that no
	// insert can see them free in between.
	h.mu.Lock()
	by := h.held[rid.Page]
	if by == nil {
		by = make(map[page.TxnID]int)
		h.held[rid.Page] = by
	}
	by[tx.ID()] += len(old)
	h.owner[rid] = tx.ID()
	h.deletes[tx.ID()] = append(h.deletes[tx.ID()], rid)
	h.mu.Unlock()
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
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
	h.release(tx.ID(), r.RID, len(r.Body))
	lsn := tx.LogCLR(&wal.Record{Type: wal.RecHeapDelete, Pg: r.RID.Page, RID: r.RID, Body: r.Body}, r.PrevLSN)
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	h.pool.Unpin(f, true, lsn)
	return nil
}

// release ends the reservation of one delete by id that rollback has just
// undone. Restart undo finds nothing to release: reservations live in
// memory only, and a loser's record goes back into space its own delete
// freed.
func (h *File) release(id page.TxnID, rid page.RID, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rids := h.deletes[id]
	i := len(rids) - 1
	for i >= 0 && rids[i] != rid {
		i--
	}
	if i < 0 {
		return
	}
	rids = append(rids[:i], rids[i+1:]...)
	if len(rids) == 0 {
		delete(h.deletes, id)
	} else {
		h.deletes[id] = rids
	}
	if by := h.held[rid.Page]; by != nil {
		if by[id] -= n; by[id] <= 0 {
			delete(by, id)
		}
		if len(by) == 0 {
			delete(h.held, rid.Page)
		}
	}
	for _, r := range rids {
		if r == rid {
			return // an earlier delete of the same slot still holds it
		}
	}
	delete(h.owner, rid)
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
