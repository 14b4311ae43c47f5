package gistdb

import (
	"context"

	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/page"
)

// Index is one GiST index over the database's heap.
type Index struct {
	db   *DB
	tree *gist.Tree
	name string
}

// Name returns the index's catalog name.
func (ix *Index) Name() string { return ix.name }

// Insert stores record in the heap and indexes it under key, returning the
// record's RID. The data record is X-locked before the tree insertion, as
// §6 of the paper requires.
func (ix *Index) Insert(tx *Tx, key, record []byte) (RID, error) {
	rid, err := ix.db.heap.Insert(tx.inner, record)
	if err != nil {
		return RID{}, err
	}
	if err := ix.tree.Insert(tx.inner, key, rid); err != nil {
		return RID{}, err
	}
	return rid, nil
}

// InsertCtx is Insert as a cancellable statement: ctx is honored at every
// blocking point (lock waits, frame loads, node-visit boundaries). On
// cancellation the statement's partial effects — the heap record and any
// logged tree updates — are rolled back, the transaction stays active, and
// ctx.Err() is returned.
func (ix *Index) InsertCtx(ctx context.Context, tx *Tx, key, record []byte) (RID, error) {
	var rid RID
	err := tx.statement(func() error {
		r, err := ix.db.heap.InsertCtx(ctx, tx.inner, record)
		if err != nil {
			return err
		}
		rid = r
		return ix.tree.InsertCtx(ctx, tx.inner, key, rid)
	})
	if err != nil {
		return RID{}, err
	}
	return rid, nil
}

// InsertUnique is Insert with key uniqueness enforced (§8): ErrDuplicate is
// returned — repeatably, under Degree 3 — when the key already exists.
func (ix *Index) InsertUnique(tx *Tx, key, record []byte) (RID, error) {
	rid, err := ix.db.heap.Insert(tx.inner, record)
	if err != nil {
		return RID{}, err
	}
	if err := ix.tree.InsertUnique(tx.inner, key, rid); err != nil {
		return RID{}, err
	}
	return rid, nil
}

// InsertUniqueCtx is InsertUnique as a cancellable statement (see
// InsertCtx). ErrDuplicate is not a cancellation and passes through with
// the heap record still inserted, exactly as InsertUnique leaves it.
func (ix *Index) InsertUniqueCtx(ctx context.Context, tx *Tx, key, record []byte) (RID, error) {
	var rid RID
	err := tx.statement(func() error {
		r, err := ix.db.heap.InsertCtx(ctx, tx.inner, record)
		if err != nil {
			return err
		}
		rid = r
		return ix.tree.InsertUniqueCtx(ctx, tx.inner, key, rid)
	})
	if err != nil {
		return RID{}, err
	}
	return rid, nil
}

// IndexKey indexes an existing heap record under key without storing a new
// record (secondary-index style; several indexes can point at one RID).
func (ix *Index) IndexKey(tx *Tx, key []byte, rid RID) error {
	return ix.tree.Insert(tx.inner, key, rid)
}

// IndexKeyCtx is IndexKey as a cancellable statement (see InsertCtx).
func (ix *Index) IndexKeyCtx(ctx context.Context, tx *Tx, key []byte, rid RID) error {
	return tx.statement(func() error {
		return ix.tree.InsertCtx(ctx, tx.inner, key, rid)
	})
}

// Search returns all entries whose keys are consistent with query, at the
// requested isolation level. Under RepeatableRead the result set is
// phantom-protected until the transaction ends.
func (ix *Index) Search(tx *Tx, query []byte, iso Isolation) ([]SearchResult, error) {
	return ix.tree.Search(tx.inner, query, iso)
}

// SearchCtx is Search honoring ctx at every node-visit boundary and
// blocking wait. A cancelled search returns ctx.Err() promptly; being
// read-only it needs no rollback — record locks and predicates taken so
// far stay with the transaction, per two-phase locking.
func (ix *Index) SearchCtx(ctx context.Context, tx *Tx, query []byte, iso Isolation) ([]SearchResult, error) {
	return ix.tree.SearchCtx(ctx, tx.inner, query, iso)
}

// Cursor is an incremental scan over an index. Its position is recorded by
// Tx.Savepoint and restored by Tx.RollbackTo, as §10.2 of the paper
// requires of open cursors.
type Cursor struct {
	inner  *gist.Cursor
	ix     *Index
	closed bool
}

// OpenCursor starts an incremental search; call Next until ok is false, and
// Close when done (transaction end does not close cursors automatically;
// once the transaction has ended, Next fails with ErrNotActive when it
// would visit another node).
func (ix *Index) OpenCursor(tx *Tx, query []byte, iso Isolation) (*Cursor, error) {
	gc, err := ix.tree.OpenCursor(tx.inner, query, iso)
	if err != nil {
		return nil, err
	}
	c := &Cursor{inner: gc, ix: ix}
	tx.cursors = append(tx.cursors, c)
	return c, nil
}

// OpenCursorCtx is OpenCursor with a context every subsequent Next checks
// at its node-visit boundary: once ctx fires, Next returns ctx.Err() until
// the cursor is closed.
func (ix *Index) OpenCursorCtx(ctx context.Context, tx *Tx, query []byte, iso Isolation) (*Cursor, error) {
	gc, err := ix.tree.OpenCursorCtx(ctx, tx.inner, query, iso)
	if err != nil {
		return nil, err
	}
	c := &Cursor{inner: gc, ix: ix}
	tx.cursors = append(tx.cursors, c)
	return c, nil
}

// Next returns the next matching entry; ok is false when exhausted.
func (c *Cursor) Next() (SearchResult, bool, error) {
	return c.inner.Next()
}

// Close releases the cursor's traversal state. Idempotent.
func (c *Cursor) Close() {
	if !c.closed {
		c.closed = true
		c.inner.Close()
	}
}

// Fetch reads the data record a search hit points at.
func (ix *Index) Fetch(rid RID) ([]byte, error) {
	return ix.db.heap.Read(rid)
}

// FetchCtx is Fetch honoring ctx while waiting for the record's page frame.
func (ix *Index) FetchCtx(ctx context.Context, rid RID) ([]byte, error) {
	return ix.db.heap.ReadCtx(ctx, rid)
}

// Delete logically deletes the index entry (key, rid) and the underlying
// heap record. The entry remains physically present (invisible) until the
// transaction commits and garbage collection removes it (§7).
func (ix *Index) Delete(tx *Tx, key []byte, rid RID) error {
	if err := ix.tree.Delete(tx.inner, key, rid); err != nil {
		return err
	}
	return ix.db.heap.Delete(tx.inner, rid)
}

// DeleteCtx is Delete as a cancellable statement (see InsertCtx): on
// cancellation the logical delete mark and the heap kill are rolled back.
func (ix *Index) DeleteCtx(ctx context.Context, tx *Tx, key []byte, rid RID) error {
	return tx.statement(func() error {
		if err := ix.tree.DeleteCtx(ctx, tx.inner, key, rid); err != nil {
			return err
		}
		return ix.db.heap.DeleteCtx(ctx, tx.inner, rid)
	})
}

// DeleteEntry removes only the index entry, leaving the heap record in
// place (for records indexed by several indexes).
func (ix *Index) DeleteEntry(tx *Tx, key []byte, rid RID) error {
	return ix.tree.Delete(tx.inner, key, rid)
}

// DeleteEntryCtx is DeleteEntry as a cancellable statement (see InsertCtx).
func (ix *Index) DeleteEntryCtx(ctx context.Context, tx *Tx, key []byte, rid RID) error {
	return tx.statement(func() error {
		return ix.tree.DeleteCtx(ctx, tx.inner, key, rid)
	})
}

// GC garbage-collects committed logically deleted entries across the whole
// index and unlinks emptied nodes where safe (§7.1–§7.2). Run it
// periodically, as a DBMS would from a background maintenance task.
func (ix *Index) GC(tx *Tx) error {
	return ix.tree.GCAll(tx.inner)
}

// Check verifies the index's structural invariants (quiesced) and returns
// a summary report.
func (ix *Index) Check() (*check.Report, error) {
	c := &check.Checker{
		Pool:   ix.db.pool,
		Ops:    ix.tree.Ops(),
		Anchor: ix.tree.Anchor(),
		MaxNSN: ix.db.log.LastLSN(),
	}
	return c.Check()
}

// TreeStats exposes the tree's internal instrumentation counters.
type TreeStats struct {
	Searches, Inserts, Deletes    int64
	Splits, RootSplits            int64
	RightlinkChases, BPUpdates    int64
	GCRuns, GCEntries, NodeFrees  int64
	PredicateBlocks, LatchlessIOs int64
	LatchedIOs                    int64
}

// TreeStats returns a snapshot of the index's counters.
func (ix *Index) TreeStats() TreeStats {
	s := &ix.tree.Stats
	return TreeStats{
		Searches:        s.Searches.Load(),
		Inserts:         s.Inserts.Load(),
		Deletes:         s.Deletes.Load(),
		Splits:          s.Splits.Load(),
		RootSplits:      s.RootSplits.Load(),
		RightlinkChases: s.RightlinkChases.Load(),
		BPUpdates:       s.BPUpdates.Load(),
		GCRuns:          s.GCRuns.Load(),
		GCEntries:       s.GCEntries.Load(),
		NodeFrees:       s.NodeDeletes.Load(),
		PredicateBlocks: s.PredBlocks.Load(),
		LatchlessIOs:    s.LatchlessIOs.Load(),
		LatchedIOs:      s.LatchedIOs.Load(),
	}
}

// Anchor returns the index's anchor page id (its durable identity).
func (ix *Index) Anchor() page.PageID { return ix.tree.Anchor() }
