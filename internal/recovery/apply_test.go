package recovery_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// replicate builds a replica of w from an empty disk by shipping w's log
// through cut to an Applier, batch records per ApplyBatch.
func (w *world) replicate(cut page.LSN, batch int) (*world, *recovery.Applier) {
	w.t.Helper()
	rw := &world{
		t:      w.t,
		disk:   storage.NewMemDisk(),
		log:    wal.NewReplicaLog(0),
		locks:  lock.NewManager(),
		preds:  predicate.NewManager(),
		anchor: w.anchor,
		cfg:    w.cfg,
	}
	rw.pool = buffer.New(rw.disk, 512, rw.log)
	rw.tm = txn.NewManager(rw.log, rw.locks, rw.preds)
	rw.heap = heap.New(rw.pool)
	rw.heap.RegisterUndo(rw.tm)
	ap := recovery.NewApplier(rw.log, rw.pool, rw.disk, rw.tm, 1)
	var recs []*wal.Record
	w.log.Scan(1, func(r *wal.Record) bool {
		if r.LSN > cut {
			return false
		}
		c, err := wal.DecodeRecord(r.Encode())
		if err != nil {
			w.t.Fatal(err)
		}
		recs = append(recs, c)
		return true
	})
	for len(recs) > 0 {
		n := min(batch, len(recs))
		for _, r := range recs[:n] {
			if err := rw.log.AppendShipped(r); err != nil {
				w.t.Fatal(err)
			}
		}
		if err := ap.ApplyBatch(recs[:n]); err != nil {
			w.t.Fatal(err)
		}
		recs = recs[n:]
	}
	return rw, ap
}

// promote undoes the replica's in-flight transactions, as failover does,
// and opens its tree.
func (rw *world) promote(ap *recovery.Applier) {
	rw.t.Helper()
	rw.tm.AdvanceTxnID(ap.MaxTxnID())
	gist.RegisterRecoveryHandlers(rw.tm, rw.pool)
	if _, err := ap.UndoLosers(); err != nil {
		rw.t.Fatal(err)
	}
	tree, err := gist.Open(rw.pool, rw.tm, rw.cfg, rw.anchor)
	if err != nil {
		rw.t.Fatal(err)
	}
	rw.tree = tree
}

// destroyed runs a Destroy of w's tree in a transaction it returns open,
// and the LSNs of the Free-Pages it logged.
func (w *world) destroyed() (*txn.Txn, []page.LSN) {
	w.t.Helper()
	tx, _ := w.tm.Begin()
	if err := w.tree.Destroy(tx); err != nil {
		w.t.Fatal(err)
	}
	var frees []page.LSN
	w.log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecFreePage {
			frees = append(frees, r.LSN)
		}
		return true
	})
	if len(frees) < 3 {
		w.t.Fatalf("setup: Destroy logged %d Free-Pages", len(frees))
	}
	return tx, frees
}

// TestPromoteInterruptedDestroy: a replica that applied part of an index
// drop — the stream cut after a Free-Page — and is then promoted must undo
// the drop onto the freed pages' images, keeping every key. An Applier
// that gave the storage back at each Free-Page left undo a blank page,
// and the node came back empty.
func TestPromoteInterruptedDestroy(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 40; i++ {
		w.put(int64(i))
	}
	_, frees := w.destroyed()
	for _, c := range []struct {
		name  string
		cut   page.LSN
		batch int
	}{
		{"first-free/one-batch", frees[0], 1 << 20},
		{"first-free/per-record", frees[0], 1},
		{"last-free/per-record", frees[len(frees)-1], 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			w.t = t
			rw, ap := w.replicate(c.cut, c.batch)
			rw.promote(ap)
			if got := rw.keys(0, 100); len(got) != 40 {
				t.Fatalf("%d of 40 keys after promotion", len(got))
			}
			if rep := rw.checkTree(); rep.Entries != 40 {
				t.Errorf("entries = %d, want 40", rep.Entries)
			}
			rw.put(999)
			if got := rw.keys(999, 999); len(got) != 1 {
				t.Error("insert after promotion failed")
			}
		})
	}
}

// TestApplierFreesEndedDrop: the pages a drop frees are held only while
// its transaction is in flight. Shipped a record per batch, a drop gives
// every freed page back at its transaction's Commit, or at its End after
// a rollback (the drop is a nested top action, which the rollback does
// not undo).
func TestApplierFreesEndedDrop(t *testing.T) {
	for _, commit := range []bool{true, false} {
		w := newWorld(t, gist.Config{MaxEntries: 4})
		for i := 0; i < 40; i++ {
			w.put(int64(i))
		}
		tx, _ := w.destroyed()
		var freed []page.PageID
		w.log.Scan(1, func(r *wal.Record) bool {
			if r.Type == wal.RecFreePage {
				freed = append(freed, r.Pg)
			}
			return true
		})
		end := tx.Commit
		if !commit {
			end = tx.Abort
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
		rw, ap := w.replicate(w.log.LastLSN(), 1)
		if len(ap.Losers()) != 0 {
			t.Fatalf("commit=%v: losers %v", commit, ap.Losers())
		}
		live := map[page.PageID]bool{}
		for _, pg := range rw.disk.PageIDs() {
			live[pg] = true
		}
		for _, pg := range freed {
			if live[pg] {
				t.Errorf("commit=%v: freed page %d still allocated", commit, pg)
			}
		}
	}
}
