package recovery_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
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

// world is a complete database instance whose crash produces a successor
// world recovered from the survivor log and the durable disk image.
type world struct {
	t      *testing.T
	disk   *storage.MemDisk
	log    *wal.Log
	pool   *buffer.Pool
	locks  *lock.Manager
	preds  *predicate.Manager
	tm     *txn.Manager
	heap   *heap.File
	tree   *gist.Tree
	anchor page.PageID
	cfg    gist.Config
}

func newWorld(t *testing.T, cfg gist.Config) *world {
	t.Helper()
	if cfg.Ops == nil {
		cfg.Ops = btree.Ops{}
	}
	w := &world{
		t:     t,
		disk:  storage.NewMemDisk(),
		log:   wal.NewMemLog(),
		locks: lock.NewManager(),
		preds: predicate.NewManager(),
		cfg:   cfg,
	}
	w.pool = buffer.New(w.disk, 512, w.log)
	w.tm = txn.NewManager(w.log, w.locks, w.preds)
	w.heap = heap.New(w.pool)
	w.heap.RegisterUndo(w.tm)
	tree, err := gist.Create(w.pool, w.tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.tree = tree
	w.anchor = tree.Anchor()
	return w
}

// crashAndRecover simulates a crash losing the buffer pool and all
// unflushed log records (or, if truncLSN > 0, everything after that LSN),
// then runs ARIES restart and returns the recovered world.
func (w *world) crashAndRecover(truncLSN page.LSN) (*world, *recovery.Stats) {
	w.t.Helper()
	var survLog *wal.Log
	if truncLSN == 0 {
		survLog = w.log.SurvivingLog()
	} else {
		survLog = w.log.TruncatedCopy(truncLSN)
	}
	nw := &world{
		t:      w.t,
		disk:   w.disk.Snapshot(),
		log:    survLog,
		locks:  lock.NewManager(),
		preds:  predicate.NewManager(),
		anchor: w.anchor,
		cfg:    w.cfg,
	}
	nw.pool = buffer.New(nw.disk, 512, survLog)
	nw.tm = txn.NewManager(survLog, nw.locks, nw.preds)
	nw.heap = heap.New(nw.pool)
	nw.heap.RegisterUndo(nw.tm)

	rec := &recovery.Recovery{Log: survLog, Pool: nw.pool, Disk: nw.disk, TM: nw.tm}
	stats, err := rec.Run(func() error {
		tree, err := gist.Open(nw.pool, nw.tm, nw.cfg, nw.anchor)
		if err != nil {
			return err
		}
		nw.tree = tree
		return nil
	})
	if err != nil {
		w.t.Fatalf("recovery failed: %v", err)
	}
	return nw, stats
}

func (w *world) put(k int64) page.RID {
	w.t.Helper()
	tx, err := w.tm.Begin()
	if err != nil {
		w.t.Fatal(err)
	}
	rid := w.putIn(tx, k)
	if err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
	return rid
}

func (w *world) putIn(tx *txn.Txn, k int64) page.RID {
	w.t.Helper()
	rid, err := w.heap.Insert(tx, []byte(fmt.Sprintf("rec-%d", k)))
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
		w.t.Fatalf("insert %d: %v", k, err)
	}
	return rid
}

func (w *world) keys(lo, hi int64) []int64 {
	w.t.Helper()
	tx, err := w.tm.Begin()
	if err != nil {
		w.t.Fatal(err)
	}
	defer func() {
		tx.Commit()
	}()
	rs, err := w.tree.Search(tx, btree.EncodeRange(lo, hi), gist.ReadCommitted)
	if err != nil {
		w.t.Fatalf("search: %v", err)
	}
	out := make([]int64, 0, len(rs))
	for _, r := range rs {
		out = append(out, btree.DecodeKey(r.Key))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (w *world) checkTree() *check.Report {
	w.t.Helper()
	c := &check.Checker{Pool: w.pool, Ops: w.cfg.Ops, Anchor: w.anchor, MaxNSN: w.log.LastLSN()}
	rep, err := c.Check()
	if err != nil {
		w.t.Fatalf("invariant check after recovery: %v", err)
	}
	return rep
}

func TestRecoverCommittedInsertsNoFlush(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 100; i++ {
		w.put(int64(i))
	}
	// Nothing explicitly flushed: commits forced the log, the pages are
	// volatile. Crash and recover.
	nw, stats := w.crashAndRecover(0)
	if stats.Redone == 0 {
		t.Error("nothing redone despite volatile pages")
	}
	got := nw.keys(0, 200)
	if len(got) != 100 {
		t.Fatalf("recovered %d keys, want 100", len(got))
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
	rep := nw.checkTree()
	if rep.Entries != 100 {
		t.Errorf("checker entries = %d", rep.Entries)
	}
	// Heap records intact too.
	tx, _ := nw.tm.Begin()
	rs, err := nw.tree.Search(tx, btree.EncodeRange(0, 200), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		rec, err := nw.heap.Read(r.RID)
		if err != nil {
			t.Fatalf("heap record %v: %v", r.RID, err)
		}
		want := fmt.Sprintf("rec-%d", btree.DecodeKey(r.Key))
		if string(rec) != want {
			t.Fatalf("heap record = %q, want %q", rec, want)
		}
	}
	tx.Commit()
}

func TestRecoverLoserRolledBack(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 20; i++ {
		w.put(int64(i))
	}
	// A transaction inserts but never commits; its records reach the log
	// (force them explicitly, as a concurrent commit's group flush would).
	loser, _ := w.tm.Begin()
	w.putIn(loser, 500)
	w.putIn(loser, 501)
	w.log.FlushAll()

	nw, stats := w.crashAndRecover(0)
	if stats.Losers != 1 || stats.Undone != 1 {
		t.Errorf("losers=%d undone=%d, want 1,1", stats.Losers, stats.Undone)
	}
	if got := nw.keys(500, 600); len(got) != 0 {
		t.Errorf("loser keys visible after recovery: %v", got)
	}
	if got := nw.keys(0, 100); len(got) != 20 {
		t.Errorf("committed keys = %d, want 20", len(got))
	}
	nw.checkTree()
}

func TestRecoverLoserDeleteUnmarked(t *testing.T) {
	w := newWorld(t, gist.Config{})
	rid := w.put(7)
	loser, _ := w.tm.Begin()
	if err := w.tree.Delete(loser, btree.EncodeKey(7), rid); err != nil {
		t.Fatal(err)
	}
	w.log.FlushAll()

	nw, _ := w.crashAndRecover(0)
	if got := nw.keys(7, 7); len(got) != 1 {
		t.Errorf("key 7 not restored: %v", got)
	}
	rep := nw.checkTree()
	if rep.Marked != 0 {
		t.Errorf("marked = %d after loser delete rollback", rep.Marked)
	}
}

func TestRecoverCommittedDeleteStaysDeleted(t *testing.T) {
	w := newWorld(t, gist.Config{})
	rid := w.put(7)
	w.put(8)
	tx, _ := w.tm.Begin()
	if err := w.tree.Delete(tx, btree.EncodeKey(7), rid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	nw, _ := w.crashAndRecover(0)
	if got := nw.keys(0, 100); len(got) != 1 || got[0] != 8 {
		t.Errorf("keys after recovery = %v, want [8]", got)
	}
	rep := nw.checkTree()
	if rep.Marked != 1 {
		t.Errorf("marked = %d, want 1 (logical delete persisted)", rep.Marked)
	}
}

func TestRecoverInterruptedSplitSMO(t *testing.T) {
	// Crash with only a prefix of a split NTA in the log: the loser's
	// rollback must reverse the partial structure modification.
	w := newWorld(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 4; i++ {
		w.put(int64(i * 10))
	}
	// This insert splits the root leaf.
	tx, _ := w.tm.Begin()
	w.putIn(tx, 5)

	// Find the Split record and cut the log right after it (inside the
	// NTA: Get-Page and Split survive; the parent installation and the
	// dummy CLR do not).
	var splitLSN page.LSN
	w.log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecSplit {
			splitLSN = r.LSN
		}
		return true
	})
	if splitLSN == 0 {
		t.Fatal("setup: no split occurred")
	}

	nw, stats := w.crashAndRecover(splitLSN)
	if stats.Losers != 1 {
		t.Fatalf("losers = %d, want 1", stats.Losers)
	}
	got := nw.keys(0, 100)
	if len(got) != 4 {
		t.Fatalf("keys = %v, want the 4 committed ones", got)
	}
	rep := nw.checkTree()
	if rep.Entries != 4 {
		t.Errorf("entries = %d", rep.Entries)
	}
	if rep.Orphans != 0 {
		t.Errorf("orphans = %d after SMO rollback", rep.Orphans)
	}
	// The tree remains fully usable.
	nw.put(999)
	if got := nw.keys(999, 999); len(got) != 1 {
		t.Error("insert after recovery failed")
	}
}

// TestRecoverInterruptedDestroy: a crash right after Destroy (what an index
// drop runs) logged any of its Free-Pages, the root's first, leaves the
// drop uncommitted. Restart undoes the frees, and the tree comes back
// whole: a compensated page keeps its entries.
func TestRecoverInterruptedDestroy(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 40; i++ {
		w.put(int64(i))
	}
	tx, _ := w.tm.Begin()
	if err := w.tree.Destroy(tx); err != nil {
		t.Fatal(err)
	}
	var frees []page.LSN
	w.log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecFreePage {
			frees = append(frees, r.LSN)
		}
		return true
	})
	if len(frees) < 3 {
		t.Fatalf("setup: Destroy logged %d Free-Pages", len(frees))
	}

	for i, cut := range frees {
		nw, stats := w.crashAndRecover(cut)
		if stats.Losers != 1 {
			t.Fatalf("cut after Free-Page %d: losers = %d, want 1", i, stats.Losers)
		}
		if got := nw.keys(0, 100); len(got) != 40 {
			t.Fatalf("cut after Free-Page %d: %d of 40 keys after restart", i, len(got))
		}
		if rep := nw.checkTree(); rep.Entries != 40 {
			t.Errorf("cut after Free-Page %d: entries = %d, want 40", i, rep.Entries)
		}
		nw.put(999)
		if got := nw.keys(999, 999); len(got) != 1 {
			t.Errorf("cut after Free-Page %d: insert after recovery failed", i)
		}
	}
}

// TestRecoverReusedPage: a leaf changed after a checkpoint, then unlinked
// by node deletion, drained and allocated again by a split, is zeroed on
// disk by that allocation. Restart redo must not replay the old
// incarnation's records onto the zeroed image: the new Get-Page wipes them
// anyway. Replaying them failed the restart with "page: not enough free
// space".
func TestRecoverReusedPage(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	rids := map[int64]page.RID{}
	for k := int64(0); k < 16; k++ {
		rids[k] = w.put(k)
	}
	if _, err := recovery.Checkpoint(w.tm, w.pool, w.disk); err != nil {
		t.Fatal(err)
	}
	rids[-1] = w.put(-1) // an Add-Leaf-Entry on the leftmost leaf, past the redo point
	tx, _ := w.tm.Begin()
	for k := int64(-1); k < 8; k++ {
		if err := w.tree.Delete(tx, btree.EncodeKey(k), rids[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	gc, _ := w.tm.Begin()
	if err := w.tree.GCAll(gc); err != nil {
		t.Fatal(err)
	}
	if err := gc.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.tree.Stats.NodeDeletes.Load() == 0 {
		t.Fatal("setup: GC deleted no node")
	}
	w.tree.DrainQuarantine() // the freed leaves go back to the disk
	for k := int64(100); k < 140; k++ {
		w.put(k) // splits allocate the freed pages again
	}
	w.log.FlushAll()

	nw, _ := w.crashAndRecover(0)
	if got := nw.keys(-10, 200); len(got) != 48 {
		t.Errorf("%d keys after restart, want 48", len(got))
	}
	nw.checkTree()
}

func TestRecoverWithEvictionsAndPartialFlush(t *testing.T) {
	// A tiny pool forces constant evictions, so the disk holds a mix of
	// old and new page versions at the crash; redo must reconcile them.
	w := newWorld(t, gist.Config{MaxEntries: 6})
	if err := w.pool.FlushAll(); err != nil { // hand the tree to a new pool
		t.Fatal(err)
	}
	small := buffer.New(w.disk, 8, w.log)
	w.pool = small
	tm := txn.NewManager(w.log, w.locks, w.preds)
	w.tm = tm
	w.heap = heap.New(small)
	w.heap.RegisterUndo(tm)
	tree, err := gist.Open(small, tm, w.cfg, w.anchor)
	if err != nil {
		t.Fatal(err)
	}
	w.tree = tree

	for i := 0; i < 200; i++ {
		w.put(int64(i))
	}
	nw, _ := w.crashAndRecover(0)
	got := nw.keys(0, 1000)
	if len(got) != 200 {
		t.Fatalf("recovered %d keys, want 200", len(got))
	}
	nw.checkTree()
}

func TestRecoverAfterCheckpoint(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 50; i++ {
		w.put(int64(i))
	}
	if _, err := recovery.Checkpoint(w.tm, w.pool, w.disk); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ {
		w.put(int64(i))
	}
	nw, stats := w.crashAndRecover(0)
	if got := nw.keys(0, 100); len(got) != 80 {
		t.Fatalf("keys = %d, want 80", len(got))
	}
	// The checkpoint should have bounded the redo work: everything
	// before it was flushed.
	if stats.RedoSkipped == 0 && stats.Redone > 200 {
		t.Logf("redo stats: redone=%d skipped=%d (informational)", stats.Redone, stats.RedoSkipped)
	}
	nw.checkTree()
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Crash during recovery: recover, crash again immediately (losing
	// nothing new since recovery flushed), recover again.
	w := newWorld(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 30; i++ {
		w.put(int64(i))
	}
	loser, _ := w.tm.Begin()
	w.putIn(loser, 400)
	w.log.FlushAll()

	nw1, _ := w.crashAndRecover(0)
	nw2, stats2 := nw1.crashAndRecover(0)
	if stats2.Losers != 0 {
		t.Errorf("second restart found %d losers, want 0", stats2.Losers)
	}
	if got := nw2.keys(0, 1000); len(got) != 30 {
		t.Fatalf("keys = %d, want 30", len(got))
	}
	nw2.checkTree()
}

func TestRecoverCrashDuringUndo(t *testing.T) {
	// First crash leaves a loser; recovery begins, but a second crash
	// interrupts it after some CLRs were written. The CLR chain must let
	// the third restart finish the rollback without repeating undo work.
	w := newWorld(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		w.put(int64(i))
	}
	loser, _ := w.tm.Begin()
	for i := 100; i < 110; i++ {
		w.putIn(loser, int64(i))
	}
	w.log.FlushAll()

	// First restart, fully.
	nw1, _ := w.crashAndRecover(0)
	// Simulate the mid-undo crash by cutting the recovered log two
	// records before its end (dropping the tail of the CLR chain).
	cut := nw1.log.LastLSN() - 2
	nw2, _ := nw1.crashAndRecover(cut)
	if got := nw2.keys(0, 1000); len(got) != 10 {
		t.Fatalf("keys = %d, want 10 committed", len(got))
	}
	nw2.checkTree()
}

// TestTable1Matrix is experiment E6: for every log record type the paper
// lists in Table 1, crash immediately after the first record of that type
// becomes durable, recover, and verify both structural invariants and
// transactional correctness (committed effects present, losers absent).
func TestTable1Matrix(t *testing.T) {
	types := []wal.RecType{
		wal.RecParentEntryUpdate,
		wal.RecSplit,
		wal.RecGarbageCollection,
		wal.RecInternalEntryAdd,
		wal.RecInternalEntryUpdate,
		wal.RecInternalEntryDelete,
		wal.RecAddLeafEntry,
		wal.RecMarkLeafEntry,
		wal.RecGetPage,
		wal.RecFreePage,
		wal.RecRootChange,
	}
	// Build a workload that generates every record type: inserts with
	// splits (Split, Internal-Entry-*, Get-Page, Parent-Entry-Update,
	// Root-Change), logical deletes (Mark-Leaf-Entry), GC + node deletion
	// (Garbage-Collection, Free-Page, Internal-Entry-Delete).
	build := func() *world {
		w := newWorld(t, gist.Config{MaxEntries: 4})
		rids := make(map[int64]page.RID)
		for i := 0; i < 40; i++ {
			rids[int64(i)] = w.put(int64(i))
		}
		tx, _ := w.tm.Begin()
		for i := 0; i < 8; i++ {
			if err := w.tree.Delete(tx, btree.EncodeKey(int64(i)), rids[int64(i)]); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
		gcTx, _ := w.tm.Begin()
		if err := w.tree.GCAll(gcTx); err != nil {
			t.Fatal(err)
		}
		gcTx.Commit()
		return w
	}

	ref := build()
	present := make(map[wal.RecType][]page.LSN)
	ref.log.Scan(1, func(r *wal.Record) bool {
		present[r.Type] = append(present[r.Type], r.LSN)
		return true
	})
	for _, typ := range types {
		if len(present[typ]) == 0 {
			t.Fatalf("workload never produced %v; matrix incomplete", typ)
		}
	}

	for _, typ := range types {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			w := build()
			// Cut after the first occurrence following tree
			// creation (cutting inside creation itself would
			// just mean the tree never existed).
			var createEnd, cut page.LSN
			w.log.Scan(1, func(r *wal.Record) bool {
				if createEnd == 0 {
					if r.Type == wal.RecEnd {
						createEnd = r.LSN
					}
					return true
				}
				if r.Type == typ {
					cut = r.LSN
					return false
				}
				return true
			})
			if cut == 0 {
				t.Fatalf("no %v record", typ)
			}
			nw, _ := w.crashAndRecover(cut)
			rep := nw.checkTree()
			if rep.Orphans != 0 {
				t.Errorf("orphans = %d", rep.Orphans)
			}
			// Transactional correctness: keys of committed txns in
			// the survivor log present, losers' absent.
			committed := make(map[page.TxnID]bool)
			inserted := make(map[page.TxnID][]int64)
			deleted := make(map[page.TxnID][]int64)
			nw.log.Scan(1, func(r *wal.Record) bool {
				switch r.Type {
				case wal.RecCommit:
					committed[r.Txn] = true
				case wal.RecAddLeafEntry:
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						inserted[r.Txn] = append(inserted[r.Txn], btree.DecodeKey(e.Pred))
					}
				case wal.RecMarkLeafEntry:
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						deleted[r.Txn] = append(deleted[r.Txn], btree.DecodeKey(e.Pred))
					}
				}
				return true
			})
			got := make(map[int64]bool)
			for _, k := range nw.keys(-1000, 1000) {
				got[k] = true
			}
			want := make(map[int64]bool)
			for txid, keys := range inserted {
				if committed[txid] {
					for _, k := range keys {
						want[k] = true
					}
				}
			}
			for txid, keys := range deleted {
				if committed[txid] {
					for _, k := range keys {
						delete(want, k)
					}
				}
			}
			for k := range want {
				if !got[k] {
					t.Errorf("committed key %d lost (crash after first %v)", k, typ)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected key %d present (crash after first %v)", k, typ)
				}
			}
			// The recovered tree accepts new work.
			nw.put(7777)
			if got := nw.keys(7777, 7777); len(got) != 1 {
				t.Error("recovered tree rejected an insert")
			}
			nw.checkTree()
		})
	}
}

// TestFuzzedCrashPoints cuts the log at many random LSNs of a rich
// workload (inserts, splits, deletes, GC, node deletions, savepoints) and
// verifies after every restart that (a) structural invariants hold, (b)
// the live keys are exactly those the survivor log proves committed, and
// (c) the engine accepts new work. This subsumes the Table 1 matrix with
// arbitrary intra-SMO crash points.
func TestFuzzedCrashPoints(t *testing.T) {
	build := func() *world {
		w := newWorld(t, gist.Config{MaxEntries: 4})
		rids := make(map[int64]page.RID)
		for i := 0; i < 30; i++ {
			rids[int64(i)] = w.put(int64(i))
		}
		// A savepoint transaction with partial rollback.
		tx, _ := w.tm.Begin()
		w.putIn(tx, 200)
		tx.Savepoint("sp")
		w.putIn(tx, 201)
		tx.RollbackTo("sp")
		tx.Commit()
		// Deletes + GC (garbage collection, node deletion records).
		tx2, _ := w.tm.Begin()
		for i := 0; i < 10; i++ {
			if err := w.tree.Delete(tx2, btree.EncodeKey(int64(i)), rids[int64(i)]); err != nil {
				t.Fatal(err)
			}
		}
		tx2.Commit()
		gc, _ := w.tm.Begin()
		if err := w.tree.GCAll(gc); err != nil {
			t.Fatal(err)
		}
		gc.Commit()
		// An in-flight loser at the end.
		loser, _ := w.tm.Begin()
		w.putIn(loser, 500)
		w.log.FlushAll()
		return w
	}

	ref := build()
	cuts := crashCuts(ref.log, rand.New(rand.NewSource(99)), 440, 40)
	for cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("lsn%d", cut), func(t *testing.T) {
			w := build()
			nw, _ := w.crashAndRecover(cut)
			rep := nw.checkTree()
			if rep.Orphans != 0 {
				t.Fatalf("orphans after cut at %d", cut)
			}
			// Expected keys per the survivor log.
			committed := make(map[page.TxnID]bool)
			inserted := make(map[page.TxnID][]int64)
			deleted := make(map[page.TxnID][]int64)
			undone := make(map[page.LSN]bool) // CLR'd inserts within winners
			nw.log.Scan(1, func(r *wal.Record) bool {
				switch {
				case r.Type == wal.RecCommit:
					committed[r.Txn] = true
				case r.Type == wal.RecAddLeafEntry:
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						inserted[r.Txn] = append(inserted[r.Txn], btree.DecodeKey(e.Pred))
					}
				case r.Type == wal.RecAddLeafEntry|wal.ClrFlag:
					// A compensated insert (savepoint rollback):
					// remove one instance of the key.
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						k := btree.DecodeKey(e.Pred)
						ks := inserted[r.Txn]
						for i := len(ks) - 1; i >= 0; i-- {
							if ks[i] == k {
								inserted[r.Txn] = append(ks[:i], ks[i+1:]...)
								break
							}
						}
					}
				case r.Type == wal.RecMarkLeafEntry:
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						deleted[r.Txn] = append(deleted[r.Txn], btree.DecodeKey(e.Pred))
					}
				case r.Type == wal.RecMarkLeafEntry|wal.ClrFlag:
					if e, err := page.DecodeEntry(r.Body, true); err == nil {
						k := btree.DecodeKey(e.Pred)
						ks := deleted[r.Txn]
						for i := len(ks) - 1; i >= 0; i-- {
							if ks[i] == k {
								deleted[r.Txn] = append(ks[:i], ks[i+1:]...)
								break
							}
						}
					}
				}
				return true
			})
			_ = undone
			want := make(map[int64]bool)
			for txid, keys := range inserted {
				if committed[txid] {
					for _, k := range keys {
						want[k] = true
					}
				}
			}
			for txid, keys := range deleted {
				if committed[txid] {
					for _, k := range keys {
						delete(want, k)
					}
				}
			}
			got := make(map[int64]bool)
			for _, k := range nw.keys(-1000, 10000) {
				got[k] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("cut %d: committed key %d lost", cut, k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("cut %d: unexpected key %d", cut, k)
				}
			}
			nw.put(9999)
			if len(nw.keys(9999, 9999)) != 1 {
				t.Error("recovered engine rejected an insert")
			}
		})
	}
}

func TestRecoverFromTruncatedLog(t *testing.T) {
	// A checkpoint truncates the log head; a crash after further work
	// must recover correctly from the shortened log.
	w := newWorld(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 40; i++ {
		w.put(int64(i))
	}
	if _, err := recovery.Checkpoint(w.tm, w.pool, w.disk); err != nil {
		t.Fatal(err)
	}
	if w.log.Base() == 0 {
		t.Fatal("checkpoint did not truncate the log head")
	}
	for i := 40; i < 60; i++ {
		w.put(int64(i))
	}
	loser, _ := w.tm.Begin()
	w.putIn(loser, 900)
	w.log.FlushAll()

	nw, stats := w.crashAndRecover(0)
	if got := nw.keys(0, 1000); len(got) != 60 {
		t.Fatalf("keys = %d, want 60", len(got))
	}
	if stats.Losers != 1 {
		t.Errorf("losers = %d", stats.Losers)
	}
	nw.checkTree()
}

func TestCheckpointRespectsActiveTxnBound(t *testing.T) {
	// A long-running transaction's backchain must survive checkpoints:
	// truncation may not pass its first LSN, or its rollback would fail.
	w := newWorld(t, gist.Config{MaxEntries: 6})
	longTx, _ := w.tm.Begin()
	w.putIn(longTx, 500) // early record in the long transaction
	for i := 0; i < 30; i++ {
		w.put(int64(i))
	}
	if _, err := recovery.Checkpoint(w.tm, w.pool, w.disk); err != nil {
		t.Fatal(err)
	}
	// The long transaction can still roll back completely.
	if err := longTx.Abort(); err != nil {
		t.Fatalf("abort after checkpoint: %v", err)
	}
	if got := w.keys(500, 500); len(got) != 0 {
		t.Error("rolled-back key visible")
	}
	if got := w.keys(0, 100); len(got) != 30 {
		t.Errorf("keys = %d", len(got))
	}
}

// TestRedoStatsAllDurableExact asserts exact restart redo stats end to
// end: after a checkpoint (which flushes everything and truncates the log
// head) plus fully-flushed follow-up work, redo must apply nothing —
// Redone == 0 exactly, with every scanned page-touching record counted
// as skipped. The checkpoint's logged DPT carries GC-era recLSNs below
// the truncated head, so the run also exercises the explicit RedoLSN
// head clamp; the old Redone accounting and the unclamped scan both
// break the exact zero. (Without a checkpoint bound, nonzero Redone
// would be correct here: redo resurrects GC-freed pages and replays
// their history.)
func TestRedoStatsAllDurableExact(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	rids := make(map[int64]page.RID)
	for i := 0; i < 40; i++ {
		rids[int64(i)] = w.put(int64(i))
	}
	tx, _ := w.tm.Begin()
	for i := 0; i < 8; i++ {
		if err := w.tree.Delete(tx, btree.EncodeKey(int64(i)), rids[int64(i)]); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	gcTx, _ := w.tm.Begin()
	if err := w.tree.GCAll(gcTx); err != nil {
		t.Fatal(err)
	}
	gcTx.Commit()
	if _, err := recovery.Checkpoint(w.tm, w.pool, w.disk); err != nil {
		t.Fatal(err)
	}
	// Durable post-checkpoint work so the redo scan is guaranteed to
	// visit page-touching records and classify them as skipped.
	for i := 40; i < 45; i++ {
		w.put(int64(i))
	}

	if err := w.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	nw, stats := w.crashAndRecover(0)
	if stats.Redone != 0 {
		t.Errorf("Redone = %d, want exactly 0: every effect was durable", stats.Redone)
	}
	if stats.RedoSkipped == 0 {
		t.Error("RedoSkipped = 0: the durable records were not classified as skipped")
	}
	if got := nw.keys(0, 100); len(got) != 37 {
		t.Fatalf("keys = %d, want 37", len(got))
	}
	nw.checkTree()
}

// TestRecoverLoserWhoseRecordedLeafWasEmptied: a loser's insert record
// names a leaf that a split moved the entry out of, and that GC then
// emptied before the crash. Restart undo starts its rightlink walk at that
// leaf, so GC must not have unlinked it (redo of a Free-Page record frees
// the page at once): the undo succeeds, and a GC pass after restart
// unlinks the leaf.
func TestRecoverLoserWhoseRecordedLeafWasEmptied(t *testing.T) {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	rid10, rid20 := w.put(10), w.put(20)
	w.put(30)
	loser, _ := w.tm.Begin()
	w.putIn(loser, 25)
	w.put(40) // splits the leaf: 25 and 30 move to the new right sibling
	del, _ := w.tm.Begin()
	for k, rid := range map[int64]page.RID{10: rid10, 20: rid20} {
		if err := w.tree.Delete(del, btree.EncodeKey(k), rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	w.gcAll()
	w.log.FlushAll()

	nw, stats := w.crashAndRecover(0)
	if stats.Losers != 1 || stats.Undone != 1 {
		t.Errorf("losers=%d undone=%d, want 1,1", stats.Losers, stats.Undone)
	}
	if got := nw.keys(0, 100); fmt.Sprint(got) != "[30 40]" {
		t.Errorf("keys after recovery = %v, want [30 40]", got)
	}
	nw.gcAll()
	if n := nw.tree.Stats.NodeDeletes.Load(); n != 1 {
		t.Errorf("node deletes after restart = %d, want 1", n)
	}
	nw.checkTree()
}

// gcAll runs one full GC pass in its own committed transaction.
func (w *world) gcAll() {
	w.t.Helper()
	tx, err := w.tm.Begin()
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.tree.GCAll(tx); err != nil {
		w.t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
}

// crashCuts draws the crash points of a sweep over log: cuts that leave n
// distinct log prefixes, the whole log among them. Cuts are drawn from
// 1..span, a bound fixed per sweep rather than read from the log, so the
// cases (named by their cut) stay put when the history logs more or fewer
// records; span itself is always a cut. A cut past the log's end keeps the
// whole log (TruncatedCopy), so the draw goes on until n prefixes are
// covered. No cut falls before the bootstrap transaction's Commit.
func crashCuts(log *wal.Log, rng *rand.Rand, span, n int) map[page.LSN]bool {
	total := log.LastLSN()
	cuts := map[page.LSN]bool{page.LSN(span): true, total: true}
	prefixes := map[page.LSN]bool{total: true}
	for boot := bootstrapCommit(log); len(prefixes) < n; {
		if cut := page.LSN(1 + rng.Intn(span)); cut >= boot {
			cuts[cut] = true
			prefixes[min(cut, total)] = true
		}
	}
	return cuts
}

// bootstrapCommit returns the LSN of the log's first Commit, that of the
// transaction gist.Create formats the tree in. A crash before it leaves no
// tree to open (the bootstrap is a loser and undone).
func bootstrapCommit(l *wal.Log) page.LSN {
	var lsn page.LSN
	l.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecCommit {
			lsn = r.LSN
		}
		return lsn == 0
	})
	return lsn
}
