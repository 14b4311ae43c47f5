package gist_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
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

// TestRestartRebuildsForwardPages: restart redo repeats history exactly.
// A seeded single-client history — root and recursive splits, BP growth
// and shrink, committed deletes, a GC pass that deletes nodes, and
// rollbacks that write CLRs — is flushed, and its whole log is restarted
// onto a blank disk. Every page the forward run left allocated must come
// back byte for byte, free space and slot layout included: each page
// change is defined once, by its log record's redo action.
func TestRestartRebuildsForwardPages(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	rng := rand.New(rand.NewSource(24))
	rids := map[int64]page.RID{}
	for _, k := range rng.Perm(300) {
		rids[int64(k)] = e.put(int64(k))
	}

	// Committed deletes of whole key runs, so that GC empties leaves.
	tx := e.begin()
	for k := int64(0); k < 100; k++ {
		if err := e.tree.Delete(tx, btree.EncodeKey(k), rids[k]); err != nil {
			t.Fatal(err)
		}
		if err := e.heap.Delete(tx, rids[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rolled-back inserts (some split on the way) and a rolled-back
	// delete: runtime undo writes CLRs for leaf entries and heap records.
	for i := 0; i < 20; i++ {
		tx := e.begin()
		for j := 0; j < 3; j++ {
			e.putIn(tx, int64(1000+rng.Intn(200)*3+j))
		}
		if i == 0 {
			if err := e.tree.Delete(tx, btree.EncodeKey(150), rids[150]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	deletes := e.tree.Stats.NodeDeletes.Load()
	e.gcAll()
	if e.tree.Stats.NodeDeletes.Load() == deletes {
		t.Fatal("GC deleted no node; the history misses node deletion")
	}
	for _, k := range rng.Perm(100) {
		e.put(int64(2000 + k))
	}
	if e.tree.Stats.RootSplits.Load() < 2 {
		t.Fatal("fewer than two root splits; the history misses recursive splits")
	}

	// Quiesced: drain the unlinked pages so both sides agree on which
	// pages are allocated, then make everything durable.
	e.tree.DrainQuarantine()
	if err := e.log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	log := e.log.SurvivingLog()
	disk := storage.NewMemDisk()
	pool := buffer.New(disk, 256, log)
	tm := txn.NewManager(log, lock.NewManager(), predicate.NewManager())
	heap.New(pool).RegisterUndo(tm)
	rec := &recovery.Recovery{Log: log, Pool: pool, Disk: disk, TM: tm, Workers: 1}
	st, err := rec.Run(func() error {
		gist.RegisterRecoveryHandlers(tm, pool)
		return nil
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st.Losers != 0 {
		t.Fatalf("restart found %d losers in a quiesced log", st.Losers)
	}

	fwd, got := e.disk.PageIDs(), disk.PageIDs()
	if !slices.Equal(fwd, got) {
		t.Fatalf("allocated pages differ:\nforward %v\nrestart %v", fwd, got)
	}
	kinds := pageKinds(e.log)
	a, b := make([]byte, page.Size), make([]byte, page.Size)
	bad := 0
	for _, id := range fwd {
		if err := e.disk.ReadPage(id, a); err != nil {
			t.Fatal(err)
		}
		if err := disk.ReadPage(id, b); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(a, b); i >= 0 {
			bad++
			if bad <= 10 {
				t.Errorf("%s page %d differs at offset %d: forward %#x, restart %#x", kinds[id], id, i, a[i], b[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pages differ", bad, len(fwd))
	}
}

// pageKinds labels each page the log names as "tree" or "heap".
func pageKinds(l *wal.Log) map[page.PageID]string {
	kinds := map[page.PageID]string{}
	l.Scan(1, func(r *wal.Record) bool {
		switch r.Type.Base() {
		case wal.RecHeapInsert, wal.RecHeapDelete:
			kinds[r.Pg] = "heap"
		case wal.RecGetPage:
		default:
			if _, ok := kinds[r.Pg]; !ok && r.Pg != page.InvalidPage {
				kinds[r.Pg] = "tree"
			}
		}
		return true
	})
	return kinds
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
