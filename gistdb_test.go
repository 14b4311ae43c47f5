package gistdb_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	gistdb "repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

func openMem(t *testing.T) *gistdb.DB {
	t.Helper()
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := idx.Insert(tx, btree.EncodeKey(42), []byte("answer"))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(tx, btree.EncodeRange(40, 45), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].RID != rid {
		t.Fatalf("hits = %v", hits)
	}
	rec, err := idx.Fetch(hits[0].RID)
	if err != nil || string(rec) != "answer" {
		t.Fatalf("fetch = %q, %v", rec, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics()["txn.commits"]; got == 0 {
		t.Error("metrics missing commit")
	}
}

// TestMetricsReportOpenTxnAndPredicate: the merged registry counts an open
// transaction and the search predicate it holds until commit, and both go
// when it commits.
func TestMetricsReportOpenTxnAndPredicate(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(tx, btree.EncodeRange(0, 10), gistdb.RepeatableRead); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m["txn.active"] != 1 || m["predicate.live"] != 1 {
		t.Errorf("open txn holding a predicate: txn.active = %d, predicate.live = %d, want 1 and 1",
			m["txn.active"], m["predicate.live"])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m = db.Metrics()
	if m["txn.active"] != 0 || m["predicate.live"] != 0 {
		t.Errorf("after commit: txn.active = %d, predicate.live = %d, want 0 and 0",
			m["txn.active"], m["predicate.live"])
	}
}

func TestIndexLifecycleErrors(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	if _, err := db.CreateIndex("a", btree.Ops{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("a", btree.Ops{}); !errors.Is(err, gistdb.ErrIndexExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := db.OpenIndex("missing", btree.Ops{}); !errors.Is(err, gistdb.ErrNoSuchIndex) {
		t.Errorf("open missing: %v", err)
	}
	names, err := db.IndexNames()
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Errorf("names = %v, %v", names, err)
	}
}

func TestTwoIndexesDifferentExtensions(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	ints, _ := db.CreateIndex("ints", btree.Ops{})
	pts, _ := db.CreateIndex("points", rtree.Ops{})

	tx, _ := db.Begin()
	if _, err := ints.Insert(tx, btree.EncodeKey(7), []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if _, err := pts.Insert(tx, rtree.EncodePoint(1, 2), []byte("origin-ish")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := db.Begin()
	defer tx2.Commit()
	if hits, _ := ints.Search(tx2, btree.EncodeRange(0, 10), gistdb.ReadCommitted); len(hits) != 1 {
		t.Error("btree index lost entry")
	}
	win := rtree.EncodeRect(rtree.Rect{XMin: 0, YMin: 0, XMax: 5, YMax: 5})
	if hits, _ := pts.Search(tx2, win, gistdb.ReadCommitted); len(hits) != 1 {
		t.Error("rtree index lost entry")
	}
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	db := openMem(t)
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	for i := 0; i < 100; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	// Uncommitted work that must vanish.
	loser, _ := db.Begin()
	idx.Insert(loser, btree.EncodeKey(999), []byte("phantom"))

	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db2.Begin()
	defer tx.Commit()
	hits, err := idx2.Search(tx, btree.EncodeRange(0, 2000), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 100 {
		t.Fatalf("recovered %d entries, want 100", len(hits))
	}
	for _, h := range hits {
		if btree.DecodeKey(h.Key) == 999 {
			t.Error("loser key survived the crash")
		}
		if _, err := idx2.Fetch(h.RID); err != nil {
			t.Errorf("heap record %v lost: %v", h.RID, err)
		}
	}
	if rep, err := idx2.Check(); err != nil || rep.Entries != 100 {
		t.Errorf("check after recovery: %+v, %v", rep, err)
	}
}

func TestFileBackedReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := gistdb.Open(gistdb.Options{Dir: dir, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := gistdb.Open(gistdb.Options{Dir: dir, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db2.Begin()
	defer tx.Commit()
	hits, err := idx2.Search(tx, btree.EncodeRange(0, 100), gistdb.ReadCommitted)
	if err != nil || len(hits) != 50 {
		t.Fatalf("reopened file db: %d hits, %v", len(hits), err)
	}
}

func TestFileBackedDirtyReopenRunsRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := gistdb.Open(gistdb.Options{Dir: dir, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	for i := 0; i < 30; i++ {
		tx, _ := db.Begin()
		idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x"))
		tx.Commit()
	}
	// No Close: drop the handle, reopen the directory ("kill -9").
	db2, err := gistdb.Open(gistdb.Options{Dir: dir, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db2.Begin()
	defer tx.Commit()
	hits, err := idx2.Search(tx, btree.EncodeRange(0, 100), gistdb.ReadCommitted)
	if err != nil || len(hits) != 30 {
		t.Fatalf("dirty reopen: %d hits, %v", len(hits), err)
	}
}

func TestUniqueIndexThroughFacade(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("uniq", btree.Ops{})
	tx, _ := db.Begin()
	if _, err := idx.InsertUnique(tx, btree.EncodeKey(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2, _ := db.Begin()
	if _, err := idx.InsertUnique(tx2, btree.EncodeKey(1), []byte("b")); !errors.Is(err, gistdb.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	tx2.Abort()
}

func TestSavepointThroughFacade(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	tx, _ := db.Begin()
	idx.Insert(tx, btree.EncodeKey(1), []byte("keep"))
	if err := tx.Savepoint("sp"); err != nil {
		t.Fatal(err)
	}
	idx.Insert(tx, btree.EncodeKey(2), []byte("drop"))
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	idx.Insert(tx, btree.EncodeKey(3), []byte("after"))
	tx.Commit()

	tx2, _ := db.Begin()
	defer tx2.Commit()
	hits, _ := idx.Search(tx2, btree.EncodeRange(0, 10), gistdb.ReadCommitted)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2 (keys 1 and 3)", len(hits))
	}
	for _, h := range hits {
		if k := btree.DecodeKey(h.Key); k != 1 && k != 3 {
			t.Errorf("unexpected key %d", k)
		}
	}
}

func TestDeleteAndGCThroughFacade(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	var rids []gistdb.RID
	for i := 0; i < 20; i++ {
		tx, _ := db.Begin()
		rid, _ := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x"))
		tx.Commit()
		rids = append(rids, rid)
	}
	tx, _ := db.Begin()
	for i := 0; i < 10; i++ {
		if err := idx.Delete(tx, btree.EncodeKey(int64(i)), rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	gcTx, _ := db.Begin()
	if err := idx.GC(gcTx); err != nil {
		t.Fatal(err)
	}
	gcTx.Commit()

	rep, err := idx.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 10 || rep.Marked != 0 {
		t.Errorf("entries=%d marked=%d after GC", rep.Entries, rep.Marked)
	}
	if _, err := idx.Fetch(rids[0]); !errors.Is(err, gistdb.ErrNoRecord) {
		t.Errorf("deleted heap record readable: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				_, err = idx.Insert(tx, btree.EncodeKey(int64(w*1000+i)), []byte("r"))
				if err != nil {
					t.Errorf("insert: %v", err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rep, err := idx.Check()
	if err != nil || rep.Entries != 240 {
		t.Fatalf("check: %+v, %v", rep, err)
	}
	if st := idx.TreeStats(); st.Splits == 0 {
		t.Error("expected splits")
	}
}

func TestClosedDBRefusesWork(t *testing.T) {
	db := openMem(t)
	db.Close()
	if _, err := db.Begin(); !errors.Is(err, gistdb.ErrClosed) {
		t.Errorf("Begin after close: %v", err)
	}
	if _, err := db.CreateIndex("x", btree.Ops{}); !errors.Is(err, gistdb.ErrClosed) {
		t.Errorf("CreateIndex after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestCatalogSurvivesCrash(t *testing.T) {
	db := openMem(t)
	db.CreateIndex("one", btree.Ops{})
	db.CreateIndex("two", rtree.Ops{})
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	names, err := db2.IndexNames()
	if err != nil || len(names) != 2 {
		t.Fatalf("names after crash = %v, %v", names, err)
	}
	if _, err := db2.OpenIndex("one", btree.Ops{}); err != nil {
		t.Errorf("open one: %v", err)
	}
	if _, err := db2.OpenIndex("two", rtree.Ops{}); err != nil {
		t.Errorf("open two: %v", err)
	}
}

func TestCursorSavepointRestore(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("ints", btree.Ops{})
	for i := 0; i < 30; i++ {
		tx, _ := db.Begin()
		idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x"))
		tx.Commit()
	}

	tx, _ := db.Begin()
	cur, err := idx.OpenCursor(tx, btree.EncodeRange(0, 100), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	read := 0
	for ; read < 10; read++ {
		if _, ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("next: %v %v", ok, err)
		}
	}
	// Savepoint records the cursor position; updates after it are undone
	// and the cursor resumes where it stood.
	if err := tx.Savepoint("pos"); err != nil {
		t.Fatal(err)
	}
	idx.Insert(tx, btree.EncodeKey(500), []byte("rollback me"))
	// Read a few more past the savepoint.
	for i := 0; i < 5; i++ {
		if _, ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("post-sp next: %v %v", ok, err)
		}
	}
	if err := tx.RollbackTo("pos"); err != nil {
		t.Fatal(err)
	}
	// The cursor replays from position 10; in total we must see exactly
	// the 30 original keys (the rolled-back 500 never appears).
	rest := 0
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if btree.DecodeKey(r.Key) == 500 {
			t.Error("rolled-back key visible to cursor")
		}
		rest++
	}
	if read+rest != 30 {
		t.Errorf("total keys = %d, want 30", read+rest)
	}
	tx.Commit()
}

func TestMultiIndexSharedRecords(t *testing.T) {
	// One heap record indexed by two indexes (secondary-index style via
	// IndexKey); DeleteEntry removes one index's entry while the record
	// and the other index survive.
	db := openMem(t)
	defer db.Close()
	byID, _ := db.CreateIndex("byID", btree.Ops{})
	byLoc, _ := db.CreateIndex("byLoc", rtree.Ops{})

	tx, _ := db.Begin()
	rid, err := byID.Insert(tx, btree.EncodeKey(1001), []byte("store #1001 @ (3,4)"))
	if err != nil {
		t.Fatal(err)
	}
	if err := byLoc.IndexKey(tx, rtree.EncodePoint(3, 4), rid); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := db.Begin()
	hits, _ := byLoc.Search(tx2, rtree.EncodeRect(rtree.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}), gistdb.ReadCommitted)
	if len(hits) != 1 || hits[0].RID != rid {
		t.Fatalf("spatial hits = %v", hits)
	}
	rec, err := byLoc.Fetch(hits[0].RID)
	if err != nil || string(rec) != "store #1001 @ (3,4)" {
		t.Fatalf("fetch = %q %v", rec, err)
	}
	tx2.Commit()

	// Drop only the spatial entry.
	tx3, _ := db.Begin()
	if err := byLoc.DeleteEntry(tx3, rtree.EncodePoint(3, 4), rid); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	tx4, _ := db.Begin()
	defer tx4.Commit()
	if hits, _ := byLoc.Search(tx4, rtree.EncodeRect(rtree.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}), gistdb.ReadCommitted); len(hits) != 0 {
		t.Error("spatial entry survived DeleteEntry")
	}
	if hits, _ := byID.Search(tx4, btree.EncodeRange(1001, 1001), gistdb.ReadCommitted); len(hits) != 1 {
		t.Error("primary entry lost")
	}
	if _, err := byID.Fetch(rid); err != nil {
		t.Errorf("shared record lost: %v", err)
	}
}

func TestDropIndexReclaimsPagesAndSurvivesCrash(t *testing.T) {
	db := openMem(t)
	idx, _ := db.CreateIndex("doomed", btree.Ops{})
	keep, _ := db.CreateIndex("keep", btree.Ops{})
	for i := 0; i < 100; i++ {
		tx, _ := db.Begin()
		idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x"))
		keep.Insert(tx, btree.EncodeKey(int64(i)), []byte("y"))
		tx.Commit()
	}
	if err := db.DropIndex("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenIndex("doomed", btree.Ops{}); !errors.Is(err, gistdb.ErrNoSuchIndex) {
		t.Errorf("dropped index still opens: %v", err)
	}
	names, _ := db.IndexNames()
	if len(names) != 1 || names[0] != "keep" {
		t.Errorf("names = %v", names)
	}
	if err := db.DropIndex("doomed"); !errors.Is(err, gistdb.ErrNoSuchIndex) {
		t.Errorf("double drop: %v", err)
	}

	// The drop is durable across a crash; the surviving index is intact.
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.OpenIndex("doomed", btree.Ops{}); !errors.Is(err, gistdb.ErrNoSuchIndex) {
		t.Errorf("dropped index resurrected by recovery: %v", err)
	}
	keep2, err := db2.OpenIndex("keep", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db2.Begin()
	defer tx.Commit()
	hits, err := keep2.Search(tx, btree.EncodeRange(0, 1000), gistdb.ReadCommitted)
	if err != nil || len(hits) != 100 {
		t.Fatalf("keep index: %d hits, %v", len(hits), err)
	}
	if rep, err := keep2.Check(); err != nil || rep.Entries != 100 {
		t.Errorf("keep check: %+v %v", rep, err)
	}
}

func TestDropUnopenedIndex(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("cold", btree.Ops{})
	tx, _ := db.Begin()
	idx.Insert(tx, btree.EncodeKey(1), []byte("v"))
	tx.Commit()
	// Simulate "not open": drop via a second handle... easiest is a
	// crash-restart where the index was never opened.
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.DropIndex("cold"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.OpenIndex("cold", btree.Ops{}); !errors.Is(err, gistdb.ErrNoSuchIndex) {
		t.Errorf("err = %v", err)
	}
}
