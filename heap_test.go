package gistdb_test

import (
	"bytes"
	"testing"

	gistdb "repro"
	"repro/internal/btree"
)

// heapReuseSetup commits 60 keys with 400-byte records (three full heap
// pages), deletes key 0 in a transaction left open, and lets a second
// transaction insert and commit more 400-byte records while that delete is
// unfinished. It returns the open deleter and key 0's RID and record.
func heapReuseSetup(t *testing.T, db *gistdb.DB, idx *gistdb.Index) (*gistdb.Tx, gistdb.RID, []byte) {
	t.Helper()
	rec := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 400) }
	tx, _ := db.Begin()
	var rid0 gistdb.RID
	for k := 0; k < 60; k++ {
		rid, err := idx.Insert(tx, btree.EncodeKey(int64(k)), rec(k))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			rid0 = rid
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Begin()
	if err := idx.Delete(t1, btree.EncodeKey(0), rid0); err != nil {
		t.Fatal(err)
	}
	t2, _ := db.Begin()
	for k := 100; k < 105; k++ {
		if _, err := idx.Insert(t2, btree.EncodeKey(int64(k)), rec(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	return t1, rid0, rec(0)
}

// expectKey0 checks that key 0 is indexed at rid with its record intact.
func expectKey0(t *testing.T, db *gistdb.DB, idx *gistdb.Index, rid gistdb.RID, want []byte) {
	t.Helper()
	tx, _ := db.Begin()
	defer tx.Commit()
	hits, err := idx.Search(tx, btree.EncodeRange(0, 0), gistdb.ReadCommitted)
	if err != nil || len(hits) != 1 || hits[0].RID != rid {
		t.Fatalf("key 0: %v %v, want one hit at %v", hits, err, rid)
	}
	if got, err := idx.Fetch(rid); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("key 0 record: %v", err)
	}
}

// TestHeapDeleteRollbackAfterOtherInserts: rolling back a heap delete must
// succeed after another transaction inserted records onto the same heap
// page; the deleted record's bytes stay reserved until the deleter ends.
func TestHeapDeleteRollbackAfterOtherInserts(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, _ := db.CreateIndex("k", btree.Ops{})
	t1, rid0, rec0 := heapReuseSetup(t, db, idx)
	if err := t1.Abort(); err != nil {
		t.Fatalf("abort of the delete: %v", err)
	}
	expectKey0(t, db, idx, rid0, rec0)
	if n := gistdb.HeapPending(db); n != 0 {
		t.Errorf("%d heap deletes still pending after the abort", n)
	}
}

// TestHeapDeleteLoserAfterOtherInserts is the restart form of the same
// history: the unfinished deleter becomes a restart loser, and its undo
// must find room to restore the record.
func TestHeapDeleteLoserAfterOtherInserts(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := db.CreateIndex("k", btree.Ops{})
	_, rid0, rec0 := heapReuseSetup(t, db, idx)
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("k", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	expectKey0(t, db2, idx2, rid0, rec0)
	if rep, err := idx2.Check(); err != nil || rep.Entries != 65 {
		t.Fatalf("check after restart: %+v %v", rep, err)
	}
}

// TestHeapDeleteCommitFreesSlot: commit and abort end a delete's heap
// reservation, so nothing stays pending and another transaction's insert
// reuses the freed slot.
func TestHeapDeleteCommitFreesSlot(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, _ := db.CreateIndex("k", btree.Ops{})
	var last gistdb.RID
	for k := 0; k < 10; k++ {
		tx, _ := db.Begin()
		rid, err := idx.Insert(tx, btree.EncodeKey(int64(k)), []byte("round"))
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && rid != last {
			t.Fatalf("round %d: insert landed at %v, want the slot freed by round %d at %v", k, rid, k-1, last)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx, _ = db.Begin()
		if err := idx.Delete(tx, btree.EncodeKey(int64(k)), rid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		last = rid
	}
	if n := gistdb.HeapPending(db); n != 0 {
		t.Fatalf("%d heap deletes pending after every deleter committed", n)
	}
	tx, _ := db.Begin()
	rid, err := idx.Insert(tx, btree.EncodeKey(99), []byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if rid != last {
		t.Errorf("insert landed at %v, want the freed slot %v", rid, last)
	}
	tx.Abort()
	if n := gistdb.HeapPending(db); n != 0 {
		t.Errorf("%d heap deletes pending after an abort", n)
	}
}

// TestRestartReusesPartlyFilledHeapPage: a restarted database places new
// records on the heap pages its log names, so the room left on the last
// page before the crash is used, not abandoned for a fresh page.
func TestRestartReusesPartlyFilledHeapPage(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	before, err := idx.Insert(tx, btree.EncodeKey(1), []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ = db2.Begin()
	after, err := idx2.Insert(tx, btree.EncodeKey(2), []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after.Page != before.Page {
		t.Fatalf("record before the crash at %v, the next one after it at %v: want the same heap page", before, after)
	}
}
