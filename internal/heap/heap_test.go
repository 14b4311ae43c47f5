package heap

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

type env struct {
	disk *storage.MemDisk
	pool *buffer.Pool
	log  *wal.Log
	tm   *txn.Manager
	heap *File
}

func newEnv(t *testing.T) *env {
	t.Helper()
	d := storage.NewMemDisk()
	l := wal.NewMemLog()
	p := buffer.New(d, 64, l)
	tm := txn.NewManager(l, lock.NewManager(), predicate.NewManager())
	h := New(p)
	h.RegisterUndo(tm)
	return &env{disk: d, pool: p, log: l, tm: tm, heap: h}
}

func TestInsertReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rid, err := e.heap.Insert(tx, []byte("record one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.heap.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "record one" {
		t.Errorf("read = %q", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still readable after commit.
	if got, err := e.heap.Read(rid); err != nil || string(got) != "record one" {
		t.Errorf("after commit: %q %v", got, err)
	}
}

func TestInsertEmptyRejected(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	defer tx.Commit()
	if _, err := e.heap.Insert(tx, nil); err == nil {
		t.Error("empty record accepted")
	}
}

func TestDeleteThenReadFails(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rid, _ := e.heap.Insert(tx, []byte("doomed"))
	if err := e.heap.Delete(tx, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.heap.Read(rid); !errors.Is(err, ErrNoRecord) {
		t.Errorf("read deleted: %v", err)
	}
	if err := e.heap.Delete(tx, rid); !errors.Is(err, ErrNoRecord) {
		t.Errorf("double delete: %v", err)
	}
	tx.Commit()
}

func TestAbortRemovesInsert(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rid, _ := e.heap.Insert(tx, []byte("phantom"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.heap.Read(rid); !errors.Is(err, ErrNoRecord) {
		t.Errorf("aborted insert visible: %v", err)
	}
}

func TestAbortRestoresDelete(t *testing.T) {
	e := newEnv(t)
	tx1, _ := e.tm.Begin()
	rid, _ := e.heap.Insert(tx1, []byte("survivor"))
	tx1.Commit()

	tx2, _ := e.tm.Begin()
	if err := e.heap.Delete(tx2, rid); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := e.heap.Read(rid)
	if err != nil || string(got) != "survivor" {
		t.Errorf("after rollback: %q %v", got, err)
	}
}

func TestRIDStableAcrossDeleteAndReuse(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	a, _ := e.heap.Insert(tx, []byte("aaaa"))
	b, _ := e.heap.Insert(tx, []byte("bbbb"))
	if err := e.heap.Delete(tx, a); err != nil {
		t.Fatal(err)
	}
	// New insert reuses the dead slot; b is untouched.
	c, _ := e.heap.Insert(tx, []byte("cccc"))
	if c != a {
		t.Errorf("dead slot not reused: c=%v a=%v", c, a)
	}
	got, err := e.heap.Read(b)
	if err != nil || string(got) != "bbbb" {
		t.Errorf("b = %q %v", got, err)
	}
	tx.Commit()
}

func TestInsertSpillsToNewPages(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rec := make([]byte, 1024)
	rids := make([]page.RID, 0, 64)
	for i := 0; i < 64; i++ {
		rec[0] = byte(i)
		rid, err := e.heap.Insert(tx, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := make(map[page.PageID]bool)
	for _, rid := range rids {
		pages[rid.Page] = true
	}
	if len(pages) < 2 {
		t.Errorf("expected multiple heap pages, got %d", len(pages))
	}
	for i, rid := range rids {
		got, err := e.heap.Read(rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d: %v %v", i, got[0], err)
		}
	}
	tx.Commit()
}

func TestSavepointRollbackHeap(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	keep, _ := e.heap.Insert(tx, []byte("keep"))
	tx.Savepoint("sp")
	drop, _ := e.heap.Insert(tx, []byte("drop"))
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.heap.Read(drop); !errors.Is(err, ErrNoRecord) {
		t.Errorf("post-savepoint insert visible: %v", err)
	}
	if got, err := e.heap.Read(keep); err != nil || string(got) != "keep" {
		t.Errorf("pre-savepoint insert lost: %q %v", got, err)
	}
	tx.Commit()
}

func TestRedoReplaysInsertAndDelete(t *testing.T) {
	// Exercise the page-oriented redo functions directly on a stale page
	// image, as restart would.
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rid, _ := e.heap.Insert(tx, []byte("redo me"))
	tx.Commit()

	stale := page.New(rid.Page, 0)
	var insRec *wal.Record
	e.log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecHeapInsert {
			insRec = r
		}
		return true
	})
	if insRec == nil {
		t.Fatal("no Heap-Insert record logged")
	}
	if err := Redo(insRec, stale); err != nil {
		t.Fatal(err)
	}
	if stale.LSN() != insRec.LSN {
		t.Errorf("pageLSN = %d, want %d", stale.LSN(), insRec.LSN)
	}
	b, err := stale.SlotBytes(int(rid.Slot))
	if err != nil || !bytes.Equal(b, []byte("redo me")) {
		t.Errorf("redo content %q %v", b, err)
	}

	// Redo of a delete kills the slot.
	del := &wal.Record{Type: wal.RecHeapDelete, RID: rid, Body: []byte("redo me")}
	del.LSN = insRec.LSN + 1
	if err := Redo(del, stale); err != nil {
		t.Fatal(err)
	}
	if !stale.SlotDead(int(rid.Slot)) {
		t.Error("slot alive after delete redo")
	}
	// CLR of the delete brings it back.
	clr := &wal.Record{Type: wal.RecHeapDelete | wal.ClrFlag, RID: rid, Body: []byte("redo me")}
	clr.LSN = del.LSN + 1
	if err := Redo(clr, stale); err != nil {
		t.Fatal(err)
	}
	if b, err := stale.SlotBytes(int(rid.Slot)); err != nil || string(b) != "redo me" {
		t.Errorf("after delete-CLR redo: %q %v", b, err)
	}
	// CLR of an insert kills it again.
	iclr := &wal.Record{Type: wal.RecHeapInsert | wal.ClrFlag, RID: rid}
	iclr.LSN = clr.LSN + 1
	if err := Redo(iclr, stale); err != nil {
		t.Fatal(err)
	}
	if !stale.SlotDead(int(rid.Slot)) {
		t.Error("slot alive after insert-CLR redo")
	}
	// Unknown type rejected.
	if err := Redo(&wal.Record{Type: wal.RecSplit}, stale); err == nil {
		t.Error("Redo accepted a non-heap record")
	}
}

func TestConcurrentInsertsDistinctRIDs(t *testing.T) {
	e := newEnv(t)
	const workers, per = 8, 50
	var mu sync.Mutex
	seen := make(map[page.RID]string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := e.tm.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				rec := []byte(fmt.Sprintf("w%d-i%d", w, i))
				rid, err := e.heap.Insert(tx, rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, dup := seen[rid]; dup {
					t.Errorf("RID %v given to both %q and %q", rid, prev, rec)
				}
				seen[rid] = string(rec)
				mu.Unlock()
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for rid, want := range seen {
		got, err := e.heap.Read(rid)
		if err != nil || string(got) != want {
			t.Errorf("rid %v = %q %v, want %q", rid, got, err, want)
		}
	}
}

// TestConcurrentLargeInserts: records larger than half a page fill a page
// each, so every insert allocates a fresh page. No inserter may take
// another's freshly allocated page and leave it with page.ErrPageFull.
func TestConcurrentLargeInserts(t *testing.T) {
	e := newEnv(t)
	const workers, per = 16, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := e.tm.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			rec := make([]byte, page.Size*5/8)
			for i := 0; i < per; i++ {
				rec[0], rec[1] = byte(w), byte(i)
				if _, err := e.heap.Insert(tx, rec); err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					break
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}

// mustInsert inserts rec for tx or fails the test.
func mustInsert(t *testing.T, e *env, tx *txn.Txn, rec []byte) page.RID {
	t.Helper()
	rid, err := e.heap.Insert(tx, rec)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// fill commits n records of size bytes each, byte i of record i set to i.
func fill(t *testing.T, e *env, n, size int) []page.RID {
	t.Helper()
	tx, _ := e.tm.Begin()
	rids := make([]page.RID, n)
	for i := range rids {
		rec := bytes.Repeat([]byte{byte(i)}, size)
		rids[i] = mustInsert(t, e, tx, rec)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.heap.TxnFinished(tx.ID())
	return rids
}

// TestRollbackDeleteKeepsItsBytes: the bytes a delete frees stay reserved
// for the deleter until it finishes, so another transaction's inserts
// cannot compact them away and leave the deleter's rollback without room
// to restore the record.
func TestRollbackDeleteKeepsItsBytes(t *testing.T) {
	e := newEnv(t)
	rids := fill(t, e, 20, 400) // 20 x 404 bytes: 72 bytes left on the page
	if rids[19].Page != rids[0].Page {
		t.Fatalf("set-up spilled to a second page: %v", rids[19])
	}

	t1, _ := e.tm.Begin()
	if err := e.heap.Delete(t1, rids[0]); err != nil {
		t.Fatal(err)
	}
	// A committed delete on the same page puts it back on the placement
	// list with one record's worth of unreserved space.
	t3, _ := e.tm.Begin()
	if err := e.heap.Delete(t3, rids[1]); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	e.heap.TxnFinished(t3.ID())

	t2, _ := e.tm.Begin()
	for i := 0; i < 3; i++ {
		rid := mustInsert(t, e, t2, bytes.Repeat([]byte{0xee}, 400))
		if rid == rids[0] {
			t.Fatalf("insert %d resurrected the slot of an unfinished delete", i)
		}
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	e.heap.TxnFinished(t2.ID())

	if err := t1.Abort(); err != nil {
		t.Fatalf("rollback of the delete: %v", err)
	}
	e.heap.TxnFinished(t1.ID())
	if got, err := e.heap.Read(rids[0]); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0}, 400)) {
		t.Fatalf("restored record: %v", err)
	}
}

// TestOwnReuseKeepsUndoRoom: the deleter may reuse its own freed bytes,
// but a new slot's directory entry, which undo never gives back, must come
// from unreserved space or the rollback of the delete runs out of room.
func TestOwnReuseKeepsUndoRoom(t *testing.T) {
	e := newEnv(t)
	rids := fill(t, e, 8, 1015) // 8 x 1019 bytes fill the page exactly
	if rids[7].Page != rids[0].Page {
		t.Fatalf("set-up spilled to a second page: %v", rids[7])
	}
	tx, _ := e.tm.Begin()
	if err := e.heap.Delete(tx, rids[0]); err != nil {
		t.Fatal(err)
	}
	if rid := mustInsert(t, e, tx, []byte{1}); rid != rids[0] {
		t.Fatalf("deleter's small insert landed at %v, want its own slot %v", rid, rids[0])
	}
	mustInsert(t, e, tx, make([]byte, 1010))
	if err := tx.Abort(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	for i, rid := range rids {
		if got, err := e.heap.Read(rid); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 1015)) {
			t.Fatalf("record %d after rollback: %v", i, err)
		}
	}
}

// TestTxnFinishedReleasesReservations: once the deleters finish nothing is
// pending, and another transaction's insert reuses the freed slot.
func TestTxnFinishedReleasesReservations(t *testing.T) {
	e := newEnv(t)
	rids := fill(t, e, 10, 100)
	for _, rid := range rids {
		tx, _ := e.tm.Begin()
		if err := e.heap.Delete(tx, rid); err != nil {
			t.Fatal(err)
		}
		if e.heap.Pending() != 1 {
			t.Fatalf("pending = %d during the delete, want 1", e.heap.Pending())
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.heap.TxnFinished(tx.ID())
	}
	if n := e.heap.Pending(); n != 0 {
		t.Fatalf("pending = %d after every deleter finished", n)
	}
	tx, _ := e.tm.Begin()
	reused := mustInsert(t, e, tx, []byte("reuse"))
	if reused != rids[0] {
		t.Errorf("insert landed at %v, want the freed slot %v", reused, rids[0])
	}
	tx.Commit()

	// A rolled-back delete releases its reservation on the spot.
	tx, _ = e.tm.Begin()
	if err := e.heap.Delete(tx, reused); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := e.heap.Pending(); n != 0 {
		t.Errorf("pending = %d after the delete was rolled back", n)
	}
}

// TestPlacementFetchesO1: an insert that finds the newest page full must
// not walk the older full pages before it allocates.
func TestPlacementFetchesO1(t *testing.T) {
	e := newEnv(t)
	tx, _ := e.tm.Begin()
	rec := make([]byte, page.Size*5/8) // one record fills a page
	const pages = 2000
	for i := 0; i < pages; i++ {
		mustInsert(t, e, tx, rec)
	}
	hits, misses := e.pool.Metrics().Value("buffer.hits"), e.pool.Metrics().Value("buffer.misses")
	before := hits + misses
	rid := mustInsert(t, e, tx, rec)
	hits, misses = e.pool.Metrics().Value("buffer.hits"), e.pool.Metrics().Value("buffer.misses")
	if fetched := hits + misses - before; fetched > 2 {
		t.Errorf("insert fetched %d pages, want at most 2", fetched)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := e.heap.Read(rid); err != nil || len(got) != len(rec) {
		t.Errorf("last record: %v", err)
	}
}

// TestConcurrentDeleteInsertAbort: deleters that roll back race inserters
// on shared pages; every rollback must find room to restore its record.
func TestConcurrentDeleteInsertAbort(t *testing.T) {
	e := newEnv(t)
	rids := fill(t, e, 80, 300)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rids); i += workers {
				del, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.heap.Delete(del, rids[i]); err != nil {
					t.Error(err)
					return
				}
				ins, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 3; j++ {
					if _, err := e.heap.Insert(ins, make([]byte, 150+50*j)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := ins.Commit(); err != nil {
					t.Error(err)
				}
				e.heap.TxnFinished(ins.ID())
				if err := del.Abort(); err != nil {
					t.Errorf("rollback of delete %v: %v", rids[i], err)
				}
				e.heap.TxnFinished(del.ID())
			}
		}(w)
	}
	wg.Wait()
	for i, rid := range rids {
		if got, err := e.heap.Read(rid); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 300)) {
			t.Errorf("record %d: %v", i, err)
		}
	}
	if n := e.heap.Pending(); n != 0 {
		t.Errorf("pending = %d after all transactions finished", n)
	}
}
