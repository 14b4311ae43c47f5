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
	if len(e.heap.Pages()) < 2 {
		t.Errorf("expected multiple heap pages, got %d", len(e.heap.Pages()))
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
	stale.SetFlags(page.FlagHeap)
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

func TestNotePageIdempotent(t *testing.T) {
	e := newEnv(t)
	e.heap.NotePage(5)
	e.heap.NotePage(5)
	if got := e.heap.Pages(); len(got) != 1 || got[0] != 5 {
		t.Errorf("pages = %v", got)
	}
}
