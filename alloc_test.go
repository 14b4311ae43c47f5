package gistdb_test

import (
	"testing"

	gistdb "repro"
	"repro/internal/btree"
)

// TestSearchAllocations pins the heap allocations of a warm point search
// and a warm 100-key ReadCommitted range search through the facade
// (transaction begin and commit included), so the read path's per-entry
// cost cannot grow back silently. A node visit reads slot views off the
// page and probes ReadCommitted record locks without allocating; what
// remains is per-operation set-up plus, per returned entry, the copied key
// and the growth of the result slice and the cursor's seen map. The limits
// are the counts measured with instrumentation compiled in (-tags statsoff
// saves one more); a change that moves them updates them here.
func TestSearchAllocations(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("allocs", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	tx, _ := db.Begin()
	for i := int64(0); i < n; i++ {
		if _, err := idx.Insert(tx, btree.EncodeKey(i), []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	search := func(lo, hi int64, iso gistdb.Isolation, want int) func() {
		q := btree.EncodeRange(lo, hi)
		return func() {
			tx, _ := db.Begin()
			hits, err := idx.Search(tx, q, iso)
			if err != nil || len(hits) != want {
				t.Fatalf("search [%d,%d]: %d hits, %v", lo, hi, len(hits), err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"point/ReadCommitted", search(777, 777, gistdb.ReadCommitted, 1), 16},
		{"point/RepeatableRead", search(777, 777, gistdb.RepeatableRead, 1), 27},
		{"range100/ReadCommitted", search(500, 599, gistdb.ReadCommitted, 100), 139},
	} {
		c.fn() // warm the pools
		got := testing.AllocsPerRun(100, c.fn)
		t.Logf("%s: %.0f allocs/op", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs/op, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestInsertAllocations pins the heap allocations of a committed
// single-key insert through the facade (begin, heap insert, index insert,
// commit), averaged over enough inserts to amortize the occasional split.
// Phase 4 widens each ancestor entry from the entry itself, so the count
// does not grow with the leaf's fan-out. The limit is the count measured
// with instrumentation compiled in (-tags statsoff saves four more); a
// change that moves it updates it here.
func TestInsertAllocations(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("allocs", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	k := int64(0)
	insert := func() {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(k), []byte("record")); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for i := 0; i < 2000; i++ {
		insert() // a multi-level tree, warm pools
	}
	got := testing.AllocsPerRun(1000, insert)
	t.Logf("insert: %.0f allocs/op", got)
	if max := 46.0; got > max {
		t.Errorf("insert: %.0f allocs/op, want at most %.0f", got, max)
	}
}

// TestDeleteAllocations pins the heap allocations of a committed
// single-key delete through the facade (begin, index delete — the
// equality-search descent plus the leaf mark — heap delete, commit). The
// limit is the count measured with instrumentation compiled in (-tags
// statsoff saves four more); a change that moves it updates it here.
func TestDeleteAllocations(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("allocs", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	rids := make([]gistdb.RID, n)
	tx, _ := db.Begin()
	for i := range rids {
		if rids[i], err = idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	k := 0
	del := func() {
		tx, _ := db.Begin()
		if err := idx.Delete(tx, btree.EncodeKey(int64(k)), rids[k]); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		k++
	}
	del() // warm the pools
	got := testing.AllocsPerRun(1000, del)
	t.Logf("delete: %.0f allocs/op", got)
	if max := 29.0; got > max {
		t.Errorf("delete: %.0f allocs/op, want at most %.0f", got, max)
	}
}
