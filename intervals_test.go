package gistdb_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	gistdb "repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

// countedOps counts the predicates a search reads through an extension:
// every Consistent call, plus every Bounds call when the wrapped
// extension has the Intervals capability (countedIntervals forwards it).
type countedOps struct {
	gistdb.Ops
	reads *atomic.Int64
}

func (o countedOps) Consistent(pred, query []byte) bool {
	o.reads.Add(1)
	return o.Ops.Consistent(pred, query)
}

type countedIntervals struct{ countedOps }

func (o countedIntervals) Bounds(pred []byte) (lo, hi []byte) {
	o.reads.Add(1)
	return o.Ops.(gistdb.Intervals).Bounds(pred)
}

// TestPointSearchReadsFewPredicates pins the interval-ordered node search
// on a 100k-key btree loaded in random order. A node's first two visits
// at a page version walk every slot (the second builds the order); from
// the third on, a warm point search reads a few predicates per node. An
// R-tree, whose extension has no Intervals capability, keeps reading
// every entry of every visited node.
func TestPointSearchReadsFewPredicates(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var reads atomic.Int64
	idx, err := db.CreateIndex("keys", countedIntervals{countedOps{btree.Ops{}, &reads}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(n)
	for lo := 0; lo < n; lo += 1000 {
		tx, _ := db.Begin()
		for _, k := range keys[lo : lo+1000] {
			if _, err := idx.Insert(tx, btree.EncodeKey(int64(k)), []byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	search := func(ix *gistdb.Index, q []byte, want int) int64 {
		t.Helper()
		tx, _ := db.Begin()
		defer tx.Commit()
		reads.Store(0)
		hits, err := ix.Search(tx, q, gistdb.ReadCommitted)
		if err != nil || len(hits) != want {
			t.Fatalf("search: %d hits, %v; want %d", len(hits), err, want)
		}
		return reads.Load()
	}
	for _, k := range []int64{0, 4242, 77777, n - 1} {
		q := btree.EncodeRange(k, k)
		walk := search(idx, q, 1)
		search(idx, q, 1)
		warm := search(idx, q, 1)
		t.Logf("point %d: %d predicates walked, %d warm", k, walk, warm)
		if warm > 40 {
			t.Errorf("point %d: warm search read %d predicates, want at most 40 (walk: %d)", k, warm, walk)
		}
	}

	win, err := db.CreateIndex("pts", countedOps{rtree.Ops{}, &reads})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	for i := 0; i < 5000; i++ {
		if _, err := win.Insert(tx, rtree.EncodePoint(rng.Float64()*100, rng.Float64()*100), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	w := rtree.EncodeRect(rtree.Rect{XMin: 40, YMin: 40, XMax: 45, YMax: 45})
	tx, _ = db.Begin()
	hits, err := win.Search(tx, w, gistdb.ReadCommitted)
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	first := search(win, w, len(hits))
	for i := 0; i < 3; i++ {
		if got := search(win, w, len(hits)); got != first {
			t.Errorf("rtree window, warm run %d: %d Consistent calls, want %d like the first", i, got, first)
		}
	}
	t.Logf("rtree window: %d Consistent calls per search", first)
}
