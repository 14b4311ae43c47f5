package gistdb_test

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	gistdb "repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

// countedOps counts the predicates an operation reads through an
// extension: every Consistent and Penalty call, plus every Bounds call
// when the wrapped extension has the Intervals capability
// (countedIntervals forwards it).
type countedOps struct {
	gistdb.Ops
	reads *atomic.Int64
}

func (o countedOps) Consistent(pred, query []byte) bool {
	o.reads.Add(1)
	return o.Ops.Consistent(pred, query)
}

func (o countedOps) Penalty(pred, key []byte) float64 {
	o.reads.Add(1)
	return o.Ops.Penalty(pred, key)
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
// every entry of every visited node, and its split keeps a small window
// to a few leaves.
func TestPointSearchReadsFewPredicates(t *testing.T) {
	db, idx, reads := countedKeys(t, 100_000)
	defer db.Close()
	rng := rand.New(rand.NewSource(2))
	const n = 100_000
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
	for _, k := range probeKeys {
		q := btree.EncodeRange(k, k)
		walk := search(idx, q, 1)
		search(idx, q, 1)
		warm := search(idx, q, 1)
		t.Logf("point %d: %d predicates walked, %d warm", k, walk, warm)
		if warm > 40 {
			t.Errorf("point %d: warm search read %d predicates, want at most 40 (walk: %d)", k, warm, walk)
		}
	}

	win, err := db.CreateIndex("pts", countedOps{rtree.Ops{}, reads})
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
	if first > 400 {
		t.Errorf("rtree window: %d Consistent calls per search, want at most 400", first)
	}
}

// probeKeys are the keys the count tests probe on a countedKeys tree: its
// two ends and two keys inside.
var probeKeys = []int64{0, 4242, 77777, 99_999}

// countedKeys opens an in-memory database with a btree index of the keys
// 0..n-1, inserted in random order in transactions of 1000, whose
// predicate reads go to the returned counter.
func countedKeys(t *testing.T, n int) (*gistdb.DB, *gistdb.Index, *atomic.Int64) {
	t.Helper()
	db, err := gistdb.Open(gistdb.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	reads := new(atomic.Int64)
	idx, err := db.CreateIndex("keys", countedIntervals{countedOps{btree.Ops{}, reads}})
	if err != nil {
		t.Fatal(err)
	}
	keys := rand.New(rand.NewSource(1)).Perm(n)
	for lo := 0; lo < n; lo += 1000 {
		tx, _ := db.Begin()
		for _, k := range keys[lo:min(lo+1000, n)] {
			if _, err := idx.Insert(tx, btree.EncodeKey(int64(k)), []byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return db, idx, reads
}

// TestInsertDescentReadsFewPredicates pins the ordered choose-subtree on a
// 100k-key btree loaded in random order. An insert's descent reads
// Penalty on every entry of a node it has no current order for; its
// second visit at a node's version builds the order, and from then on an
// insert whose key a node's entry contains reads a few predicates there.
// Inserting a key again (the index is not unique) leaves every node above
// the leaf unchanged, so the third insert of a key is warm. An append, a
// key that no entry contains, reads a few predicates per node as well.
func TestInsertDescentReadsFewPredicates(t *testing.T) {
	db, idx, reads := countedKeys(t, 100_000)
	defer db.Close()
	insert := func(k int64) int64 {
		t.Helper()
		tx, _ := db.Begin()
		defer tx.Commit()
		reads.Store(0)
		if _, err := idx.Insert(tx, btree.EncodeKey(k), []byte("again")); err != nil {
			t.Fatal(err)
		}
		return reads.Load()
	}
	for _, k := range probeKeys {
		first := insert(k)
		insert(k)
		warm := insert(k)
		t.Logf("insert %d: %d predicates on the first insert, %d on the third", k, first, warm)
		if warm > 40 {
			t.Errorf("insert %d: warm descent read %d predicates, want at most 40 (first: %d)", k, warm, first)
		}
	}
	// Appends: each key lies past every entry, so the descent widens the
	// rightmost entry of each node on its path, which moves those nodes'
	// latch versions. Each node carries its order across the widening, and
	// the next append finds the nearest entry by binary search.
	for k := int64(100_000); k <= 100_005; k++ {
		n := insert(k)
		t.Logf("append %d: %d predicates", k, n)
		if n > 40 {
			t.Errorf("append %d: read %d predicates, want at most 40", k, n)
		}
	}
}

// leafCountedOps is countedOps that also counts, in leaf, the Consistent
// calls on leaf predicates (16-byte points).
type leafCountedOps struct {
	countedOps
	leaf *atomic.Int64
}

func (o leafCountedOps) Consistent(pred, query []byte) bool {
	if len(pred) == 16 {
		o.leaf.Add(1)
	}
	return o.countedOps.Consistent(pred, query)
}

// TestWindowReadsFewPredicates pins the R-tree split on read_cached's
// R-tree: 50k points uniform in [0,1000)², inserted in random order in
// transactions of 500, searched by windows of side √200 (about 10 hits).
// The extension has no Intervals capability, so a window reads every
// entry of every node it visits, and the leaves it visits are set by how
// much the split lets sibling MBRs overlap: an R*-tree split reads a
// leaf or two per window, a split that mixes distant entries into one
// leaf reads over ten.
func TestWindowReadsFewPredicates(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reads, leaf := new(atomic.Int64), new(atomic.Int64)
	idx, err := db.CreateIndex("pts", leafCountedOps{countedOps{rtree.Ops{}, reads}, leaf})
	if err != nil {
		t.Fatal(err)
	}
	const n, side = 50_000, 1000.0
	rng := rand.New(rand.NewSource(3))
	for lo := 0; lo < n; lo += 500 {
		tx, _ := db.Begin()
		for i := lo; i < lo+500; i++ {
			if _, err := idx.Insert(tx, rtree.EncodePoint(rng.Float64()*side, rng.Float64()*side), []byte("p")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const windows = 200
	w := math.Sqrt(200)
	search := func(q []byte) int {
		t.Helper()
		tx, _ := db.Begin()
		defer tx.Commit()
		hits, err := idx.Search(tx, q, gistdb.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		return len(hits)
	}
	qs := make([][]byte, windows)
	for i := range qs {
		x, y := rng.Float64()*(side-w), rng.Float64()*(side-w)
		qs[i] = rtree.EncodeRect(rtree.Rect{XMin: x, YMin: y, XMax: x + w, YMax: y + w})
		search(qs[i])
	}
	reads.Store(0)
	leaf.Store(0)
	hits := 0
	for _, q := range qs {
		hits += search(q)
	}
	perWindow, leafPerWindow := float64(reads.Load())/windows, float64(leaf.Load())/windows
	rep, err := idx.Check()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d windows, %.1f hits, %.0f Consistent calls (%.0f on leaf predicates, %.1f of %d leaves) per window",
		windows, float64(hits)/windows, perWindow, leafPerWindow, leafPerWindow*float64(rep.Leaves)/float64(rep.Entries), rep.Leaves)
	if perWindow > 600 {
		t.Errorf("%.0f Consistent calls per window, want at most 600", perWindow)
	}
	if leafPerWindow > 400 {
		t.Errorf("%.0f Consistent calls on leaf predicates per window, want at most 400", leafPerWindow)
	}
}
