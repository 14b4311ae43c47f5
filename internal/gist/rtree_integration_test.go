package gist_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"time"

	"errors"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/page"

	"repro/internal/rtree"
	"repro/internal/strtree"
)

// rtreeEnv builds the full stack with R-tree extension methods — the
// multidimensional, non-partitioned key domain the paper's protocol exists
// for.
func rtreeEnv(t *testing.T, maxEntries int) *env {
	return newEnv(t, gist.Config{Ops: rtree.Ops{}, MaxEntries: maxEntries})
}

func (e *env) putPoint(x, y float64) page.RID {
	e.t.Helper()
	tx := e.begin()
	rid, err := e.heap.Insert(tx, []byte(fmt.Sprintf("pt(%g,%g)", x, y)))
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.tree.Insert(tx, rtree.EncodePoint(x, y), rid); err != nil {
		e.t.Fatalf("insert (%g,%g): %v", x, y, err)
	}
	if err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
	return rid
}

func (e *env) queryRect(r rtree.Rect) []gist.SearchResult {
	e.t.Helper()
	tx := e.begin()
	defer func() {
		tx.Commit()
	}()
	rs, err := e.tree.Search(tx, rtree.EncodeRect(r), gist.ReadCommitted)
	if err != nil {
		e.t.Fatalf("rect query %v: %v", r, err)
	}
	return rs
}

func TestRTreePointQueriesAgainstModel(t *testing.T) {
	e := rtreeEnv(t, 8)
	rng := rand.New(rand.NewSource(42))
	type pt struct{ x, y float64 }
	var pts []pt
	for i := 0; i < 400; i++ {
		p := pt{rng.Float64() * 1000, rng.Float64() * 1000}
		pts = append(pts, p)
		e.putPoint(p.x, p.y)
	}

	// Structural invariants hold with MBR predicates.
	c := &check.Checker{Pool: e.pool, Ops: rtree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
	rep, err := c.Check()
	if err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if rep.Entries != 400 {
		t.Fatalf("entries = %d", rep.Entries)
	}
	if rep.Height < 2 {
		t.Errorf("height = %d, expected splits", rep.Height)
	}

	// Window queries against a brute-force model.
	for q := 0; q < 50; q++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		w := rtree.Rect{XMin: x, YMin: y, XMax: x + 100, YMax: y + 100}
		want := 0
		for _, p := range pts {
			if w.Contains(rtree.Point(p.x, p.y)) {
				want++
			}
		}
		got := e.queryRect(w)
		if len(got) != want {
			t.Fatalf("window %v: got %d points, want %d", w, len(got), want)
		}
		for _, r := range got {
			x, y := rtree.DecodePoint(r.Key)
			if !w.Contains(rtree.Point(x, y)) {
				t.Fatalf("window %v returned outside point (%g,%g)", w, x, y)
			}
		}
	}
}

func TestRTreeDeleteAndOverlappingDuplicates(t *testing.T) {
	e := rtreeEnv(t, 6)
	// Many points at the same location — overlapping BPs guaranteed.
	var rids []page.RID
	for i := 0; i < 20; i++ {
		rids = append(rids, e.putPoint(50, 50))
	}
	got := e.queryRect(rtree.Rect{XMin: 49, YMin: 49, XMax: 51, YMax: 51})
	if len(got) != 20 {
		t.Fatalf("co-located points: got %d, want 20", len(got))
	}
	// Delete half.
	tx := e.begin()
	for i := 0; i < 10; i++ {
		if err := e.tree.Delete(tx, rtree.EncodePoint(50, 50), rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	got = e.queryRect(rtree.Rect{XMin: 49, YMin: 49, XMax: 51, YMax: 51})
	if len(got) != 10 {
		t.Fatalf("after deletes: got %d, want 10", len(got))
	}
}

func TestRTreeConcurrentInsertAndQuery(t *testing.T) {
	e := rtreeEnv(t, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 80; i++ {
				x := float64(w*300) + rng.Float64()*200
				y := rng.Float64() * 1000
				tx, err := e.tm.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				rid, _ := e.heap.Insert(tx, []byte("p"))
				if err := e.tree.Insert(tx, rtree.EncodePoint(x, y), rid); err != nil {
					t.Errorf("insert: %v", err)
					tx.Abort()
					return
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	c := &check.Checker{Pool: e.pool, Ops: rtree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
	rep, err := c.Check()
	if err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if rep.Entries != 4*80 {
		t.Errorf("entries = %d, want %d", rep.Entries, 4*80)
	}
	if got := e.queryRect(rtree.Rect{XMin: -1, YMin: -1, XMax: 2000, YMax: 2000}); len(got) != 4*80 {
		t.Errorf("full window: %d", len(got))
	}
}

func TestRTreePhantomPrevention(t *testing.T) {
	// Spatial phantom: a scanner holds a window predicate; an insert of a
	// point inside the window must block.
	e := rtreeEnv(t, 8)
	e.putPoint(500, 500) // outside the window

	scanner := e.begin()
	window := rtree.Rect{XMin: 0, YMin: 0, XMax: 100, YMax: 100}
	rs, err := e.tree.Search(scanner, rtree.EncodeRect(window), gist.RepeatableRead)
	if err != nil || len(rs) != 0 {
		t.Fatalf("window scan: %v %v", rs, err)
	}

	tx := e.begin()
	done := make(chan error, 1)
	go func() {
		rid, _ := e.heap.Insert(tx, []byte("inside"))
		done <- e.tree.Insert(tx, rtree.EncodePoint(50, 50), rid)
	}()
	select {
	case err := <-done:
		t.Fatalf("spatial phantom insert not blocked: %v", err)
	case <-chTimeout(100):
	}
	scanner.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

// chTimeout returns a channel that closes after ms milliseconds.
func chTimeout(ms int) <-chan time.Time { return time.After(time.Duration(ms) * time.Millisecond) }

// TestStringKeysIntegration drives the full stack with variable-length
// string keys: byte-space splits, BP replacements that grow encoded
// predicates in place, prefix queries, deletion and recovery-relevant
// logging all run through the same machinery.
func TestStringKeysIntegration(t *testing.T) {
	e := newEnv(t, gist.Config{Ops: strtree.Ops{}, MaxEntries: 6})
	words := []string{
		"apple", "apricot", "banana", "blueberry", "cherry", "citron",
		"date", "dragonfruit", "elderberry", "fig", "grape", "guava",
		"honeydew", "jackfruit", "kiwi", "kumquat", "lemon", "lime",
		"mango", "melon", "nectarine", "orange", "papaya", "peach",
		"pear", "pineapple", "plum", "pomegranate", "quince", "raspberry",
		"strawberry", "tangerine", "watermelon",
	}
	rids := make(map[string]page.RID)
	for _, w := range words {
		tx := e.begin()
		rid, err := e.heap.Insert(tx, []byte("fruit: "+w))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.tree.Insert(tx, strtree.EncodeKey([]byte(w)), rid); err != nil {
			t.Fatalf("insert %q: %v", w, err)
		}
		tx.Commit()
		rids[w] = rid
	}

	c := &check.Checker{Pool: e.pool, Ops: strtree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
	rep, err := c.Check()
	if err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if rep.Entries != len(words) {
		t.Fatalf("entries = %d, want %d", rep.Entries, len(words))
	}
	if rep.Height < 2 {
		t.Error("no splits with fanout 6")
	}

	tx := e.begin()
	// Prefix query.
	rs, err := e.tree.Search(tx, strtree.Prefix([]byte("p")), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	wantP := map[string]bool{"papaya": true, "peach": true, "pear": true,
		"pineapple": true, "plum": true, "pomegranate": true}
	if len(rs) != len(wantP) {
		t.Fatalf("prefix p: %d hits, want %d", len(rs), len(wantP))
	}
	for _, r := range rs {
		if !wantP[string(strtree.DecodeKey(r.Key))] {
			t.Errorf("unexpected prefix hit %q", strtree.DecodeKey(r.Key))
		}
	}
	// Range query.
	rs, err = e.tree.Search(tx, strtree.EncodeRange([]byte("kiwi"), []byte("mango")), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 { // kiwi, kumquat, lemon, lime, mango
		t.Fatalf("range [kiwi,mango]: %d hits", len(rs))
	}
	tx.Commit()

	// Delete and unique insert.
	tx2 := e.begin()
	if err := e.tree.Delete(tx2, strtree.EncodeKey([]byte("fig")), rids["fig"]); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	tx3 := e.begin()
	rid, _ := e.heap.Insert(tx3, []byte("dup"))
	if err := e.tree.InsertUnique(tx3, strtree.EncodeKey([]byte("mango")), rid); !errors.Is(err, gist.ErrDuplicate) {
		t.Fatalf("unique: %v", err)
	}
	tx3.Abort()

	tx4 := e.begin()
	defer tx4.Commit()
	rs, err = e.tree.Search(tx4, strtree.Prefix([]byte("fig")), gist.ReadCommitted)
	if err != nil || len(rs) != 0 {
		t.Errorf("deleted fig visible: %d, %v", len(rs), err)
	}
}
