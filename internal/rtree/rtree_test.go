package rtree

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gist"
)

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Valid() {
		t.Error("valid rect reported invalid")
	}
	if (Rect{5, 5, 1, 1}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if r.Area() != 100 {
		t.Errorf("area = %v", r.Area())
	}
	if !r.Intersects(Rect{5, 5, 15, 15}) {
		t.Error("overlapping rects do not intersect")
	}
	if r.Intersects(Rect{11, 11, 12, 12}) {
		t.Error("disjoint rects intersect")
	}
	if !r.Intersects(Rect{10, 10, 12, 12}) {
		t.Error("edge-touching rects must intersect (closed rects)")
	}
	if !r.Contains(Rect{1, 1, 9, 9}) {
		t.Error("contained rect not contained")
	}
	if r.Contains(Rect{1, 1, 11, 9}) {
		t.Error("overflowing rect contained")
	}
	u := r.Union(Rect{-5, 2, 3, 20})
	if u != (Rect{-5, 0, 10, 20}) {
		t.Errorf("union = %v", u)
	}
	if e := r.Enlargement(Rect{0, 0, 20, 10}); e != 100 {
		t.Errorf("enlargement = %v", e)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestPointEncodingRoundTrip(t *testing.T) {
	cases := [][2]float64{{0, 0}, {1.5, -2.5}, {-1e9, 1e9}, {math.Pi, -math.E}}
	for _, c := range cases {
		x, y := DecodePoint(EncodePoint(c[0], c[1]))
		if x != c[0] || y != c[1] {
			t.Errorf("round trip (%v,%v) = (%v,%v)", c[0], c[1], x, y)
		}
	}
}

func TestRectEncodingRoundTrip(t *testing.T) {
	r := Rect{-3.5, 2, 7.25, 9}
	if got := DecodeRect(EncodeRect(r)); got != r {
		t.Errorf("round trip = %v", got)
	}
}

func TestQuickEncodingRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		gx, gy := DecodePoint(EncodePoint(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsRectPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AsRect([]byte{1, 2, 3})
}

func TestOpsConsistent(t *testing.T) {
	var ops Ops
	bp := EncodeRect(Rect{0, 0, 10, 10})
	if !ops.Consistent(bp, EncodeRect(Rect{5, 5, 6, 6})) {
		t.Error("contained query inconsistent")
	}
	if ops.Consistent(bp, EncodeRect(Rect{20, 20, 30, 30})) {
		t.Error("disjoint query consistent")
	}
	if !ops.Consistent(EncodePoint(3, 3), EncodeRect(Rect{0, 0, 10, 10})) {
		t.Error("point in query rect inconsistent")
	}
	if ops.Consistent(EncodePoint(30, 3), EncodeRect(Rect{0, 0, 10, 10})) {
		t.Error("point outside query rect consistent")
	}
}

func TestOpsUnionCanonical(t *testing.T) {
	var ops Ops
	u := ops.Union(EncodePoint(1, 1), EncodePoint(5, 5))
	if DecodeRect(u) != (Rect{1, 1, 5, 5}) {
		t.Errorf("union = %v", DecodeRect(u))
	}
	if !bytes.Equal(ops.Union(nil, EncodePoint(2, 3)), EncodeRect(Point(2, 3))) {
		t.Error("union(nil, point) not canonical rect")
	}
	if !bytes.Equal(ops.Union(EncodePoint(2, 3), nil), EncodeRect(Point(2, 3))) {
		t.Error("union(point, nil) not canonical rect")
	}
	// Union with contained key is a no-op on the canonical form.
	big := EncodeRect(Rect{0, 0, 10, 10})
	if !bytes.Equal(ops.Union(big, EncodePoint(5, 5)), big) {
		t.Error("union with contained point changed the predicate")
	}
}

func TestQuickUnionCovers(t *testing.T) {
	var ops Ops
	f := func(x1, y1, x2, y2 float64) bool {
		for _, v := range []float64{x1, y1, x2, y2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a, b := EncodePoint(x1, y1), EncodePoint(x2, y2)
		u := AsRect(ops.Union(a, b))
		return u.Contains(Point(x1, y1)) && u.Contains(Point(x2, y2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPenaltyPrefersContainment(t *testing.T) {
	var ops Ops
	small := EncodeRect(Rect{0, 0, 1, 1})
	big := EncodeRect(Rect{0, 0, 100, 100})
	key := EncodePoint(0.5, 0.5)
	if ops.Penalty(small, key) >= ops.Penalty(big, key)+1e-6 {
		t.Error("containment penalties inverted")
	}
	far := EncodePoint(200, 200)
	if ops.Penalty(big, far) <= 0 {
		t.Error("outside key has zero penalty")
	}
}

func TestPickSplitSeparatesClusters(t *testing.T) {
	var ops Ops
	// Two clear clusters: around (0,0) and around (100,100).
	var preds [][]byte
	for i := 0; i < 4; i++ {
		preds = append(preds, EncodePoint(float64(i), float64(i)))
	}
	for i := 0; i < 4; i++ {
		preds = append(preds, EncodePoint(100+float64(i), 100+float64(i)))
	}
	stay := ops.PickSplit(preds)
	if len(stay) < 2 || len(stay) > 6 {
		t.Fatalf("unbalanced split: %d of 8 stay", len(stay))
	}
	// All staying entries must be from one cluster.
	low, high := 0, 0
	for _, i := range stay {
		if i < 4 {
			low++
		} else {
			high++
		}
	}
	if low != 0 && high != 0 {
		t.Errorf("split mixed the clusters: %d low, %d high stay together", low, high)
	}
}

func TestPickSplitBalanceForced(t *testing.T) {
	var ops Ops
	// Identical rectangles: split must still balance.
	var preds [][]byte
	for i := 0; i < 10; i++ {
		preds = append(preds, EncodePoint(1, 1))
	}
	stay := ops.PickSplit(preds)
	if len(stay) < 2 || len(stay) > 8 {
		t.Errorf("identical-entry split kept %d of 10", len(stay))
	}
	if got := ops.PickSplit([][]byte{EncodePoint(0, 0)}); len(got) != 1 {
		t.Errorf("single-entry split = %v", got)
	}
}

func TestKeyQuery(t *testing.T) {
	q := Ops{}.KeyQuery(EncodePoint(4, 5))
	if DecodeRect(q) != Point(4, 5) {
		t.Errorf("KeyQuery = %v", DecodeRect(q))
	}
}

// TestNoIntervals: a rectangle is not an interval under byte order, so
// the R-tree extension must not claim the capability; window searches
// keep testing every entry of a visited node.
func TestNoIntervals(t *testing.T) {
	if _, ok := any(Ops{}).(gist.Intervals); ok {
		t.Fatal("rtree.Ops implements gist.Intervals")
	}
}
