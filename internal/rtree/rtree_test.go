package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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

// checkSplit fails t unless PickSplit(preds) keeps a duplicate-free set of
// in-range indices with at least max(1, ⌊2n/5⌋) entries on each side, and
// gives the same answer when called again.
func checkSplit(t *testing.T, preds [][]byte) []int {
	t.Helper()
	var ops Ops
	n := len(preds)
	stay := ops.PickSplit(preds)
	minFill := max(1, 2*n/5)
	if len(stay) < minFill || n-len(stay) < minFill {
		t.Fatalf("split of %d keeps %d, want each side at least %d", n, len(stay), minFill)
	}
	seen := make([]bool, n)
	for _, i := range stay {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("split of %d keeps index %d twice or out of range: %v", n, i, stay)
		}
		seen[i] = true
	}
	if again := ops.PickSplit(preds); !slices.Equal(again, stay) {
		t.Fatalf("split of %d: second call kept %v, first %v", n, again, stay)
	}
	return stay
}

// splitInputs returns n predicates drawn by rng: points and rects mixed,
// every fourth a duplicate of an earlier one, with coordinates taken from
// vals when it is non-empty and uniform in [0,1000) otherwise.
func splitInputs(rng *rand.Rand, n int, vals []float64) [][]byte {
	coord := func() float64 {
		if len(vals) > 0 {
			return vals[rng.Intn(len(vals))]
		}
		return rng.Float64() * 1000
	}
	preds := make([][]byte, n)
	for i := range preds {
		switch {
		case i > 0 && i%4 == 0:
			preds[i] = preds[rng.Intn(i)]
		case rng.Intn(3) == 0:
			x, y := coord(), coord()
			w, h := coord(), coord()
			preds[i] = EncodeRect(Rect{math.Min(x, w), math.Min(y, h), math.Max(x, w), math.Max(y, h)})
		default:
			preds[i] = EncodePoint(coord(), coord())
		}
	}
	return preds
}

func TestPickSplitProperties(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"uniform", nil},
		{"signed-zeros", []float64{0, negZero, 1, -1}},
		{"infinities", []float64{-inf, inf, 0, 5}},
		{"huge", []float64{-1e300, 1e300, -math.MaxFloat64, math.MaxFloat64, 1}},
		{"duplicates", []float64{7}},
		{"nan", []float64{math.NaN(), 0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for _, n := range []int{2, 3, 4, 5, 9, 10, 31, 147, 400} {
				checkSplit(t, splitInputs(rng, n, c.vals))
			}
		})
	}
}

// TestPickSplitSeparatesStrips: two horizontal strips far apart, 60
// points in one and 40 in the other, in shuffled slot order. Cutting the
// y order between the strips gives two MBRs with no overlap and the least
// area, and keeps 40% on a side. A split that forces both groups to half
// the entries must mix the strips.
func TestPickSplitSeparatesStrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var preds [][]byte
	for i := 0; i < 100; i++ {
		y := rng.Float64()
		if i >= 60 {
			y += 100
		}
		preds = append(preds, EncodePoint(rng.Float64()*10, y))
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	var low, high int
	for _, i := range checkSplit(t, preds) {
		if _, y := DecodePoint(preds[i]); y < 100 {
			low++
		} else {
			high++
		}
	}
	if !(low == 60 && high == 0 || low == 0 && high == 40) {
		t.Errorf("split kept %d low-strip and %d high-strip points together, want one whole strip", low, high)
	}
}

// FuzzPickSplit holds PickSplit to checkSplit's properties on arbitrary
// predicates: each entry is a kind byte (odd: rect, even: point) then its
// encoded coordinates, any 8 bytes of which decode to some float64.
func FuzzPickSplit(f *testing.F) {
	f.Add(append(EncodePoint(1, 2), append([]byte{1}, EncodeRect(Rect{0, 0, 3, 3})...)...))
	var seed []byte
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.NaN()} {
		seed = append(append(seed, 0), EncodePoint(v, -v)...)
		seed = append(append(seed, 1), EncodeRect(Rect{v, v, 1, 1})...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var preds [][]byte
		for len(data) > 0 && len(preds) < 400 {
			size := 16
			if data[0]%2 == 1 {
				size = 32
			}
			if len(data) < 1+size {
				break
			}
			preds = append(preds, data[1:1+size])
			data = data[1+size:]
		}
		if len(preds) < 2 {
			return
		}
		checkSplit(t, preds)
	})
}
