// Package rtree specializes the generalized search tree to Guttman's
// R-tree: keys are 2-D points or rectangles, bounding predicates are
// minimum bounding rectangles (MBRs), and queries are rectangles matched by
// intersection. This is the canonical non-linear, non-partitioning key
// domain for which the paper's NSN-based link protocol was designed —
// key-range locking and B-link ordering arguments are inapplicable here.
// Insertion follows Guttman's least-enlargement Penalty; nodes split by the
// R*-tree's topological split, which sets how much sibling MBRs overlap and
// so how many paths a window search follows.
//
// Encodings (canonical, so byte equality of predicates is sound):
//
//	point: 16 bytes — x then y, order-preserving float64
//	rect:  32 bytes — xmin, ymin, xmax, ymax
//
// The two are distinguished by length; a point acts as a degenerate rect.
package rtree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Rect is an axis-aligned rectangle (closed on all sides).
type Rect struct {
	XMin, YMin, XMax, YMax float64
}

// Point returns the degenerate rectangle at (x, y).
func Point(x, y float64) Rect { return Rect{x, y, x, y} }

// Valid reports whether the rectangle is non-empty.
func (r Rect) Valid() bool { return r.XMin <= r.XMax && r.YMin <= r.YMax }

// Intersects reports whether two rectangles share any point.
func (r Rect) Intersects(o Rect) bool {
	return r.XMin <= o.XMax && o.XMin <= r.XMax && r.YMin <= o.YMax && o.YMin <= r.YMax
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	return r.XMin <= o.XMin && o.XMax <= r.XMax && r.YMin <= o.YMin && o.YMax <= r.YMax
}

// Union returns the minimum bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		XMin: math.Min(r.XMin, o.XMin),
		YMin: math.Min(r.YMin, o.YMin),
		XMax: math.Max(r.XMax, o.XMax),
		YMax: math.Max(r.YMax, o.YMax),
	}
}

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return (r.XMax - r.XMin) * (r.YMax - r.YMin) }

// Enlargement returns how much r's area grows to accommodate o.
func (r Rect) Enlargement(o Rect) float64 { return r.Union(o).Area() - r.Area() }

// margin returns half the rectangle's perimeter.
func (r Rect) margin() float64 { return (r.XMax - r.XMin) + (r.YMax - r.YMin) }

// overlap returns the area r and o share.
func (r Rect) overlap(o Rect) float64 {
	w := math.Min(r.XMax, o.XMax) - math.Max(r.XMin, o.XMin)
	h := math.Min(r.YMax, o.YMax) - math.Max(r.YMin, o.YMin)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g - %g,%g]", r.XMin, r.YMin, r.XMax, r.YMax)
}

// orderedFloat encodes a float64 so byte comparison matches numeric order
// (and, more importantly here, so encodings are canonical per value).
func orderedFloat(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func unorderedFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// EncodePoint encodes a point key.
func EncodePoint(x, y float64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, orderedFloat(x))
	binary.BigEndian.PutUint64(b[8:], orderedFloat(y))
	return b
}

// DecodePoint reverses EncodePoint.
func DecodePoint(b []byte) (x, y float64) {
	return unorderedFloat(binary.BigEndian.Uint64(b)),
		unorderedFloat(binary.BigEndian.Uint64(b[8:]))
}

// EncodeRect encodes a rectangle predicate or query.
func EncodeRect(r Rect) []byte {
	b := make([]byte, 32)
	binary.BigEndian.PutUint64(b, orderedFloat(r.XMin))
	binary.BigEndian.PutUint64(b[8:], orderedFloat(r.YMin))
	binary.BigEndian.PutUint64(b[16:], orderedFloat(r.XMax))
	binary.BigEndian.PutUint64(b[24:], orderedFloat(r.YMax))
	return b
}

// DecodeRect reverses EncodeRect.
func DecodeRect(b []byte) Rect {
	return Rect{
		XMin: unorderedFloat(binary.BigEndian.Uint64(b)),
		YMin: unorderedFloat(binary.BigEndian.Uint64(b[8:])),
		XMax: unorderedFloat(binary.BigEndian.Uint64(b[16:])),
		YMax: unorderedFloat(binary.BigEndian.Uint64(b[24:])),
	}
}

// AsRect interprets either encoding as a rectangle.
func AsRect(b []byte) Rect {
	switch len(b) {
	case 16:
		x, y := DecodePoint(b)
		return Point(x, y)
	case 32:
		return DecodeRect(b)
	default:
		panic(fmt.Sprintf("rtree: bad predicate length %d", len(b)))
	}
}

// Ops implements gist.Ops for 2-D R-trees with the R*-tree split.
type Ops struct{}

// Consistent reports rectangle intersection.
func (Ops) Consistent(pred, query []byte) bool {
	return AsRect(pred).Intersects(AsRect(query))
}

// Union returns the MBR of both inputs in canonical 32-byte form.
func (Ops) Union(a, b []byte) []byte {
	if a == nil {
		return EncodeRect(AsRect(b))
	}
	if b == nil {
		return EncodeRect(AsRect(a))
	}
	return EncodeRect(AsRect(a).Union(AsRect(b)))
}

// Penalty is Guttman's area enlargement, with area as tiebreaker folded in
// at vanishing weight.
func (Ops) Penalty(bp, key []byte) float64 {
	r := AsRect(bp)
	return r.Enlargement(AsRect(key)) + 1e-9*r.Area()
}

// PickSplit is the R*-tree's topological split (Beckmann, Kriegel,
// Schneider & Seeger, SIGMOD 1990). For each axis it sorts the entries by
// lower and then by upper coordinate and considers every distribution of
// each order into a prefix and a suffix of at least max(1, ⌊2n/5⌋)
// entries. It splits on the axis whose distributions have the least total
// margin, at that axis's distribution whose two MBRs overlap least (ties:
// least total area). Sorting uses the predicates' order-preserving
// encodings, a total order even over ±0, ±Inf and NaN; each distribution's
// MBRs come from prefix and suffix unions, so the split is O(n log n).
func (Ops) PickSplit(preds [][]byte) []int {
	n := len(preds)
	if n < 2 {
		// Degenerate; the tree validates that both sides are non-empty
		// and will reject this, but avoid an index panic here.
		return []int{0}
	}
	minFill := max(1, 2*n/5)
	rects := make([]Rect, n)
	for i, p := range preds {
		rects[i] = AsRect(p)
	}
	type distribution struct {
		axis  int
		upper bool
		k     int // entries that stay: the first k of the sort
	}
	idx := make([]int, n)
	pre, suf := make([]Rect, n), make([]Rect, n)
	var best distribution
	var bestMargin float64
	for axis := 0; axis < 2; axis++ {
		var axisBest distribution
		var margin, overlap, area float64
		for _, upper := range []bool{false, true} {
			sortByCoord(idx, preds, axis, upper)
			pre[0], suf[n-1] = rects[idx[0]], rects[idx[n-1]]
			for i := 1; i < n; i++ {
				pre[i] = pre[i-1].Union(rects[idx[i]])
				suf[n-1-i] = suf[n-i].Union(rects[idx[n-1-i]])
			}
			for k := minFill; k <= n-minFill; k++ {
				a, b := pre[k-1], suf[k]
				margin += a.margin() + b.margin()
				ov, ar := a.overlap(b), a.Area()+b.Area()
				if axisBest.k == 0 || ov < overlap || ov == overlap && ar < area {
					axisBest, overlap, area = distribution{axis, upper, k}, ov, ar
				}
			}
		}
		if axis == 0 || margin < bestMargin {
			best, bestMargin = axisBest, margin
		}
	}
	sortByCoord(idx, preds, best.axis, best.upper)
	return idx[:best.k]
}

// sortByCoord sets idx to the permutation of preds ordered by their lower
// (or, if upper, upper) encoded coordinate on axis (0 is x, 1 is y), then
// by the other bound, then by position, so a split is the same on every
// call.
func sortByCoord(idx []int, preds [][]byte, axis int, upper bool) {
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		if c := cmp.Compare(coord(preds[i], axis, upper), coord(preds[j], axis, upper)); c != 0 {
			return c
		}
		if c := cmp.Compare(coord(preds[i], axis, !upper), coord(preds[j], axis, !upper)); c != 0 {
			return c
		}
		return i - j
	})
}

// coord reads a predicate's order-preserving encoding of its lower or upper
// bound on axis; a point's two bounds are the same.
func coord(pred []byte, axis int, upper bool) uint64 {
	off := 8 * axis
	if upper && len(pred) == 32 {
		off += 16
	}
	return binary.BigEndian.Uint64(pred[off:])
}

// KeyQuery returns a query matching exactly the given key (the key's own
// rectangle; for a point key, the degenerate rectangle).
func (Ops) KeyQuery(key []byte) []byte {
	return EncodeRect(AsRect(key))
}
