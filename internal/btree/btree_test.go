package btree

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyRoundTripAndOrder(t *testing.T) {
	values := []int64{math.MinInt64, -1e12, -1, 0, 1, 42, 1e12, math.MaxInt64}
	var prev []byte
	for _, v := range values {
		enc := EncodeKey(v)
		if DecodeKey(enc) != v {
			t.Errorf("round trip %d", v)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("encoding order broken at %d", v)
		}
		prev = enc
	}
}

func TestQuickKeyOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := EncodeKey(a), EncodeKey(b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeRoundTrip(t *testing.T) {
	lo, hi := DecodeRange(EncodeRange(-5, 99))
	if lo != -5 || hi != 99 {
		t.Errorf("got [%d,%d]", lo, hi)
	}
}

func TestConsistent(t *testing.T) {
	var ops Ops
	r := EncodeRange(10, 20)
	cases := []struct {
		query []byte
		want  bool
	}{
		{EncodeRange(0, 9), false},
		{EncodeRange(0, 10), true},
		{EncodeRange(15, 16), true},
		{EncodeRange(20, 30), true},
		{EncodeRange(21, 30), false},
		{EncodeKey(10), true},
		{EncodeKey(9), false},
		{EncodeKey(21), false},
	}
	for _, c := range cases {
		if got := ops.Consistent(r, c.query); got != c.want {
			t.Errorf("Consistent([10,20], %v) = %v, want %v", c.query, got, c.want)
		}
	}
	// Key as predicate (leaf entry) against range query.
	if !ops.Consistent(EncodeKey(5), EncodeRange(0, 10)) {
		t.Error("key 5 should match [0,10]")
	}
	if ops.Consistent(EncodeKey(11), EncodeRange(0, 10)) {
		t.Error("key 11 should not match [0,10]")
	}
}

func TestConsistentPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad predicate length")
		}
	}()
	Ops{}.Consistent([]byte{1, 2, 3}, EncodeKey(1))
}

func TestUnion(t *testing.T) {
	var ops Ops
	u := ops.Union(EncodeKey(5), EncodeKey(10))
	lo, hi := DecodeRange(u)
	if lo != 5 || hi != 10 {
		t.Errorf("union = [%d,%d]", lo, hi)
	}
	u = ops.Union(nil, EncodeKey(7))
	lo, hi = DecodeRange(u)
	if lo != 7 || hi != 7 {
		t.Errorf("union(nil, 7) = [%d,%d]", lo, hi)
	}
	u = ops.Union(EncodeRange(0, 3), nil)
	lo, hi = DecodeRange(u)
	if lo != 0 || hi != 3 {
		t.Errorf("union(range, nil) = [%d,%d]", lo, hi)
	}
	// Canonical: unioning with a contained value changes nothing.
	a := ops.Union(EncodeRange(0, 10), EncodeKey(5))
	if !bytes.Equal(a, EncodeRange(0, 10)) {
		t.Error("union not canonical for contained key")
	}
}

func TestQuickUnionCovers(t *testing.T) {
	var ops Ops
	f := func(a, b int64) bool {
		u := ops.Union(EncodeKey(a), EncodeKey(b))
		return ops.Consistent(u, EncodeKey(a)) && ops.Consistent(u, EncodeKey(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPenalty(t *testing.T) {
	var ops Ops
	bp := EncodeRange(10, 20)
	if p := ops.Penalty(bp, EncodeKey(15)); p != 0 {
		t.Errorf("contained penalty = %v", p)
	}
	if p := ops.Penalty(bp, EncodeKey(5)); p != 5 {
		t.Errorf("below penalty = %v", p)
	}
	if p := ops.Penalty(bp, EncodeKey(26)); p != 6 {
		t.Errorf("above penalty = %v", p)
	}
}

// TestPenaltyPastFloatPrecision: a key outside the interval costs at
// least 1 however large the values, and a key inside costs 0 (the
// gist.Intervals contract the ordered insert descent relies on). Past
// 2^53 the difference of two converted values rounds to 0.
func TestPenaltyPastFloatPrecision(t *testing.T) {
	var ops Ops
	const big = int64(1) << 62
	for _, c := range []struct {
		lo, hi, k int64
	}{
		{big + 1, big + 11, big},
		{big - 11, big - 1, big},
		{-big + 1, -big + 11, -big},
		{-big - 11, -big - 1, -big},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64 - 1},
		{math.MinInt64, math.MinInt64, math.MinInt64 + 1},
		{math.MinInt64, math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64, math.MinInt64},
	} {
		bp := EncodeRange(c.lo, c.hi)
		if p := ops.Penalty(bp, EncodeKey(c.k)); p < 1 {
			t.Errorf("Penalty([%d, %d], %d) = %v, want at least 1", c.lo, c.hi, c.k, p)
		}
		for _, k := range []int64{c.lo, c.hi} {
			if p := ops.Penalty(bp, EncodeKey(k)); p != 0 {
				t.Errorf("Penalty([%d, %d], %d) = %v, want 0", c.lo, c.hi, k, p)
			}
		}
	}
	if near, far := ops.Penalty(EncodeRange(big+1, big+11), EncodeKey(big)),
		ops.Penalty(EncodeRange(big+1, big+11), EncodeKey(0)); near >= far {
		t.Errorf("Penalty of the nearer key %v, want below the farther key's %v", near, far)
	}
}

func TestPickSplitOrdersAndBalances(t *testing.T) {
	var ops Ops
	keys := []int64{50, 10, 40, 20, 30, 60, 5}
	preds := make([][]byte, len(keys))
	for i, k := range keys {
		preds[i] = EncodeKey(k)
	}
	stay := ops.PickSplit(preds)
	if len(stay) != 4 {
		t.Fatalf("stay = %d entries, want 4", len(stay))
	}
	var stayKeys, movedKeys []int64
	staySet := make(map[int]bool)
	for _, i := range stay {
		staySet[i] = true
		stayKeys = append(stayKeys, keys[i])
	}
	for i, k := range keys {
		if !staySet[i] {
			movedKeys = append(movedKeys, k)
		}
	}
	sort.Slice(stayKeys, func(a, b int) bool { return stayKeys[a] < stayKeys[b] })
	sort.Slice(movedKeys, func(a, b int) bool { return movedKeys[a] < movedKeys[b] })
	if stayKeys[len(stayKeys)-1] >= movedKeys[0] {
		t.Errorf("split not ordered: stay max %d >= moved min %d", stayKeys[len(stayKeys)-1], movedKeys[0])
	}
}

func TestKeyQuery(t *testing.T) {
	q := Ops{}.KeyQuery(EncodeKey(33))
	lo, hi := DecodeRange(q)
	if lo != 33 || hi != 33 {
		t.Errorf("KeyQuery = [%d,%d]", lo, hi)
	}
}
