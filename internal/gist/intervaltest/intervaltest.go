// Package intervaltest checks an extension's gist.Intervals capability
// against its Consistent. Extensions that claim the capability run Check
// from their own tests.
package intervaltest

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gist"
)

// Domain is an ordered run of N points of an extension's key space:
// Key(i) encodes point i as a leaf key and Range(i, j), i <= j, the
// closed range from point i to point j. Point 0 and point N-1 should be
// the extremes of the key space.
type Domain struct {
	N     int
	Key   func(i int) []byte
	Range func(i, j int) []byte
}

// Check fails t unless ops has the Intervals capability and it agrees
// with Consistent. It draws keys and ranges from d — nested, overlapping,
// disjoint, with equal bounds and at the extremes — and, for every
// predicate p and query q among them (and every KeyQuery), requires
// Consistent(p, q) to equal bytes.Compare(lo_p, hi_q) <= 0 &&
// bytes.Compare(lo_q, hi_p) <= 0 under Bounds. It also requires Bounds to
// preserve the points' order, to read a range as its two end keys, and
// to allocate nothing (its bounds alias the predicate). Last it requires
// Penalty(p, key) to be 0 for every key of d within p's bounds and above 0
// for every other, and, for every key, to depend only on the bound of p
// nearer the key and not to fall as that bound moves away from it.
func Check(t testing.TB, ops gist.Ops, d Domain, seed int64) {
	t.Helper()
	iv, ok := ops.(gist.Intervals)
	if !ok {
		t.Fatalf("%T does not implement gist.Intervals", ops)
	}
	last := d.N - 1
	preds := [][]byte{d.Range(0, last), d.Range(0, 0), d.Range(last, last), d.Range(0, last/2), d.Range(last/2, last)}
	for i := 0; i < d.N; i++ {
		preds = append(preds, d.Key(i), ops.KeyQuery(d.Key(i)), d.Range(i, i))
		lo, hi := iv.Bounds(d.Key(i))
		if !bytes.Equal(lo, hi) {
			t.Errorf("Bounds(key %d) = [%x, %x], want equal bounds", i, lo, hi)
		}
		if i > 0 {
			if prev, _ := iv.Bounds(d.Key(i - 1)); bytes.Compare(prev, lo) >= 0 {
				t.Errorf("Bounds does not order key %d below key %d", i-1, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < 4*d.N; n++ {
		a, b := rng.Intn(d.N), rng.Intn(d.N)
		if a > b {
			a, b = b, a
		}
		preds = append(preds, d.Range(a, b))
		if a+1 < b {
			preds = append(preds, d.Range(a+1, b-1)) // nested in the last
		}
	}
	for i := 0; i+1 < d.N; i++ {
		preds = append(preds, d.Range(i, i+1)) // overlaps its neighbours at one point
	}
	for i := 0; i < d.N; i++ {
		for j := i; j < d.N; j++ {
			lo, hi := iv.Bounds(d.Range(i, j))
			klo, _ := iv.Bounds(d.Key(i))
			_, khi := iv.Bounds(d.Key(j))
			if !bytes.Equal(lo, klo) || !bytes.Equal(hi, khi) {
				t.Errorf("Bounds(range %d..%d) = [%x, %x], want [%x, %x]", i, j, lo, hi, klo, khi)
			}
		}
	}
	for _, p := range preds {
		plo, phi := iv.Bounds(p)
		for _, q := range preds {
			qlo, qhi := iv.Bounds(q)
			want := bytes.Compare(plo, qhi) <= 0 && bytes.Compare(qlo, phi) <= 0
			if got := ops.Consistent(p, q); got != want {
				t.Errorf("Consistent(%x, %x) = %v, interval intersection says %v", p, q, got, want)
			}
		}
	}
	for _, p := range preds {
		plo, phi := iv.Bounds(p)
		for i := 0; i < d.N; i++ {
			k, _ := iv.Bounds(d.Key(i))
			in := bytes.Compare(plo, k) <= 0 && bytes.Compare(k, phi) <= 0
			if pen := ops.Penalty(p, d.Key(i)); in && pen != 0 || !in && !(pen > 0) {
				t.Errorf("Penalty(%x, key %d) = %v, want 0 exactly when the key is within the bounds (within: %v)", p, i, pen, in)
			}
		}
	}
	checkPenaltyOrder(t, ops, iv, d, preds)
	for _, p := range preds[:8] {
		if n := testing.AllocsPerRun(10, func() { iv.Bounds(p) }); n != 0 {
			t.Errorf("Bounds(%x) allocates %v times", p, n)
		}
	}
}

// checkPenaltyOrder checks the Intervals contract's clause on Penalty
// outside the bounds: for each key of d, the predicates entirely below it
// sorted by upper bound, from the nearest down, and those entirely above
// it sorted by lower bound, from the nearest up, must have nondecreasing
// penalties, equal for equal bounds.
func checkPenaltyOrder(t testing.TB, ops gist.Ops, iv gist.Intervals, d Domain, preds [][]byte) {
	t.Helper()
	type scored struct {
		pred, bound []byte
		pen         float64
	}
	for i := 0; i < d.N; i++ {
		key := d.Key(i)
		k, _ := iv.Bounds(key)
		var below, above []scored
		for _, p := range preds {
			lo, hi := iv.Bounds(p)
			switch {
			case bytes.Compare(hi, k) < 0:
				below = append(below, scored{p, hi, ops.Penalty(p, key)})
			case bytes.Compare(k, lo) < 0:
				above = append(above, scored{p, lo, ops.Penalty(p, key)})
			}
		}
		slices.SortStableFunc(below, func(a, b scored) int { return bytes.Compare(b.bound, a.bound) })
		slices.SortStableFunc(above, func(a, b scored) int { return bytes.Compare(a.bound, b.bound) })
		for _, side := range [][]scored{below, above} {
			for j := 1; j < len(side); j++ {
				near, far := side[j-1], side[j]
				if far.pen < near.pen || bytes.Equal(far.bound, near.bound) && far.pen != near.pen {
					t.Errorf("key %d: Penalty(%x) = %v with nearer bound %x, Penalty(%x) = %v with bound %x: penalty must depend only on the nearer bound and not fall as it moves away", i, near.pred, near.pen, near.bound, far.pred, far.pen, far.bound)
				}
			}
		}
	}
}
