package btree_test

import (
	"math"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist/intervaltest"
)

// TestIntervalsContract checks btree's Bounds against its Consistent.
func TestIntervalsContract(t *testing.T) {
	points := []int64{math.MinInt64, math.MinInt64 + 1, -1000, -1, 0, 1, 2, 3, 5, 8, 1000, math.MaxInt64 - 1, math.MaxInt64}
	intervaltest.Check(t, btree.Ops{}, intervaltest.Domain{
		N:     len(points),
		Key:   func(i int) []byte { return btree.EncodeKey(points[i]) },
		Range: func(i, j int) []byte { return btree.EncodeRange(points[i], points[j]) },
	}, 1)
}
