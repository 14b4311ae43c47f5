package strtree_test

import (
	"testing"

	"repro/internal/gist/intervaltest"
	"repro/internal/strtree"
)

// TestIntervalsContract checks strtree's Bounds against its Consistent,
// over keys that are prefixes of each other, empty, and longer than the
// eight bytes an order build compares first.
func TestIntervalsContract(t *testing.T) {
	points := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x01", "ab", "abc", "abcdefgh1", "abcdefgh2", "abcdefgh2\x00", "abd", "a\xff\xff", "b", "ba", "\xff", "\xff\xff"}
	intervaltest.Check(t, strtree.Ops{}, intervaltest.Domain{
		N:     len(points),
		Key:   func(i int) []byte { return strtree.EncodeKey([]byte(points[i])) },
		Range: func(i, j int) []byte { return strtree.EncodeRange([]byte(points[i]), []byte(points[j])) },
	}, 1)
}
