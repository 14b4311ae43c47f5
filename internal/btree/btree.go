// Package btree specializes the generalized search tree to a B-tree, the
// canonical example of [HNP95]: keys are signed 64-bit integers, bounding
// predicates are closed intervals, and queries are intervals too (a point
// lookup is the degenerate interval [k,k]).
//
// Encodings are canonical so that the tree's byte-equality comparison of
// predicates is sound:
//
//	key:      8 bytes — the value, order-preserving (sign bit flipped)
//	interval: 16 bytes — lo then hi, same order-preserving encoding
//
// The two are distinguished by length, which lets a single Consistent
// implementation serve leaf keys and internal BPs uniformly.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// EncodeKey encodes an int64 key so that bytes.Compare on encodings matches
// numeric order.
func EncodeKey(k int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(k)^(1<<63))
	return b
}

// DecodeKey reverses EncodeKey.
func DecodeKey(b []byte) int64 {
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63))
}

// EncodeRange encodes the closed interval [lo, hi].
func EncodeRange(lo, hi int64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, uint64(lo)^(1<<63))
	binary.BigEndian.PutUint64(b[8:], uint64(hi)^(1<<63))
	return b
}

// DecodeRange reverses EncodeRange.
func DecodeRange(b []byte) (lo, hi int64) {
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63)),
		int64(binary.BigEndian.Uint64(b[8:]) ^ (1 << 63))
}

// asRange interprets either encoding as an interval.
func asRange(b []byte) (lo, hi int64) {
	switch len(b) {
	case 8:
		k := DecodeKey(b)
		return k, k
	case 16:
		return DecodeRange(b)
	default:
		panic(fmt.Sprintf("btree: bad predicate length %d", len(b)))
	}
}

// Ops implements gist.Ops for integer B-trees.
type Ops struct{}

// Consistent reports interval intersection.
func (Ops) Consistent(pred, query []byte) bool {
	plo, phi := asRange(pred)
	qlo, qhi := asRange(query)
	return plo <= qhi && qlo <= phi
}

// Bounds implements gist.Intervals: a key is the interval [b, b] and a
// range its two halves, and the encoding preserves numeric order under
// bytes.Compare. Any other length (no valid predicate has one) is read as
// a key.
func (Ops) Bounds(b []byte) (lo, hi []byte) {
	if len(b) == 16 {
		return b[:8], b[8:]
	}
	return b, b
}

// Union returns the smallest interval covering both inputs, in canonical
// 16-byte form.
func (Ops) Union(a, b []byte) []byte {
	if a == nil {
		lo, hi := asRange(b)
		return EncodeRange(lo, hi)
	}
	if b == nil {
		lo, hi := asRange(a)
		return EncodeRange(lo, hi)
	}
	alo, ahi := asRange(a)
	blo, bhi := asRange(b)
	if blo < alo {
		alo = blo
	}
	if bhi > ahi {
		ahi = bhi
	}
	return EncodeRange(alo, ahi)
}

// Penalty is the interval growth needed to accommodate the key: zero when
// contained, else the distance to the nearer boundary. The distance is
// taken exactly, as an unsigned difference, before it is converted: the
// difference of two converted values rounds to 0 for keys past 2^53 that
// differ by a little, and a key outside the interval must cost at least 1
// (the gist.Intervals contract).
func (Ops) Penalty(bp, key []byte) float64 {
	lo, hi := asRange(bp)
	k, _ := asRange(key)
	switch {
	case k < lo:
		return float64(uint64(lo) - uint64(k))
	case k > hi:
		return float64(uint64(k) - uint64(hi))
	default:
		return 0
	}
}

// PickSplit sorts the predicates by lower bound and keeps the lower half on
// the original node — the classic ordered B-tree split, expressed in GiST
// terms.
func (Ops) PickSplit(preds [][]byte) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		alo, ahi := asRange(preds[idx[a]])
		blo, bhi := asRange(preds[idx[b]])
		if alo != blo {
			return alo < blo
		}
		return ahi < bhi
	})
	return idx[:(len(idx)+1)/2]
}

// KeyQuery returns the point query [k, k] for an encoded key.
func (Ops) KeyQuery(key []byte) []byte {
	k := DecodeKey(key)
	return EncodeRange(k, k)
}
