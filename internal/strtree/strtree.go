// Package strtree specializes the generalized search tree to a B-tree over
// variable-length byte-string keys with lexicographic order. Unlike the
// fixed-width integer B-tree and R-tree extensions, its bounding predicates
// grow and shrink in encoded size as keys union together, exercising the
// engine's variable-length entry paths (in-place replacement with growth,
// page compaction under BP updates).
//
// Encodings (canonical):
//
//	key:   'k' followed by the raw bytes
//	range: 'r' [u16 loLen][lo][u16 hiLen][hi]  — closed interval [lo, hi]
//
// Queries are ranges; Prefix builds the range covering all keys with a
// given prefix.
package strtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

const (
	tagKey   = 'k'
	tagRange = 'r'
)

// EncodeKey encodes a string key. Keys may be empty and may contain any
// bytes.
func EncodeKey(k []byte) []byte {
	out := make([]byte, 1+len(k))
	out[0] = tagKey
	copy(out[1:], k)
	return out
}

// DecodeKey reverses EncodeKey.
func DecodeKey(b []byte) []byte {
	if len(b) < 1 || b[0] != tagKey {
		panic(fmt.Sprintf("strtree: not a key encoding (%d bytes)", len(b)))
	}
	return b[1:]
}

// EncodeRange encodes the closed lexicographic interval [lo, hi].
func EncodeRange(lo, hi []byte) []byte {
	out := make([]byte, 1+2+len(lo)+2+len(hi))
	out[0] = tagRange
	binary.BigEndian.PutUint16(out[1:], uint16(len(lo)))
	copy(out[3:], lo)
	off := 3 + len(lo)
	binary.BigEndian.PutUint16(out[off:], uint16(len(hi)))
	copy(out[off+2:], hi)
	return out
}

// DecodeRange reverses EncodeRange.
func DecodeRange(b []byte) (lo, hi []byte) {
	if len(b) < 5 || b[0] != tagRange {
		panic(fmt.Sprintf("strtree: not a range encoding (%d bytes)", len(b)))
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	lo = b[3 : 3+n]
	off := 3 + n
	m := int(binary.BigEndian.Uint16(b[off:]))
	hi = b[off+2 : off+2+m]
	return lo, hi
}

// Prefix returns the query range matching every key that starts with p.
// The upper bound is p followed by 0xFF padding — sufficient for keys up to
// 64 bytes beyond the prefix, which covers this package's intended use;
// longer keys sort above the bound and would be missed.
func Prefix(p []byte) []byte {
	hi := make([]byte, len(p)+64)
	copy(hi, p)
	for i := len(p); i < len(hi); i++ {
		hi[i] = 0xFF
	}
	return EncodeRange(p, hi)
}

// asRange interprets either encoding as an interval.
func asRange(b []byte) (lo, hi []byte) {
	switch {
	case len(b) >= 1 && b[0] == tagKey:
		k := b[1:]
		return k, k
	case len(b) >= 5 && b[0] == tagRange:
		return DecodeRange(b)
	default:
		panic(fmt.Sprintf("strtree: bad predicate (%d bytes)", len(b)))
	}
}

// Ops implements gist.Ops for lexicographic string B-trees.
type Ops struct{}

// Consistent reports interval intersection under lexicographic order.
func (Ops) Consistent(pred, query []byte) bool {
	plo, phi := asRange(pred)
	qlo, qhi := asRange(query)
	return bytes.Compare(plo, qhi) <= 0 && bytes.Compare(qlo, phi) <= 0
}

// Bounds implements gist.Intervals: the raw bounds of a key or a range,
// ordered lexicographically like Consistent's.
func (Ops) Bounds(b []byte) (lo, hi []byte) { return asRange(b) }

// Union returns the smallest interval covering both inputs, canonically
// encoded as a range.
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
	if bytes.Compare(blo, alo) < 0 {
		alo = blo
	}
	if bytes.Compare(bhi, ahi) > 0 {
		ahi = bhi
	}
	return EncodeRange(alo, ahi)
}

// Penalty orders insertion targets: zero when the key is inside the
// interval; otherwise the distance from the key to the nearer bound, as
// divergenceCost measures it. It depends on that bound alone and does not
// fall as the bound moves away from the key, which the gist.Intervals
// contract asks of it.
func (Ops) Penalty(bp, key []byte) float64 {
	lo, hi := asRange(bp)
	k, _ := asRange(key)
	switch {
	case bytes.Compare(k, lo) < 0:
		return divergenceCost(k, lo)
	case bytes.Compare(k, hi) > 0:
		return divergenceCost(hi, k)
	default:
		return 0
	}
}

// maxShared caps the shared prefix divergenceCost weighs, so its scale
// 2^(-9·shared) stays a normal float64.
const maxShared = 100

// divergenceCost scores how far apart two byte strings a < b are: the
// difference at their first differing byte (the end of a counting as one
// below every byte), scaled by 2^-9 per shared leading byte. A difference
// is at most 256, so a pair that diverges a byte earlier always costs
// more, and moving a away from b — down in byte order — never lowers the
// cost, nor does moving b up. Past maxShared shared bytes every pair costs
// the same.
func divergenceCost(a, b []byte) float64 {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i >= maxShared || i == len(b) {
		return math.Ldexp(1, -9*maxShared)
	}
	da := -1
	if i < len(a) {
		da = int(a[i])
	}
	return math.Ldexp(float64(int(b[i])-da), -9*i)
}

// PickSplit sorts by lower bound and keeps the lower half.
func (Ops) PickSplit(preds [][]byte) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		alo, ahi := asRange(preds[idx[a]])
		blo, bhi := asRange(preds[idx[b]])
		if c := bytes.Compare(alo, blo); c != 0 {
			return c < 0
		}
		return bytes.Compare(ahi, bhi) < 0
	})
	return idx[:(len(idx)+1)/2]
}

// KeyQuery returns the point query [k, k].
func (Ops) KeyQuery(key []byte) []byte {
	k := DecodeKey(key)
	return EncodeRange(k, k)
}
