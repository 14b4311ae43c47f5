package main

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"repro"
	"repro/internal/rtree"
)

// gen derives every input of a run from the seed: keys, records, points,
// windows and the order of operations. All of it is produced before the
// timed phase; records are recomputed from their key when checked.
type gen struct {
	seed int64
	salt uint64
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, salt: uint64(seed)*0x9E3779B97F4A7C15 + 1}
}

// rng returns an independent stream for one purpose of the run.
func (g *gen) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + stream))
}

// record returns the size-byte record stored under key k.
func (g *gen) record(k int64, size int) []byte {
	buf := make([]byte, size)
	binary.BigEndian.PutUint64(buf, uint64(k))
	x := uint64(k) ^ g.salt
	for i := 8; i < size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
	return buf
}

// perm returns a seeded permutation of [0, n).
func (g *gen) perm(stream int64, n int) []int64 {
	p := g.rng(stream).Perm(n)
	out := make([]int64, n)
	for i, v := range p {
		out[i] = int64(v)
	}
	return out
}

// points returns n seeded points uniform in [0, side)².
func (g *gen) points(stream int64, n int, side float64) []rtree.Rect {
	r := g.rng(stream)
	out := make([]rtree.Rect, n)
	for i := range out {
		out[i] = rtree.Point(r.Float64()*side, r.Float64()*side)
	}
	return out
}

// windowAnswer is what a window search returned, kept to be checked after
// the timed phase.
type windowAnswer struct {
	w   rtree.Rect
	got []rtree.Rect
}

// check compares the answer with a brute-force scan of pts, the points the
// index holds, as a multiset.
func (a windowAnswer) check(pts []rtree.Rect) bool {
	var want []rtree.Rect
	for _, p := range pts {
		if p.Intersects(a.w) {
			want = append(want, p)
		}
	}
	if len(want) != len(a.got) {
		return false
	}
	sortRects(want)
	got := append([]rtree.Rect(nil), a.got...)
	sortRects(got)
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

func sortRects(r []rtree.Rect) {
	sort.Slice(r, func(i, j int) bool {
		if r[i].XMin != r[j].XMin {
			return r[i].XMin < r[j].XMin
		}
		return r[i].YMin < r[j].YMin
	})
}

// decodeHits turns window hits back into points.
func decodeHits(hits []gistdb.SearchResult) []rtree.Rect {
	out := make([]rtree.Rect, len(hits))
	for i, h := range hits {
		out[i] = rtree.Point(rtree.DecodePoint(h.Key))
	}
	return out
}
