package gist

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/strtree"
)

// splitIntervals is an Intervals extension total over arbitrary bytes: a
// predicate's first half is its lower bound and the rest its upper bound,
// and Consistent is interval intersection. Garbage images stay readable
// through it, so the ordered walk can be checked on any page.
type splitIntervals struct{ btree.Ops }

func (splitIntervals) Bounds(b []byte) (lo, hi []byte) { return b[:len(b)/2], b[len(b)/2:] }

func (s splitIntervals) Consistent(p, q []byte) bool {
	plo, phi := s.Bounds(p)
	qlo, qhi := s.Bounds(q)
	return bytes.Compare(plo, qhi) <= 0 && bytes.Compare(qlo, phi) <= 0
}

// hitSlots lists a hit set's slots in ascending order.
func hitSlots(hits []uint64) []int {
	var out []int
	for w, word := range hits {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// orderOp returns an operation on a bare tree over ops, enough to run the
// match step on views of pages built by hand.
func orderOp(ops Ops) *op {
	iv, _ := ops.(Intervals)
	return &op{t: &Tree{ops: ops, iv: iv}}
}

// consistentSlots is the reference walk: the slots of p whose predicates
// ops.Consistent accepts for q, in slot order.
func consistentSlots(ops Ops, p *page.Page, q []byte) []int {
	var out []int
	for i := 0; i < p.NumSlots(); i++ {
		if pred, ok := p.PredAt(i); ok && ops.Consistent(pred, q) {
			out = append(out, i)
		}
	}
	return out
}

// checkOrderedWalk requires every way matches can answer on p — the walk
// by bounds, the walk that keeps the bounds for a build, and the search
// of an order built from p — to return exactly the reference walk's
// slots, for every query.
func checkOrderedWalk(t *testing.T, ops Ops, p *page.Page, queries [][]byte) {
	t.Helper()
	o := orderOp(ops)
	defer o.exit()
	v := nodeView{f: new(buffer.Frame), p: p, id: p.ID(), ver: 2}
	ord := o.buildOrder(&v)
	due := new(buffer.SlotOrder) // stamped: the next visit at version 2 keeps its bounds
	due.Seen.Store(2)
	for _, q := range queries {
		want := consistentSlots(ops, p, q)
		v.f.Order.Store(nil)
		if got := hitSlots(o.matches(&v, q)); !slices.Equal(got, want) {
			t.Fatalf("query %x: walk by bounds %v, reference %v", q, got, want)
		}
		v.f.Order.Store(due)
		if got := hitSlots(o.matches(&v, q)); !slices.Equal(got, want) {
			t.Fatalf("query %x: walk keeping bounds %v, reference %v", q, got, want)
		}
		if kept := o.buildOrder(&v); !slices.Equal(kept.Slots, ord.Slots) || !slices.Equal(kept.MaxHi, ord.MaxHi) {
			t.Fatalf("query %x: order from the kept bounds %v/%v, from the page %v/%v", q, kept.Slots, kept.MaxHi, ord.Slots, ord.MaxHi)
		}
		hits := o.scratch().hits[:(min(p.NumSlots(), maxSlots)+63)/64]
		clear(hits)
		if !o.orderedMatches(p, ord, q, hits) {
			t.Fatalf("ordered walk gave up on a page its order was built from (query %x)", q)
		}
		if got := hitSlots(hits); !slices.Equal(got, want) {
			t.Fatalf("query %x: ordered walk %v, reference %v", q, got, want)
		}
		v.f.Order.Store(ord)
		if got := hitSlots(o.matches(&v, q)); !slices.Equal(got, want) {
			t.Fatalf("query %x: matches with the order %v, reference %v", q, got, want)
		}
	}
}

// randomNode fills a page of the given level with entries whose
// predicates pred draws, interleaved with bodies of the wrong length;
// then it delete-marks (leaf) and kills some of them.
func randomNode(rng *rand.Rand, level uint16, pred func() []byte) *page.Page {
	p := page.New(7, level)
	leaf := level == 0
	n := rng.Intn(400)
	for i := 0; i < n; i++ {
		e := page.Entry{Pred: pred(), Child: page.PageID(100 + i), RID: page.RID{Page: 5, Slot: uint16(i)}}
		body := e.Encode(leaf)
		if rng.Intn(16) == 0 { // a body PredAt rejects
			if rng.Intn(2) == 0 {
				body = append(body, 0)
			} else {
				body = body[:len(body)-1]
			}
		}
		if _, err := p.InsertBytes(body); err != nil {
			break
		}
	}
	for i := 0; i < p.NumSlots(); i++ {
		switch rng.Intn(10) {
		case 0:
			_ = p.KillSlot(i)
		case 1:
			if _, ok := p.PredAt(i); ok && leaf {
				_ = p.MarkDeleted(i, 3)
			}
		}
	}
	return p
}

// btreeDraw draws btree keys and ranges from a small domain, so that
// duplicates, equal bounds, nesting and overlap are common, with the
// int64 extremes now and then.
func btreeDraw(rng *rand.Rand) (key, rng2 func() []byte) {
	point := func() int64 {
		switch rng.Intn(20) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return rng.Int63n(200) - 100
	}
	key = func() []byte { return btree.EncodeKey(point()) }
	rng2 = func() []byte {
		a, b := point(), point()
		if a > b {
			a, b = b, a
		}
		return btree.EncodeRange(a, b)
	}
	return key, rng2
}

// strtreeDraw draws strtree keys and ranges over a small alphabet, with
// strings sharing long prefixes.
func strtreeDraw(rng *rand.Rand) (key, rng2 func() []byte) {
	str := func() []byte {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "\x00ab\xff"[rng.Intn(4)]
		}
		return b
	}
	key = func() []byte { return strtree.EncodeKey(str()) }
	rng2 = func() []byte {
		a, b := str(), str()
		if bytes.Compare(a, b) > 0 {
			a, b = b, a
		}
		return strtree.EncodeRange(a, b)
	}
	return key, rng2
}

// TestOrderedMatchesEquivalence: on random leaf and internal pages of the
// btree and strtree extensions — overlapping and nested bounding
// predicates, duplicate keys, delete-marked entries, dead slots and
// bodies of the wrong length — the ordered walk returns exactly the slots
// a slot-by-slot walk calling Consistent returns, in the same order.
func TestOrderedMatchesEquivalence(t *testing.T) {
	for _, ext := range []struct {
		name string
		ops  Ops
		draw func(*rand.Rand) (key, rng func() []byte)
	}{
		{"btree", btree.Ops{}, btreeDraw},
		{"strtree", strtree.Ops{}, strtreeDraw},
	} {
		rng := rand.New(rand.NewSource(1))
		key, rngPred := ext.draw(rng)
		for i := 0; i < 100; i++ {
			level := uint16(i % 2)
			pred := key
			if level > 0 {
				pred = rngPred
			}
			p := randomNode(rng, level, pred)
			queries := [][]byte{}
			for j := 0; j < 20; j++ {
				queries = append(queries, rngPred(), ext.ops.KeyQuery(key()))
			}
			t.Run(fmt.Sprintf("%s/%d", ext.name, i), func(t *testing.T) {
				checkOrderedWalk(t, ext.ops, p, queries)
			})
		}
	}
}

// TestLearnOrder pins when an order is built and used: the first visit at
// a version only stamps it, the second builds the order, and an order
// whose page id or version differs from the view's is never searched.
func TestLearnOrder(t *testing.T) {
	// a holds keys 0..49 in ascending slots, b the same keys descending:
	// a's order, searched on b, finds nothing for a query b matches.
	a, b := page.New(7, 0), page.New(8, 0)
	for i := int64(0); i < 50; i++ {
		for _, e := range []struct {
			p *page.Page
			k int64
		}{{a, i}, {b, 49 - i}} {
			if _, err := e.p.InsertEntry(page.Entry{Pred: btree.EncodeKey(e.k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	o := orderOp(btree.Ops{})
	defer o.exit()
	f := new(buffer.Frame)
	v := nodeView{f: f, p: a, id: a.ID(), ver: 2}
	o.learnOrder(&v)
	if ord := f.Order.Load(); ord == nil || ord.Slots != nil || ord.Seen.Load() != 2 {
		t.Fatalf("first visit: want a stamp at version 2, got %+v", ord)
	}
	o.learnOrder(&v)
	built := f.Order.Load()
	if built.Slots == nil || built.Ver != 2 || built.ID != a.ID() {
		t.Fatalf("second visit: want an order of page %d at version 2, got %+v", a.ID(), built)
	}
	o.learnOrder(&v)
	if f.Order.Load() != built {
		t.Fatal("a visit at the order's version replaced it")
	}

	q := btree.EncodeRange(10, 12)
	want := []int{37, 38, 39} // b's slots of keys 12, 11, 10
	if got := hitSlots(o.matches(&nodeView{f: f, p: b, id: a.ID(), ver: 2}, q)); slices.Equal(got, want) {
		t.Fatal("setup: searching a's order on b finds b's answer; the checks below would prove nothing")
	}
	for _, w := range []nodeView{{f: f, p: b, id: b.ID(), ver: 2}, {f: f, p: b, id: a.ID(), ver: 6}} {
		if got := hitSlots(o.matches(&w, q)); !slices.Equal(got, want) {
			t.Fatalf("view of page %d at version %d: %v, want %v (a stale order was searched)", w.id, w.ver, got, want)
		}
	}

	v.ver = 4
	o.learnOrder(&v)
	if f.Order.Load() != built || built.Seen.Load() != 4 {
		t.Fatalf("first visit at version 4: want the old order stamped 4, got seen %d", built.Seen.Load())
	}
}

// FuzzOrderedMatches builds a page from an op stream, scribbles the
// stream over its image, and requires the ordered walk to return the
// reference walk's slots on every image that came out, for queries cut
// from the input. The extension reads any bytes as an interval, so garbage
// predicates are searched too.
func FuzzOrderedMatches(f *testing.F) {
	f.Add([]byte{0, 4, 1, 2, 3, 4, 0, 2, 9, 9, 1, 0, 0, 6, 0, 1, 2, 3, 4, 5}, false)
	f.Add(bytes.Repeat([]byte{0, 3, 7, 1, 2}, 120), true)
	f.Add([]byte{2, 0, 0, 5, 1, 1, 1, 1, 1, 3, 0, 0, 0, 2, 255, 255}, true)
	f.Fuzz(checkOrderedWalkOnImage)
}

// TestOrderedMatchesGarbage runs FuzzOrderedMatches' check on random op
// streams, scribbled and not.
func TestOrderedMatchesGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		data := make([]byte, rng.Intn(4000))
		rng.Read(data)
		for j := 0; j < len(data); j += 1 + rng.Intn(20) {
			data[j] %= 2 // mostly entries, which fill the page
		}
		checkOrderedWalkOnImage(t, data, i%2 == 0)
	}
}

func checkOrderedWalkOnImage(t *testing.T, data []byte, scribble bool) {
	ops := splitIntervals{}
	p := page.New(3, uint16(len(data)%2))
	var queries [][]byte
	for in := data; len(in) >= 2; {
		op, n := in[0]%4, int(in[1])%24
		in = in[2:]
		n = min(n, len(in))
		b := in[:n]
		in = in[n:]
		queries = append(queries, b)
		switch op {
		case 0, 1: // an entry
			e := page.Entry{Pred: b}
			_, _ = p.InsertBytes(e.Encode(p.IsLeaf()))
		case 2: // a raw body, usually of the wrong length
			if len(b) > 0 {
				_, _ = p.InsertBytes(b)
			}
		case 3: // kill a slot
			if p.NumSlots() > 0 {
				_ = p.KillSlot(n % p.NumSlots())
			}
		}
	}
	if scribble && len(data) > 0 {
		img := p.Bytes()
		for i := range img {
			img[i] ^= data[i%len(data)]
		}
	}
	checkOrderedWalk(t, ops, p, append(queries[:min(len(queries), 40)], nil, []byte{0xff, 0xff}))
}

// benchLeaf is a full btree leaf of keys in random order, as a random
// insert order leaves it.
func benchLeaf(b *testing.B) *page.Page {
	rng := rand.New(rand.NewSource(1))
	p := page.New(7, 0)
	for {
		e := page.Entry{Pred: btree.EncodeKey(rng.Int63n(1 << 40)), RID: page.RID{Page: 5, Slot: 1}}
		if _, err := p.InsertEntry(e); err != nil {
			return p
		}
	}
}

// BenchmarkBuildOrder measures one order build over a full leaf: bound
// extraction, the sort and the published arrays.
func BenchmarkBuildOrder(b *testing.B) {
	p := benchLeaf(b)
	o := orderOp(btree.Ops{})
	defer o.exit()
	v := nodeView{f: new(buffer.Frame), p: p, id: p.ID(), ver: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.buildOrder(&v)
	}
	b.ReportMetric(float64(p.NumSlots()), "slots")
}

// BenchmarkMatches measures the match step of a point query on a full
// leaf: the slot-by-slot walk calling Consistent (an extension without
// the capability), the walk by bounds, and the search of the leaf's
// order.
func BenchmarkMatches(b *testing.B) {
	p := benchLeaf(b)
	q := btree.Ops{}.KeyQuery(p.MustEntry(p.NumSlots() / 2).Pred)
	for _, c := range []struct {
		name    string
		ops     Ops
		ordered bool
	}{{"consistent", struct{ Ops }{btree.Ops{}}, false}, {"bounds", btree.Ops{}, false}, {"ordered", btree.Ops{}, true}} {
		b.Run(c.name, func(b *testing.B) {
			o := orderOp(c.ops)
			defer o.exit()
			v := nodeView{f: new(buffer.Frame), p: p, id: p.ID(), ver: 2}
			if c.ordered {
				v.f.Order.Store(o.buildOrder(&v))
			}
			for i := 0; i < b.N; i++ {
				o.matches(&v, q)
			}
		})
	}
}
