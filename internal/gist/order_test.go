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
	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/strtree"
	"repro/internal/wal"
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
		end, ok := o.orderedMatches(p, ord, q, hits)
		if !ok {
			t.Fatalf("ordered walk gave up on a page its order was built from (query %x)", q)
		}
		// On a page of proper intervals (garbage may hold inverted ones) the
		// walk ends past exactly the entries that start at or below q.
		_, qhi := o.t.iv.Bounds(q)
		below, proper := 0, true
		for i := 0; i < p.NumSlots(); i++ {
			if pred, ok := p.PredAt(i); ok {
				lo, hi := o.t.iv.Bounds(pred)
				proper = proper && bytes.Compare(lo, hi) <= 0
				if bytes.Compare(lo, qhi) <= 0 {
					below++
				}
			}
		}
		if proper && end != below {
			t.Fatalf("query %x: ordered walk ended at %d, but %d entries start at or below the query's end", q, end, below)
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
	if built.Slots == nil || built.Ver.Load() != 2 || built.ID != a.ID() {
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

// penaltyCounter forwards an Intervals extension and counts its Penalty
// calls, which only the insert descent's slot-by-slot walk makes.
type penaltyCounter struct {
	Ops
	calls *int
}

func (c penaltyCounter) Bounds(b []byte) (lo, hi []byte) { return c.Ops.(Intervals).Bounds(b) }

func (c penaltyCounter) Penalty(pred, key []byte) float64 {
	*c.calls++
	return c.Ops.Penalty(pred, key)
}

// checkChooseSubtree requires the insert descent's choice on the internal
// page p — with no order on the frame and with a current one — to be
// minPenaltySlot's slot for every key, and its zero flag to say whether
// that slot's penalty is 0. With the order, a key some entry contains must
// be decided without a Penalty call. It returns how many keys were.
func checkChooseSubtree(t testing.TB, ops Ops, p *page.Page, keys [][]byte) (ordered int) {
	t.Helper()
	var calls int
	o := orderOp(penaltyCounter{ops, &calls})
	defer o.exit()
	v := nodeView{f: new(buffer.Frame), p: p, id: p.ID(), ver: 2}
	ord := o.buildOrder(&v)
	for _, k := range keys {
		want, pen := o.t.minPenaltySlot(p, k)
		for _, cur := range []*buffer.SlotOrder{nil, ord} {
			v.f.Order.Store(cur)
			calls = 0
			got, zero := o.chooseSubtree(&v, k)
			if got != want || zero != (pen == 0) {
				t.Fatalf("key %x (order %v): chose slot %d (zero %v), minPenaltySlot %d (penalty %v)", k, cur != nil, got, zero, want, pen)
			}
			if cur != nil && zero {
				if calls != 0 {
					t.Fatalf("key %x: a contained key took %d Penalty calls with a current order", k, calls)
				}
				ordered++
			}
		}
	}
	return ordered
}

// btreeNear is a btree bound as keys: the bound and its two neighbours.
func btreeNear(bound []byte) [][]byte {
	k := btree.DecodeKey(bound)
	return [][]byte{btree.EncodeKey(k - 1), bound, btree.EncodeKey(k + 1)}
}

// strtreeNear is a strtree bound as keys: the bound and its successor.
func strtreeNear(bound []byte) [][]byte {
	return [][]byte{strtree.EncodeKey(bound), strtree.EncodeKey(append(slices.Clip(bound), 0))}
}

// TestChooseSubtreeEquivalence: on random internal pages of the btree and
// strtree extensions — overlapping, nested and equal bounding predicates,
// dead slots, bodies of the wrong length and, for btree, the int64
// extremes — the ordered choice of the insert descent is minPenaltySlot's
// for every key drawn and every key at or next to a bound on the page, so
// trees grow exactly as before.
func TestChooseSubtreeEquivalence(t *testing.T) {
	for _, ext := range []struct {
		name string
		ops  Ops
		draw func(*rand.Rand) (key, rng func() []byte)
		near func(bound []byte) [][]byte
	}{
		{"btree", btree.Ops{}, btreeDraw, btreeNear},
		{"strtree", strtree.Ops{}, strtreeDraw, strtreeNear},
	} {
		rng := rand.New(rand.NewSource(2))
		key, rngPred := ext.draw(rng)
		ordered := 0
		for i := 0; i < 50; i++ {
			p := randomNode(rng, 1, rngPred)
			var keys [][]byte
			for j := 0; j < 20; j++ {
				keys = append(keys, key())
			}
			for s := 0; s < p.NumSlots(); s++ {
				if pred, ok := p.PredAt(s); ok && rng.Intn(16) == 0 {
					lo, hi := ext.ops.(Intervals).Bounds(pred)
					keys = append(keys, ext.near(lo)...)
					keys = append(keys, ext.near(hi)...)
				}
			}
			t.Run(fmt.Sprintf("%s/%d", ext.name, i), func(t *testing.T) {
				ordered += checkChooseSubtree(t, ext.ops, p, keys)
			})
		}
		if ordered == 0 {
			t.Errorf("%s: no key was decided by the order", ext.name)
		}
	}
}

// FuzzChooseSubtree builds an internal btree page from an op stream —
// ranges over a small domain with the int64 extremes, dead slots and
// bodies of the wrong length — and requires the ordered choice to equal
// minPenaltySlot for every key of the domain.
func FuzzChooseSubtree(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 15, 30, 0, 0, 255, 1, 0, 0, 40, 40})
	f.Add(bytes.Repeat([]byte{0, 100, 101, 0, 101, 100, 2, 3}, 40))
	f.Add([]byte{0, 255, 255, 0, 0, 0, 0, 128, 128, 1, 1, 0, 1, 254})
	f.Fuzz(checkChooseSubtreeOnStream)
}

// TestChooseSubtreeStreams runs FuzzChooseSubtree's check on random op
// streams.
func TestChooseSubtreeStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		data := make([]byte, rng.Intn(1500))
		rng.Read(data)
		for j := 0; j < len(data); j += 3 {
			data[j] %= 4 // mostly entries
		}
		checkChooseSubtreeOnStream(t, data)
	}
}

// streamPoint maps a byte to a point of the fuzz domain: the int64
// extremes at the ends, small values in between.
func streamPoint(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 255:
		return math.MaxInt64
	}
	return int64(b) - 128
}

func checkChooseSubtreeOnStream(t *testing.T, data []byte) {
	p := page.New(3, 1)
	for in := data; len(in) >= 3; in = in[3:] {
		switch in[0] % 4 {
		case 0, 1: // an entry over [in[1], in[2]], bounds sorted
			lo, hi := streamPoint(min(in[1], in[2])), streamPoint(max(in[1], in[2]))
			e := page.Entry{Pred: btree.EncodeRange(lo, hi), Child: page.PageID(in[1])}
			_, _ = p.InsertEntry(e)
		case 2: // a body PredAt rejects
			_, _ = p.InsertBytes(in[:3])
		case 3: // kill a slot
			if p.NumSlots() > 0 {
				_ = p.KillSlot(int(in[1]) % p.NumSlots())
			}
		}
	}
	keys := make([][]byte, 256)
	for b := range keys {
		keys[b] = btree.EncodeKey(streamPoint(byte(b)))
	}
	checkChooseSubtree(t, btree.Ops{}, p, keys)
}

// TestChooseSubtreeOrders: the insert descent's choice searches only an
// order of the view's page id and version, and the order its visit
// builds is the page's own, even when the pooled scratch still holds
// bounds another visit kept for a build it never made.
func TestChooseSubtreeOrders(t *testing.T) {
	// Slot i > 0 of a and b holds [10i, 10i+9]; slot 0 holds [2000, 3000]
	// on a and [0, 1000] on b. a's order, searched on b, finds slot 12
	// for key 123 and misses slot 0, the first entry containing it.
	a, b := page.New(7, 1), page.New(8, 1)
	for i := int64(0); i < 50; i++ {
		for _, e := range []struct {
			p      *page.Page
			lo, hi int64
		}{{a, 10 * i, 10*i + 9}, {b, 10 * i, 10*i + 9}} {
			if i == 0 {
				e.lo, e.hi = 2000, 3000
				if e.p == b {
					e.lo, e.hi = 0, 1000
				}
			}
			if _, err := e.p.InsertEntry(page.Entry{Pred: btree.EncodeRange(e.lo, e.hi), Child: page.PageID(100 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	o := orderOp(btree.Ops{})
	defer o.exit()
	key := btree.EncodeKey(123)
	want, _ := o.t.minPenaltySlot(b, key)
	f := new(buffer.Frame)
	f.Order.Store(o.buildOrder(&nodeView{f: f, p: a, id: a.ID(), ver: 2}))
	if got, _ := o.chooseSubtree(&nodeView{f: f, p: b, id: a.ID(), ver: 2}, key); got == want {
		t.Fatal("setup: searching a's order on b finds b's answer; the checks below would prove nothing")
	}
	for _, w := range []nodeView{{f: f, p: b, id: b.ID(), ver: 2}, {f: f, p: b, id: a.ID(), ver: 4}} {
		if got, _ := o.chooseSubtree(&w, key); got != want {
			t.Fatalf("view of page %d at version %d chose slot %d, want %d (a stale order was searched)", w.id, w.ver, got, want)
		}
	}

	// A visit of a that keeps its bounds for a build it does not make
	// leaves them in the scratch; b's descent visits then stamp and build.
	due := new(buffer.SlotOrder)
	due.Seen.Store(2)
	fa := new(buffer.Frame)
	fa.Order.Store(due)
	o.matches(&nodeView{f: fa, p: a, id: a.ID(), ver: 2}, btree.EncodeRange(0, 1000))
	if !o.scratch().kept {
		t.Fatal("setup: the visit of a kept no bounds")
	}
	fb := new(buffer.Frame)
	vb := nodeView{f: fb, p: b, id: b.ID(), ver: 2}
	for range 2 {
		o.chooseSubtree(&vb, key)
		o.learnOrder(&vb)
	}
	got, ref := fb.Order.Load(), o.buildOrder(&vb)
	if got.ID != b.ID() || !slices.Equal(got.Slots, ref.Slots) || !slices.Equal(got.MaxHi, ref.MaxHi) {
		t.Fatalf("order built by b's descent: page %d, %v/%v; b's order %v/%v", got.ID, got.Slots, got.MaxHi, ref.Slots, ref.MaxHi)
	}
}

// currentOrder returns f's order if it is current for the frame's page at
// the latch's version, else nil.
func currentOrder(f *buffer.Frame) *buffer.SlotOrder {
	ver, _ := f.Latch.TryOptimistic()
	if ord := f.Order.Load(); ord != nil && ord.ID == f.ID() && ord.Ver.Load() == ver {
		return ord
	}
	return nil
}

// requireBuiltOrder fails t unless ord equals the order buildOrder makes
// from f's page at the latch's version.
func requireBuiltOrder(t *testing.T, o *op, f *buffer.Frame, ord *buffer.SlotOrder, what string) {
	t.Helper()
	ver, _ := f.Latch.TryOptimistic()
	ref := o.buildOrder(&nodeView{f: f, p: &f.Page, id: f.ID(), ver: ver})
	if !slices.Equal(ord.Slots, ref.Slots) || !slices.Equal(ord.MaxHi, ref.MaxHi) {
		t.Fatalf("%s: carried order %v/%v, built %v/%v", what, ord.Slots, ord.MaxHi, ref.Slots, ref.MaxHi)
	}
}

// liveSlots lists the slots of p whose predicates read.
func liveSlots(p *page.Page) []int {
	var out []int
	for i := 0; i < p.NumSlots(); i++ {
		if _, ok := p.PredAt(i); ok {
			out = append(out, i)
		}
	}
	return out
}

// TestCarryOrder: X holds of one to three records — mostly widenings of
// an entry by a key, as the insert's phase 4 logs them, but also entries
// set to any predicate (a shrink or a move) and entries added — on random
// internal pages of the btree and strtree extensions, with the slot hint
// given or not. After each hold the frame's order is either current and
// equal to buildOrder's on the new image, Slots and MaxHi alike, or not
// current at all. A hold that finds only a read stamp at its first
// version carries the stamp to the release version.
func TestCarryOrder(t *testing.T) {
	for _, ext := range []struct {
		name string
		ops  Ops
		draw func(*rand.Rand) (key, rng func() []byte)
	}{
		{"btree", btree.Ops{}, btreeDraw},
		{"strtree", strtree.Ops{}, strtreeDraw},
	} {
		rng := rand.New(rand.NewSource(5))
		key, rngPred := ext.draw(rng)
		o := orderOp(ext.ops)
		holds, carried := 0, 0
		for i := 0; i < 60; i++ {
			f := new(buffer.Frame)
			if err := f.Page.CopyFrom(randomNode(rng, 1, rngPred).Bytes()); err != nil {
				t.Fatal(err)
			}
			lsn := f.Page.LSN()
			for j := 0; j < 30; j++ {
				live := liveSlots(&f.Page)
				if len(live) == 0 {
					break
				}
				ver, _ := f.Latch.TryOptimistic()
				stamped := rng.Intn(4) == 0
				if stamped {
					stamp := new(buffer.SlotOrder)
					stamp.Seen.Store(ver)
					f.Order.Store(stamp)
				} else if currentOrder(f) == nil {
					f.Order.Store(o.buildOrder(&nodeView{f: f, p: &f.Page, id: f.ID(), ver: ver}))
				}
				widened := false
				f.Latch.Acquire(latch.X)
				for r := rng.Intn(3); r >= 0; r-- {
					s := live[rng.Intn(len(live))]
					pred, ok := f.Page.PredAt(s)
					if !ok {
						continue // an earlier record of this hold made it unreadable
					}
					lsn++
					rec := &wal.Record{LSN: lsn, Type: wal.RecParentEntryUpdate, Pg: f.ID(), Pg2: f.Page.ChildAt(s)}
					switch rng.Intn(8) {
					case 0:
						rec.Type, rec.Body = wal.RecInternalEntryAdd, (&page.Entry{Pred: rngPred(), Child: page.PageID(1000 + j)}).Encode(false)
					case 1:
						rec.Body = rngPred()
					default:
						rec.Body = ext.ops.Union(pred, key())
					}
					hint := -1
					if rng.Intn(2) == 0 {
						hint = s
					}
					widened = widened || rec.Type == wal.RecParentEntryUpdate
					_ = o.t.carryOrder(rec, f, hint) // a full page refuses a growing entry
				}
				f.Latch.Release(latch.X)
				holds++
				ver, _ = f.Latch.TryOptimistic()
				if ord := currentOrder(f); ord != nil {
					carried++
					requireBuiltOrder(t, o, f, ord, fmt.Sprintf("%s page %d hold %d", ext.name, i, j))
				}
				if stamped && widened && f.Order.Load().Seen.Load() != ver {
					t.Fatalf("%s page %d hold %d: read stamp %d after a widening, want the release version %d", ext.name, i, j, f.Order.Load().Seen.Load(), ver)
				}
			}
		}
		t.Logf("%s: %d of %d holds carried the order", ext.name, carried, holds)
		if carried < holds/8 {
			t.Errorf("%s: only %d of %d holds carried the order", ext.name, carried, holds)
		}
	}
}

// TestCarryOrderAppends: widenings of the last of a node's disjoint
// entries by ever larger keys, and of middle entries by keys in the gap
// above them, are carried every time, by re-stamping the same order.
func TestCarryOrderAppends(t *testing.T) {
	f := new(buffer.Frame)
	f.Page.Init(f.ID(), 1)
	for i := int64(0); i < 100; i++ {
		if _, err := f.Page.InsertEntry(page.Entry{Pred: btree.EncodeRange(10*i, 10*i+5), Child: page.PageID(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	o := orderOp(btree.Ops{})
	ord := o.buildOrder(&nodeView{f: f, p: &f.Page, id: f.ID(), ver: 0})
	f.Order.Store(ord)
	widen := func(slot int, k int64) {
		t.Helper()
		pred, _ := f.Page.PredAt(slot)
		rec := &wal.Record{LSN: f.Page.LSN() + 1, Type: wal.RecParentEntryUpdate, Pg: f.ID(), Pg2: f.Page.ChildAt(slot), Body: btree.Ops{}.Union(pred, btree.EncodeKey(k))}
		f.Latch.Acquire(latch.X)
		err := o.t.carryOrder(rec, f, slot)
		f.Latch.Release(latch.X)
		if err != nil {
			t.Fatal(err)
		}
		if cur := currentOrder(f); cur != ord {
			t.Fatalf("widening slot %d by %d: order %p (current %v), want %p re-stamped", slot, k, f.Order.Load(), cur != nil, ord)
		}
		requireBuiltOrder(t, o, f, ord, fmt.Sprintf("widening slot %d by %d", slot, k))
	}
	for k := int64(1000); k < 1050; k++ {
		widen(99, k)
	}
	for i := int64(0); i < 99; i += 7 {
		widen(int(i), 10*i+7)
		widen(int(i), 10*i+8)
	}
}
