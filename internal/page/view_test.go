package page

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkViewsMatchDecode asserts that the slot views agree with
// SlotBytes+DecodeEntry on every slot of p (and one index past each end):
// the same slots are accepted, the predicate aliases the same bytes, and
// the fixed fields read the same values.
func checkViewsMatchDecode(t *testing.T, p *Page) {
	t.Helper()
	leaf := p.IsLeaf()
	for i := -1; i <= p.NumSlots(); i++ {
		pred, ok := p.PredAt(i)
		var e Entry
		b, err := p.SlotBytes(i)
		if err == nil {
			e, err = DecodeEntry(b, leaf)
		}
		if ok != (err == nil) {
			t.Fatalf("slot %d (leaf=%v): PredAt ok=%v, DecodeEntry err=%v", i, leaf, ok, err)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(pred, e.Pred) || (len(pred) > 0 && &pred[0] != &e.Pred[0]) {
			t.Fatalf("slot %d: PredAt = %x, DecodeEntry.Pred = %x (must alias the same bytes)", i, pred, e.Pred)
		}
		if leaf {
			key, rid, deleted, ok := p.LeafAt(i)
			if !ok || !bytes.Equal(key, pred) || (len(key) > 0 && &key[0] != &pred[0]) || rid != e.RID || deleted != e.Deleted || p.DeleterAt(i) != e.Deleter {
				t.Fatalf("slot %d: LeafAt = %x %v %v %v deleter %d, DecodeEntry = %x %v %v deleter %d",
					i, key, rid, deleted, ok, p.DeleterAt(i), e.Pred, e.RID, e.Deleted, e.Deleter)
			}
		} else if c := p.ChildAt(i); c != e.Child {
			t.Fatalf("slot %d: ChildAt = %d, DecodeEntry.Child = %d", i, c, e.Child)
		} else if _, _, _, ok := p.LeafAt(i); ok {
			t.Fatalf("slot %d: LeafAt accepts a slot of an internal node", i)
		}
	}
	if leaf {
		return
	}
	// FindChild returns the first accepted slot pointing at each child.
	first := map[PageID]int{}
	for i := 0; i < p.NumSlots(); i++ {
		if _, ok := p.PredAt(i); ok {
			if _, seen := first[p.ChildAt(i)]; !seen {
				first[p.ChildAt(i)] = i
			}
		}
	}
	for child, i := range first {
		if got := p.FindChild(child); got != i {
			t.Fatalf("FindChild(%d) = %d, want slot %d", child, got, i)
		}
	}
}

// touchAllViews calls every slot reader on every slot index of p, plus one
// past each end; on a garbage image none may panic.
func touchAllViews(p *Page) {
	for i := -1; i <= p.NumSlots()+1; i++ {
		p.PredAt(i)
		p.ChildAt(i)
		p.LeafAt(i)
		p.DeleterAt(i)
		p.SlotBytes(i)
		p.Entry(i)
	}
	p.FindChild(1)
	p.FindEntry(RID{Page: 1}, nil, false)
	p.FindRID(RID{Page: 1})
	p.FindBody([]byte{0})
}

func TestSlotViewsLeaf(t *testing.T) {
	p := New(1, 0)
	want := []Entry{
		{Pred: []byte("alpha"), RID: RID{Page: 7, Slot: 3}},
		{Pred: nil, RID: RID{Page: 8, Slot: 0xFFFF}},
		{Pred: []byte("gamma"), RID: RID{Page: 0xFFFFFFFF, Slot: 1}},
	}
	for _, e := range want {
		if _, err := p.InsertEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.MarkDeleted(2, 42); err != nil {
		t.Fatal(err)
	}
	for i, e := range want {
		pred, ok := p.PredAt(i)
		if !ok || !bytes.Equal(pred, e.Pred) {
			t.Fatalf("PredAt(%d) = %q %v, want %q", i, pred, ok, e.Pred)
		}
		key, rid, deleted, ok := p.LeafAt(i)
		if !ok || !bytes.Equal(key, e.Pred) || rid != e.RID || deleted != (i == 2) {
			t.Fatalf("LeafAt(%d) = %q %v %v %v", i, key, rid, deleted, ok)
		}
	}
	if d := p.DeleterAt(2); d != 42 {
		t.Fatalf("DeleterAt(2) = %d, want 42", d)
	}
	if d := p.DeleterAt(0); d != InvalidTxn {
		t.Fatalf("DeleterAt(0) = %d on a live entry", d)
	}
	// The predicate aliases the page: a marked entry's key is read in place.
	pred, _ := p.PredAt(0)
	b, _ := p.SlotBytes(0)
	if &pred[0] != &b[3] {
		t.Fatal("PredAt copied the key instead of aliasing the page")
	}
	checkViewsMatchDecode(t, p)
}

func TestSlotViewsInternal(t *testing.T) {
	p := New(1, 2)
	for i := 0; i < 4; i++ {
		if _, err := p.InsertEntry(Entry{Pred: bytes.Repeat([]byte{byte(i)}, i), Child: PageID(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pred, ok := p.PredAt(i)
		if !ok || len(pred) != i || p.ChildAt(i) != PageID(100+i) {
			t.Fatalf("slot %d: PredAt = %x %v, ChildAt = %d", i, pred, ok, p.ChildAt(i))
		}
	}
	checkViewsMatchDecode(t, p)
}

func TestSlotViewsRejectDeadAndMalformed(t *testing.T) {
	p := New(1, 0)
	leafBody := (&Entry{Pred: []byte("k"), RID: RID{Page: 1, Slot: 1}}).Encode(true)
	internalBody := (&Entry{Pred: []byte("k"), Child: 5}).Encode(false)
	for _, b := range [][]byte{
		leafBody,
		internalBody,               // internal layout on a leaf: wrong length
		leafBody[:len(leafBody)-1], // truncated
		append(append([]byte(nil), leafBody...), 0), // one byte too long
		{0, 0},          // shorter than the flag and length fields
		{0, 0xFF, 0xFF}, // claims a 64 KiB predicate
	} {
		if _, err := p.InsertBytes(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.KillSlot(0); err != nil {
		t.Fatal(err)
	}
	for i := -1; i <= p.NumSlots(); i++ {
		if pred, ok := p.PredAt(i); ok {
			t.Errorf("PredAt(%d) accepted %x", i, pred)
		}
	}
	if got := p.FindRID(RID{Page: 1, Slot: 1}); got != -1 {
		t.Errorf("FindRID found the killed slot: %d", got)
	}
	checkViewsMatchDecode(t, p)

	// The same bodies read as an internal node: only slot 1 is well formed.
	p.SetLevel(1)
	for i := 0; i < p.NumSlots(); i++ {
		if _, ok := p.PredAt(i); ok != (i == 1) {
			t.Errorf("internal PredAt(%d) ok = %v", i, ok)
		}
	}
	if p.ChildAt(1) != 5 || p.FindChild(5) != 1 {
		t.Errorf("ChildAt(1) = %d, FindChild(5) = %d", p.ChildAt(1), p.FindChild(5))
	}
	checkViewsMatchDecode(t, p)
}

func TestSlotViewsGarbageImage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := &Page{}
	for n := 0; n < 200; n++ {
		rng.Read(p.Bytes())
		touchAllViews(p)
		// A plausible directory with bodies running off the page.
		p.setU16(offNumSlots, uint16(rng.Intn(64)))
		touchAllViews(p)
		checkViewsMatchDecode(t, p)
	}
}
