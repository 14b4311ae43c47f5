package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitHeader(t *testing.T) {
	p := New(7, 3)
	if p.ID() != 7 {
		t.Errorf("ID = %d, want 7", p.ID())
	}
	if p.Level() != 3 {
		t.Errorf("Level = %d, want 3", p.Level())
	}
	if p.IsLeaf() {
		t.Error("IsLeaf = true for level 3")
	}
	if p.NSN() != 0 || p.LSN() != 0 {
		t.Errorf("fresh page NSN=%d LSN=%d, want 0,0", p.NSN(), p.LSN())
	}
	if p.Rightlink() != InvalidPage {
		t.Errorf("Rightlink = %d, want InvalidPage", p.Rightlink())
	}
	if p.NumSlots() != 0 {
		t.Errorf("NumSlots = %d, want 0", p.NumSlots())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	p := New(42, 0)
	p.SetLSN(123456789)
	p.SetNSN(987654321)
	p.SetRightlink(99)
	p.SetFlags(FlagDeallocated)
	if p.LSN() != 123456789 {
		t.Errorf("LSN = %d", p.LSN())
	}
	if p.NSN() != 987654321 {
		t.Errorf("NSN = %d", p.NSN())
	}
	if p.Rightlink() != 99 {
		t.Errorf("Rightlink = %d", p.Rightlink())
	}
	if p.Flags() != FlagDeallocated {
		t.Errorf("Flags = %d", p.Flags())
	}
	if !p.IsLeaf() {
		t.Error("level-0 page should be leaf")
	}
}

func TestInsertAndReadBytes(t *testing.T) {
	p := New(1, 0)
	bodies := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma-gamma")}
	for i, b := range bodies {
		slot, err := p.InsertBytes(b)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if slot != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
	}
	for i, want := range bodies {
		got, err := p.SlotBytes(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("slot %d = %q, want %q", i, got, want)
		}
	}
}

func TestInsertUntilFull(t *testing.T) {
	p := New(1, 0)
	body := make([]byte, 100)
	n := 0
	for {
		_, err := p.InsertBytes(body)
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		n++
		if n > Size {
			t.Fatal("inserted more entries than a page can hold")
		}
	}
	// Each entry consumes 100 body + 4 slot bytes.
	want := (Size - HeaderSize) / 104
	if n < want-1 || n > want {
		t.Errorf("fit %d entries, expected about %d", n, want)
	}
}

func TestTooLarge(t *testing.T) {
	p := New(1, 0)
	if _, err := p.InsertBytes(make([]byte, Size)); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDeleteSlotShifts(t *testing.T) {
	p := New(1, 0)
	for i := 0; i < 5; i++ {
		if _, err := p.InsertBytes([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DeleteSlot(1); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots = %d, want 4", p.NumSlots())
	}
	want := []byte{'a', 'c', 'd', 'e'}
	for i, w := range want {
		b, err := p.SlotBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != w {
			t.Errorf("slot %d = %c, want %c", i, b[0], w)
		}
	}
}

func TestDeleteBadSlot(t *testing.T) {
	p := New(1, 0)
	if err := p.DeleteSlot(0); err != ErrBadSlot {
		t.Errorf("err = %v, want ErrBadSlot", err)
	}
	if err := p.DeleteSlot(-1); err != ErrBadSlot {
		t.Errorf("err = %v, want ErrBadSlot", err)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	p := New(1, 0)
	body := make([]byte, 500)
	var slots []int
	for {
		s, err := p.InsertBytes(body)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	free0 := p.FreeSpace()
	// Delete every other entry.
	removed := 0
	for i := len(slots) - 1; i >= 0; i -= 2 {
		if err := p.DeleteSlot(i); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	if p.FreeSpaceAfterCompaction() <= free0 {
		t.Error("deleting entries did not increase compactable space")
	}
	p.Compact()
	if p.FreeSpace() < removed*500 {
		t.Errorf("after compaction free=%d, want >= %d", p.FreeSpace(), removed*500)
	}
	// Survivors intact.
	for i := 0; i < p.NumSlots(); i++ {
		b, err := p.SlotBytes(i)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if len(b) != 500 {
			t.Errorf("slot %d length %d", i, len(b))
		}
	}
}

func TestReplaceBytesSameSize(t *testing.T) {
	p := New(1, 0)
	s, err := p.InsertBytes([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReplaceBytes(s, []byte("world")); err != nil {
		t.Fatal(err)
	}
	b, _ := p.SlotBytes(s)
	if string(b) != "world" {
		t.Errorf("got %q", b)
	}
}

func TestReplaceBytesGrow(t *testing.T) {
	p := New(1, 0)
	s0, _ := p.InsertBytes([]byte("aa"))
	s1, _ := p.InsertBytes([]byte("bb"))
	if err := p.ReplaceBytes(s0, []byte("a-much-longer-body")); err != nil {
		t.Fatal(err)
	}
	b0, _ := p.SlotBytes(s0)
	b1, _ := p.SlotBytes(s1)
	if string(b0) != "a-much-longer-body" || string(b1) != "bb" {
		t.Errorf("got %q, %q", b0, b1)
	}
}

func TestReplaceBytesGrowRequiresCompaction(t *testing.T) {
	p := New(1, 0)
	// Fill the page nearly full with two big entries, delete one, then
	// grow the other into the reclaimed space.
	big := make([]byte, (Size-HeaderSize)/2-16)
	s0, err := p.InsertBytes(big)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.InsertBytes(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteSlot(s1); err != nil {
		t.Fatal(err)
	}
	grown := make([]byte, len(big)+200)
	for i := range grown {
		grown[i] = 0xAB
	}
	if err := p.ReplaceBytes(s0, grown); err != nil {
		t.Fatalf("grow with compaction: %v", err)
	}
	b, _ := p.SlotBytes(s0)
	if !bytes.Equal(b, grown) {
		t.Error("grown body corrupted")
	}
}

func TestReplaceTooBig(t *testing.T) {
	p := New(1, 0)
	s, _ := p.InsertBytes([]byte("x"))
	if err := p.ReplaceBytes(s, make([]byte, Size)); err != ErrPageFull {
		t.Errorf("err = %v, want ErrPageFull", err)
	}
}

func TestEntryEncodeDecodeLeaf(t *testing.T) {
	e := Entry{
		Pred:    []byte("key-17"),
		RID:     RID{Page: 9, Slot: 3},
		Deleted: true,
		Deleter: 77,
	}
	enc := e.Encode(true)
	got, err := DecodeEntry(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pred, e.Pred) || got.RID != e.RID || !got.Deleted || got.Deleter != 77 {
		t.Errorf("round trip = %+v, want %+v", got, e)
	}
}

func TestEntryEncodeDecodeInternal(t *testing.T) {
	e := Entry{Pred: []byte{1, 2, 3, 4}, Child: 55}
	enc := e.Encode(false)
	got, err := DecodeEntry(enc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pred, e.Pred) || got.Child != 55 {
		t.Errorf("round trip = %+v, want %+v", got, e)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeEntry([]byte{1}, true); err == nil {
		t.Error("short body: want error")
	}
	e := Entry{Pred: []byte("k")}
	enc := e.Encode(true)
	if _, err := DecodeEntry(enc, false); err == nil {
		t.Error("leaf body decoded as internal: want error")
	}
	if _, err := DecodeEntry(enc[:len(enc)-1], true); err == nil {
		t.Error("truncated body: want error")
	}
}

func TestMarkUnmarkDeleted(t *testing.T) {
	p := New(1, 0)
	e := Entry{Pred: []byte("k1"), RID: RID{Page: 2, Slot: 0}}
	s, err := p.InsertEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MarkDeleted(s, 42); err != nil {
		t.Fatal(err)
	}
	got := p.MustEntry(s)
	if !got.Deleted || got.Deleter != 42 {
		t.Errorf("after mark: %+v", got)
	}
	if err := p.UnmarkDeleted(s); err != nil {
		t.Fatal(err)
	}
	got = p.MustEntry(s)
	if got.Deleted || got.Deleter != 0 {
		t.Errorf("after unmark: %+v", got)
	}
}

func TestMarkDeletedOnInternalFails(t *testing.T) {
	p := New(1, 1)
	s, _ := p.InsertEntry(Entry{Pred: []byte("k"), Child: 2})
	if err := p.MarkDeleted(s, 1); err == nil {
		t.Error("MarkDeleted on internal node should fail")
	}
	if err := p.UnmarkDeleted(s); err == nil {
		t.Error("UnmarkDeleted on internal node should fail")
	}
}

func TestFindChildAndRID(t *testing.T) {
	internal := New(1, 1)
	for i := 0; i < 5; i++ {
		if _, err := internal.InsertEntry(Entry{Pred: []byte{byte(i)}, Child: PageID(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := internal.FindChild(12); got != 2 {
		t.Errorf("FindChild(12) = %d, want 2", got)
	}
	if got := internal.FindChild(99); got != -1 {
		t.Errorf("FindChild(99) = %d, want -1", got)
	}

	leaf := New(2, 0)
	for i := 0; i < 5; i++ {
		if _, err := leaf.InsertEntry(Entry{Pred: []byte{byte(i)}, RID: RID{Page: 100, Slot: uint16(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := leaf.FindRID(RID{Page: 100, Slot: 3}); got != 3 {
		t.Errorf("FindRID = %d, want 3", got)
	}
	if got := leaf.FindRID(RID{Page: 1, Slot: 1}); got != -1 {
		t.Errorf("FindRID missing = %d, want -1", got)
	}
}

func TestCopyFromAndClone(t *testing.T) {
	p := New(3, 0)
	if _, err := p.InsertBytes([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	q := &Page{}
	if err := q.CopyFrom(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if q.ID() != 3 || q.NumSlots() != 1 {
		t.Errorf("CopyFrom: id=%d slots=%d", q.ID(), q.NumSlots())
	}
	if err := q.CopyFrom([]byte("short")); err == nil {
		t.Error("CopyFrom with wrong size should fail")
	}
	c := p.Clone()
	if _, err := p.InsertBytes([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if c.NumSlots() != 1 {
		t.Error("Clone shares state with original")
	}
}

func TestResetPreservesIdentity(t *testing.T) {
	p := New(5, 2)
	p.SetNSN(11)
	p.SetRightlink(6)
	p.SetLSN(22)
	if _, err := p.InsertEntry(Entry{Pred: []byte("x"), Child: 9}); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.NumSlots() != 0 {
		t.Error("Reset kept slots")
	}
	if p.ID() != 5 || p.Level() != 2 || p.NSN() != 11 || p.Rightlink() != 6 || p.LSN() != 22 {
		t.Error("Reset damaged header identity")
	}
	if p.FreeSpace() != Size-HeaderSize-slotSize {
		t.Errorf("FreeSpace after reset = %d", p.FreeSpace())
	}
}

func TestRIDCompare(t *testing.T) {
	cases := []struct {
		a, b RID
		want int
	}{
		{RID{1, 1}, RID{1, 1}, 0},
		{RID{1, 1}, RID{1, 2}, -1},
		{RID{1, 2}, RID{1, 1}, 1},
		{RID{1, 9}, RID{2, 0}, -1},
		{RID{3, 0}, RID{2, 9}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !(RID{}).IsZero() {
		t.Error("zero RID should be IsZero")
	}
	if (RID{Page: 1}).IsZero() {
		t.Error("non-zero RID reported IsZero")
	}
}

// Property: any sequence of inserts and deletes never corrupts surviving
// entries, and compaction preserves content exactly.
func TestQuickInsertDeleteCompact(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1, 0)
		var live [][]byte
		for _, op := range ops {
			switch {
			case op%3 != 0 || len(live) == 0: // insert
				body := make([]byte, 1+rng.Intn(64))
				rng.Read(body)
				if _, err := p.InsertBytes(body); err != nil {
					if err != ErrPageFull {
						return false
					}
					continue
				}
				live = append(live, body)
			default: // delete a random slot
				i := rng.Intn(len(live))
				if err := p.DeleteSlot(i); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if op%7 == 0 {
				p.Compact()
			}
			if p.NumSlots() != len(live) {
				return false
			}
		}
		for i, want := range live {
			got, err := p.SlotBytes(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: entry encode/decode round-trips for both node kinds.
func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(pred []byte, child uint32, ridPage uint32, ridSlot uint16, deleted bool, deleter uint64) bool {
		if len(pred) > 4096 {
			pred = pred[:4096]
		}
		leafE := Entry{Pred: pred, RID: RID{PageID(ridPage), ridSlot}, Deleted: deleted, Deleter: TxnID(deleter)}
		got, err := DecodeEntry(leafE.Encode(true), true)
		if err != nil || !bytes.Equal(got.Pred, pred) || got.RID != leafE.RID ||
			got.Deleted != deleted || got.Deleter != TxnID(deleter) {
			return false
		}
		intE := Entry{Pred: pred, Child: PageID(child)}
		got, err = DecodeEntry(intE.Encode(false), false)
		return err == nil && bytes.Equal(got.Pred, pred) && got.Child == PageID(child)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	p := New(8, 1)
	if s := p.String(); s == "" {
		t.Error("empty page String")
	}
	r := RID{Page: 4, Slot: 2}
	if r.String() != "(4,2)" {
		t.Errorf("RID String = %q", r.String())
	}
	_ = fmt.Sprintf("%v", p)
}

func TestKillResurrectSlot(t *testing.T) {
	p := New(1, 0)
	s0, _ := p.InsertBytes([]byte("one"))
	s1, _ := p.InsertBytes([]byte("two"))
	if p.SlotDead(s0) || p.FindDeadSlot() != -1 {
		t.Fatal("fresh slots reported dead")
	}
	if err := p.KillSlot(s0); err != nil {
		t.Fatal(err)
	}
	if !p.SlotDead(s0) || p.SlotDead(s1) {
		t.Error("dead state wrong")
	}
	if p.FindDeadSlot() != s0 {
		t.Errorf("FindDeadSlot = %d", p.FindDeadSlot())
	}
	if _, err := p.SlotBytes(s0); err != ErrBadSlot {
		t.Errorf("read dead slot: %v", err)
	}
	if err := p.KillSlot(s0); err != ErrBadSlot {
		t.Errorf("double kill: %v", err)
	}
	if err := p.KillSlot(99); err != ErrBadSlot {
		t.Errorf("kill oob: %v", err)
	}
	// Slot numbering stays stable.
	if b, _ := p.SlotBytes(s1); string(b) != "two" {
		t.Errorf("slot %d = %q", s1, b)
	}
	if err := p.ResurrectSlot(s0, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if b, _ := p.SlotBytes(s0); string(b) != "reborn" {
		t.Errorf("resurrected = %q", b)
	}
	if err := p.ResurrectSlot(s0, []byte("again")); err != ErrBadSlot {
		t.Errorf("resurrect live slot: %v", err)
	}
	if err := p.ResurrectSlot(-1, nil); err != ErrBadSlot {
		t.Errorf("resurrect oob: %v", err)
	}
}

func TestResurrectWithCompaction(t *testing.T) {
	p := New(1, 0)
	big := make([]byte, (Size-HeaderSize)/2-16)
	s0, _ := p.InsertBytes(big)
	s1, _ := p.InsertBytes(big)
	p.KillSlot(s0)
	// Space exists only via compaction of the killed body.
	if err := p.ResurrectSlot(s0, make([]byte, len(big)-8)); err != nil {
		t.Fatalf("resurrect with compaction: %v", err)
	}
	if b, _ := p.SlotBytes(s1); len(b) != len(big) {
		t.Error("survivor corrupted")
	}
	// Too big even after compaction.
	p2 := New(2, 0)
	a, _ := p2.InsertBytes([]byte("x"))
	p2.KillSlot(a)
	if err := p2.ResurrectSlot(a, make([]byte, Size)); err != ErrPageFull {
		t.Errorf("oversized resurrect: %v", err)
	}
}

func TestEnsureSlotPadsAndReplaces(t *testing.T) {
	p := New(1, 0)
	if err := p.EnsureSlot(3, []byte("at-three")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots = %d", p.NumSlots())
	}
	for i := 0; i < 3; i++ {
		if !p.SlotDead(i) {
			t.Errorf("padding slot %d alive", i)
		}
	}
	if b, _ := p.SlotBytes(3); string(b) != "at-three" {
		t.Errorf("slot 3 = %q", b)
	}
	// Replace in place.
	if err := p.EnsureSlot(3, []byte("replaced!")); err != nil {
		t.Fatal(err)
	}
	if b, _ := p.SlotBytes(3); string(b) != "replaced!" {
		t.Errorf("slot 3 = %q", b)
	}
	if err := p.EnsureSlot(-1, nil); err != ErrBadSlot {
		t.Errorf("negative: %v", err)
	}
}

// A redo replaying full history onto a near-full page must compact before
// growing the slot directory, exactly as the original InsertBytes did: fill
// a page, kill enough slots to leave garbage but no contiguous gap, then
// EnsureSlot one past the directory end.
func TestEnsureSlotCompactsForDirectoryGrowth(t *testing.T) {
	p := New(1, 0)
	body := make([]byte, 32)
	n := 0
	for {
		if _, err := p.InsertBytes(body); err != nil {
			break
		}
		n++
	}
	// Kill three mid-page slots: 96 bytes of garbage appear, but the gap
	// between the directory and freeEnd stays under one slot entry per
	// padding slot needed below — only compaction can make room.
	for _, i := range []int{n / 2, n/2 + 1, n/2 + 2} {
		if err := p.KillSlot(i); err != nil {
			t.Fatal(err)
		}
	}
	if p.FreeSpace() >= len(body) {
		t.Fatalf("page not near-full: free=%d", p.FreeSpace())
	}
	// Growing the directory by 9 slots (36 bytes) plus the 32-byte body
	// exceeds any leftover gap; it fits only after garbage reclaim.
	target := n + 8
	if err := p.EnsureSlot(target, body); err != nil {
		t.Fatalf("EnsureSlot past directory on garbage-bearing page: %v", err)
	}
	if p.NumSlots() != target+1 {
		t.Fatalf("NumSlots = %d, want %d", p.NumSlots(), target+1)
	}
	if !p.SlotDead(n / 2) {
		t.Error("killed slot resurrected by compaction")
	}
	if b, err := p.SlotBytes(target); err != nil || len(b) != len(body) {
		t.Errorf("slot %d = %d bytes, err %v", target, len(b), err)
	}
	// A page with no garbage at all must still refuse.
	q := New(2, 0)
	for {
		if _, err := q.InsertBytes(body); err != nil {
			break
		}
	}
	if err := q.EnsureSlot(q.NumSlots()+4, body); err != ErrPageFull {
		t.Errorf("full page without garbage: %v", err)
	}
}

func TestReplaceEntryAndEntries(t *testing.T) {
	p := New(1, 0)
	for i := 0; i < 4; i++ {
		if _, err := p.InsertEntry(Entry{Pred: []byte{byte(i)}, RID: RID{Page: 1, Slot: uint16(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ReplaceEntry(2, Entry{Pred: []byte{99, 99}, RID: RID{Page: 1, Slot: 2}}); err != nil {
		t.Fatal(err)
	}
	es := p.Entries()
	if len(es) != 4 {
		t.Fatalf("Entries = %d", len(es))
	}
	if len(es[2].Pred) != 2 || es[2].Pred[0] != 99 {
		t.Errorf("entry 2 = %+v", es[2])
	}
}

func TestFindEntryStates(t *testing.T) {
	p := New(1, 0)
	rid := RID{Page: 7, Slot: 3}
	s, _ := p.InsertEntry(Entry{Pred: []byte("k"), RID: rid})
	if got := p.FindEntry(rid, []byte("k"), false); got != s {
		t.Errorf("live FindEntry = %d", got)
	}
	if got := p.FindEntry(rid, []byte("k"), true); got != -1 {
		t.Errorf("deleted FindEntry on live = %d", got)
	}
	if got := p.FindEntry(rid, []byte("other"), false); got != -1 {
		t.Errorf("wrong key = %d", got)
	}
	p.MarkDeleted(s, 9)
	if got := p.FindEntry(rid, []byte("k"), true); got != s {
		t.Errorf("marked FindEntry = %d", got)
	}
	// A live re-insert with the same (reused) RID coexists.
	s2, _ := p.InsertEntry(Entry{Pred: []byte("k2"), RID: rid})
	if got := p.FindEntry(rid, []byte("k2"), false); got != s2 {
		t.Errorf("reused-RID live = %d", got)
	}
	if got := p.FindEntry(rid, []byte("k"), true); got != s {
		t.Errorf("reused-RID marked = %d", got)
	}
}

func TestSetLevel(t *testing.T) {
	p := New(1, 0)
	p.SetLevel(3)
	if p.Level() != 3 || p.IsLeaf() {
		t.Errorf("level = %d", p.Level())
	}
}

// checkSlotBounds fails the test if any live slot points outside the page or
// into the slot directory — the corruption ResurrectSlot could cause on a
// packed page before the unclamped-gap guard.
func checkSlotBounds(t *testing.T, p *Page) {
	t.Helper()
	dirEnd := HeaderSize + p.NumSlots()*slotSize
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if length == 0 {
			continue
		}
		if int(off) < dirEnd || int(off)+int(length) > Size {
			t.Fatalf("slot %d: body [%d,%d) escapes [dirEnd=%d, %d)",
				i, off, int(off)+int(length), dirEnd, Size)
		}
	}
}

// packPage fills a fresh heap-style page with 1-byte bodies until InsertBytes
// reports full, leaving a directory-to-freeEnd gap smaller than slotSize.
func packPage(t *testing.T) *Page {
	t.Helper()
	p := New(9, 0)
	for {
		if _, err := p.InsertBytes([]byte{0xEE}); err != nil {
			if err != ErrPageFull {
				t.Fatalf("InsertBytes: %v", err)
			}
			break
		}
	}
	gap := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize
	if gap < 0 || gap >= slotSize {
		t.Fatalf("packed page gap = %d, want 0..%d", gap, slotSize-1)
	}
	return p
}

// Regression: on a packed page (gap between slot directory and bodies smaller
// than slotSize) FreeSpace() floors at zero, and ResurrectSlot used to take
// that as "slotSize bytes available", writing a small body over the tail of
// the slot directory. The heap triggers exactly this with 1-byte records whose
// insert was rolled back (dead slot) on a full page.
func TestResurrectSlotPackedPageNoDirectoryOverwrite(t *testing.T) {
	p := packPage(t)
	gap := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize

	// One dead slot, garbage = 1 byte.
	if err := p.KillSlot(0); err != nil {
		t.Fatalf("KillSlot: %v", err)
	}

	// Body needs compaction (gap < len <= gap+garbage): must succeed via
	// Compact, not by overwriting the directory.
	body := bytes.Repeat([]byte{0x77}, gap+1)
	if err := p.ResurrectSlot(0, body); err != nil {
		t.Fatalf("ResurrectSlot(len=%d): %v", len(body), err)
	}
	checkSlotBounds(t, p)
	got, err := p.SlotBytes(0)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("SlotBytes(0) = %x, %v; want %x", got, err, body)
	}
	// Every other body must have survived the compaction.
	for i := 1; i < p.NumSlots(); i++ {
		b, err := p.SlotBytes(i)
		if err != nil || len(b) != 1 || b[0] != 0xEE {
			t.Fatalf("slot %d = %x, %v after compact", i, b, err)
		}
	}
	p.Compact() // must not panic on a sane directory
}

// Regression companion: when even compaction cannot make room
// (len > gap+garbage), ResurrectSlot must refuse instead of corrupting.
func TestResurrectSlotPackedPageRefusesOversized(t *testing.T) {
	p := packPage(t)
	gap := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize
	if err := p.KillSlot(0); err != nil {
		t.Fatalf("KillSlot: %v", err)
	}
	body := bytes.Repeat([]byte{0x77}, gap+2) // garbage is only 1 byte
	if err := p.ResurrectSlot(0, body); err != ErrPageFull {
		t.Fatalf("ResurrectSlot(len=%d) = %v, want ErrPageFull", len(body), err)
	}
	checkSlotBounds(t, p)
}

// TestInsertTightDirectoryNoCorruption is the regression test for a slot
// directory overwrite: with tiny bodies the directory can grow to within
// slotSize of freeEnd, making the true free space negative. FreeSpace()
// floors at zero, so a compaction-gated insert that trusted it would
// overstate the post-compaction room and write the new body over the tail
// of the directory, corrupting a slot's length field (discovered as a
// Compact panic under heap churn). Drive a seeded insert/kill/resurrect
// churn of 4-byte bodies and verify every surviving slot stays readable.
func TestInsertTightDirectoryNoCorruption(t *testing.T) {
	p := New(1, 0)
	rng := rand.New(rand.NewSource(7))
	body := []byte("soak")
	live := map[int][]byte{}
	for i := 0; i < 50_000; i++ {
		if rng.Intn(10) < 3 && len(live) > 0 {
			for s := range live {
				if err := p.KillSlot(s); err != nil {
					t.Fatalf("op %d: kill %d: %v", i, s, err)
				}
				delete(live, s)
				break
			}
			continue
		}
		if dead := p.FindDeadSlot(); dead >= 0 {
			if err := p.ResurrectSlot(dead, body); err != nil {
				if err != ErrPageFull {
					t.Fatalf("op %d: resurrect: %v", i, err)
				}
				continue
			}
			live[dead] = body
			continue
		}
		slot, err := p.InsertBytes(body)
		if err != nil {
			if err != ErrPageFull {
				t.Fatalf("op %d: insert: %v", i, err)
			}
			continue
		}
		live[slot] = body
	}
	sum := 0
	for s, want := range live {
		got, err := p.SlotBytes(s)
		if err != nil {
			t.Fatalf("slot %d unreadable: %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d = %q, want %q", s, got, want)
		}
		sum += len(got)
	}
	if sum > Size {
		t.Fatalf("live bodies sum to %d bytes on a %d-byte page", sum, Size)
	}
	p.Compact() // must not panic and must keep everything readable
	for s, want := range live {
		if got, _ := p.SlotBytes(s); !bytes.Equal(got, want) {
			t.Fatalf("after compact, slot %d = %q, want %q", s, got, want)
		}
	}
}
