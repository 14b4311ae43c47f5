package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzInsertReplaceDelete drives the slotted-page primitives with an
// arbitrary op stream, mirroring every mutation in a plain Go model and
// checking full equivalence plus structural invariants after each op. Ops
// are 3 bytes each: opcode, slot selector, size selector.
func FuzzInsertReplaceDelete(f *testing.F) {
	// Seeds: fill-then-churn, delete-heavy, kill/compact interleavings, and
	// an oversized insert.
	f.Add([]byte{0, 0, 10, 0, 0, 40, 1, 0, 80, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 120, 0, 1, 120, 4, 0, 0, 0, 2, 60, 3, 0, 0, 1, 1, 5})
	f.Add(bytes.Repeat([]byte{0, 0, 150}, 80)) // drive the page to full
	f.Add([]byte{0, 0, 255, 0, 0, 1, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 30, 4, 0, 0, 1, 0, 30, 2, 0, 0, 0, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := data
		p := New(1, 0)
		// model mirrors the slot directory: one element per slot, nil for a
		// dead (killed) slot.
		var model [][]byte
		fill := byte(0)
		for len(data) >= 3 {
			op, slotSel, sizeSel := data[0]%5, data[1], data[2]
			data = data[3:]
			fill++
			n := int(sizeSel)%150 + 1
			if sizeSel == 255 {
				n = Size // can never fit: must yield ErrTooLarge
			}
			body := bytes.Repeat([]byte{fill}, n)
			if fill%2 == 0 {
				shapeEntry(body, fill)
			}
			switch op {
			case 0: // insert
				slot, err := p.InsertBytes(body)
				switch {
				case err == nil:
					if slot != len(model) {
						t.Fatalf("insert returned slot %d, want %d", slot, len(model))
					}
					model = append(model, body)
				case errors.Is(err, ErrTooLarge):
					if n+slotSize <= Size-HeaderSize {
						t.Fatalf("spurious ErrTooLarge for %d bytes", n)
					}
				case errors.Is(err, ErrPageFull):
					// The page may be genuinely full; the model stays put.
				default:
					t.Fatalf("insert: %v", err)
				}
			case 1: // replace
				if len(model) == 0 {
					if err := p.ReplaceBytes(0, body); !errors.Is(err, ErrBadSlot) {
						t.Fatalf("replace on empty page: %v", err)
					}
					continue
				}
				i := int(slotSel) % len(model)
				err := p.ReplaceBytes(i, body)
				switch {
				case model[i] == nil:
					if !errors.Is(err, ErrBadSlot) {
						t.Fatalf("replace of dead slot %d: %v", i, err)
					}
				case err == nil:
					model[i] = body
				case errors.Is(err, ErrPageFull):
				default:
					t.Fatalf("replace: %v", err)
				}
			case 2: // delete (shifts the directory)
				if len(model) == 0 {
					if err := p.DeleteSlot(0); !errors.Is(err, ErrBadSlot) {
						t.Fatalf("delete on empty page: %v", err)
					}
					continue
				}
				i := int(slotSel) % len(model)
				if err := p.DeleteSlot(i); err != nil {
					t.Fatalf("delete slot %d: %v", i, err)
				}
				model = append(model[:i], model[i+1:]...)
			case 3: // compact
				p.Compact()
			case 4: // kill (dead slot, index stays stable)
				if len(model) == 0 {
					continue
				}
				i := int(slotSel) % len(model)
				err := p.KillSlot(i)
				if model[i] == nil {
					if !errors.Is(err, ErrBadSlot) {
						t.Fatalf("double kill of slot %d: %v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("kill slot %d: %v", i, err)
				}
				model[i] = nil
			}
			checkPageMatchesModel(t, p, model)
			checkViewsMatchDecode(t, p)
			p.SetLevel(1) // the same bodies read as an internal node
			checkViewsMatchDecode(t, p)
			p.SetLevel(0)
		}
		// Scribble the op stream over the page image: the slot readers
		// must reject whatever directory and bodies that yields, never
		// panic on it.
		if len(orig) > 0 {
			img := p.Bytes()
			for i := range img {
				img[i] ^= orig[i%len(orig)]
			}
			touchAllViews(p)
			checkViewsMatchDecode(t, p)
		}
	})
}

// shapeEntry gives an n-byte fuzz body the flag and length fields of a
// well-formed entry — a leaf entry when it is long enough, else an internal
// one — so the slot views see valid, wrong-level and garbage bodies alike.
func shapeEntry(body []byte, fill byte) {
	switch n := len(body); {
	case n >= leafOverhead:
		binary.BigEndian.PutUint16(body[1:], uint16(n-leafOverhead))
	case n >= internalOverhead:
		binary.BigEndian.PutUint16(body[1:], uint16(n-internalOverhead))
	default:
		return
	}
	body[0] = fill >> 2 & entryDeleted
}

// checkPageMatchesModel asserts full page/model equivalence and the layout
// invariants every mutation must preserve.
func checkPageMatchesModel(t *testing.T, p *Page, model [][]byte) {
	t.Helper()
	if p.NumSlots() != len(model) {
		t.Fatalf("NumSlots = %d, model has %d", p.NumSlots(), len(model))
	}
	live := 0
	for i, want := range model {
		got, err := p.SlotBytes(i)
		if want == nil {
			if !errors.Is(err, ErrBadSlot) {
				t.Fatalf("dead slot %d readable: %q, %v", i, got, err)
			}
			if !p.SlotDead(i) {
				t.Fatalf("slot %d should be dead", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d = %q, want %q", i, got, want)
		}
		live += len(want)
	}
	// Live bytes plus header and directory can never exceed the page.
	if used := HeaderSize + len(model)*slotSize + live; used > Size {
		t.Fatalf("accounting overflow: %d bytes used on a %d-byte page", used, Size)
	}
	if free := p.FreeSpace(); free < 0 || free > Size-HeaderSize {
		t.Fatalf("FreeSpace = %d out of range", free)
	}
	// The identity header fields survive every mutation.
	if p.ID() != 1 || p.Level() != 0 {
		t.Fatalf("header clobbered: id=%d level=%d", p.ID(), p.Level())
	}
}
