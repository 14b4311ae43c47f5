package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// TxnID identifies a transaction. It is defined here (rather than in the
// transaction manager) because logically deleted leaf entries carry the
// deleting transaction's id on the page, so the page format depends on it.
type TxnID uint64

// InvalidTxn is the zero TxnID, never assigned to a real transaction.
const InvalidTxn TxnID = 0

// Entry flag bits stored in the first byte of an encoded entry.
const (
	// entryDeleted marks a leaf entry as logically deleted (§7 of the
	// paper): the entry stays physically present so that repeatable-read
	// scans block on the deleting transaction, and is physically removed
	// only by garbage collection after that transaction commits.
	entryDeleted byte = 1 << iota
)

// Entry is the decoded form of an index entry.
//
// On an internal node an entry is a (bounding predicate, child pointer)
// pair. On a leaf it is a (key, RID) pair, optionally marked deleted with
// the deleting transaction recorded. Pred holds the predicate or key bytes;
// their interpretation belongs entirely to the access-method extension.
type Entry struct {
	// Pred is the bounding predicate (internal node) or key (leaf).
	Pred []byte
	// Child is the child page pointer; valid only on internal nodes.
	Child PageID
	// RID is the data record identifier; valid only on leaves.
	RID RID
	// Deleted marks a logically deleted leaf entry.
	Deleted bool
	// Deleter is the transaction that performed the logical delete;
	// garbage collection may remove the entry once Deleter has committed.
	Deleter TxnID
}

// Encoded entry layout:
//
//	internal: [1 flags][2 predLen][pred][4 child]
//	leaf:     [1 flags][2 predLen][pred][4 ridPage][2 ridSlot][8 deleter]
//
// Leaves always reserve the deleter field so that marking an entry deleted
// is an in-place update (no page reorganization inside the critical
// section that logs Mark-Leaf-Entry).
const (
	internalOverhead = 1 + 2 + 4
	leafOverhead     = 1 + 2 + 4 + 2 + 8
)

// ErrCorruptEntry is returned when an entry body cannot be decoded.
var ErrCorruptEntry = errors.New("page: corrupt entry encoding")

// EncodedLen returns the number of bytes the entry occupies on a page of a
// node at the given level (0 = leaf).
func (e *Entry) EncodedLen(leaf bool) int {
	if leaf {
		return leafOverhead + len(e.Pred)
	}
	return internalOverhead + len(e.Pred)
}

// Encode serializes the entry for a leaf or internal node.
func (e *Entry) Encode(leaf bool) []byte {
	out := make([]byte, e.EncodedLen(leaf))
	var flags byte
	if e.Deleted {
		flags |= entryDeleted
	}
	out[0] = flags
	binary.BigEndian.PutUint16(out[1:], uint16(len(e.Pred)))
	copy(out[3:], e.Pred)
	p := 3 + len(e.Pred)
	if leaf {
		binary.BigEndian.PutUint32(out[p:], uint32(e.RID.Page))
		binary.BigEndian.PutUint16(out[p+4:], e.RID.Slot)
		binary.BigEndian.PutUint64(out[p+6:], uint64(e.Deleter))
	} else {
		binary.BigEndian.PutUint32(out[p:], uint32(e.Child))
	}
	return out
}

// DecodeEntry parses an encoded entry body. The Pred slice aliases b.
func DecodeEntry(b []byte, leaf bool) (Entry, error) {
	var e Entry
	if len(b) < 3 {
		return e, ErrCorruptEntry
	}
	flags := b[0]
	plen := int(binary.BigEndian.Uint16(b[1:]))
	want := internalOverhead + plen
	if leaf {
		want = leafOverhead + plen
	}
	if len(b) != want {
		return e, fmt.Errorf("%w: body %d bytes, want %d", ErrCorruptEntry, len(b), want)
	}
	e.Pred = b[3 : 3+plen]
	p := 3 + plen
	if leaf {
		e.RID.Page = PageID(binary.BigEndian.Uint32(b[p:]))
		e.RID.Slot = binary.BigEndian.Uint16(b[p+4:])
		e.Deleter = TxnID(binary.BigEndian.Uint64(b[p+6:]))
		e.Deleted = flags&entryDeleted != 0
	} else {
		e.Child = PageID(binary.BigEndian.Uint32(b[p:]))
	}
	return e, nil
}

// InsertEntry encodes e appropriately for p's level and inserts it,
// returning the slot index.
func (p *Page) InsertEntry(e Entry) (int, error) {
	return p.InsertBytes(e.Encode(p.IsLeaf()))
}

// Entry decodes the entry at slot i. The Pred field aliases page memory and
// must be copied if retained across page modifications.
func (p *Page) Entry(i int) (Entry, error) {
	b, err := p.SlotBytes(i)
	if err != nil {
		return Entry{}, err
	}
	return DecodeEntry(b, p.IsLeaf())
}

// MustEntry is Entry but panics on error; for use where the slot index was
// just validated.
func (p *Page) MustEntry(i int) Entry {
	e, err := p.Entry(i)
	if err != nil {
		panic(fmt.Sprintf("page %d slot %d: %v", p.ID(), i, err))
	}
	return e
}

// ReplaceEntry overwrites the entry at slot i.
func (p *Page) ReplaceEntry(i int, e Entry) error {
	return p.ReplaceBytes(i, e.Encode(p.IsLeaf()))
}

// MarkDeleted flags the leaf entry at slot i as logically deleted by txn.
// The update is in place (the encoded length does not change).
func (p *Page) MarkDeleted(i int, txn TxnID) error {
	if !p.IsLeaf() {
		return errors.New("page: MarkDeleted on internal node")
	}
	b, err := p.SlotBytes(i)
	if err != nil {
		return err
	}
	b[0] |= entryDeleted
	plen := int(binary.BigEndian.Uint16(b[1:]))
	binary.BigEndian.PutUint64(b[3+plen+6:], uint64(txn))
	return nil
}

// UnmarkDeleted clears the logical-delete flag on the leaf entry at slot i
// (the undo action of Mark-Leaf-Entry in Table 1).
func (p *Page) UnmarkDeleted(i int) error {
	if !p.IsLeaf() {
		return errors.New("page: UnmarkDeleted on internal node")
	}
	b, err := p.SlotBytes(i)
	if err != nil {
		return err
	}
	b[0] &^= entryDeleted
	plen := int(binary.BigEndian.Uint16(b[1:]))
	binary.BigEndian.PutUint64(b[3+plen+6:], 0)
	return nil
}

// Entries decodes every live entry on the page, in slot order.
func (p *Page) Entries() []Entry {
	out := make([]Entry, 0, p.NumSlots())
	leaf := p.IsLeaf()
	for i := 0; i < p.NumSlots(); i++ {
		b, err := p.SlotBytes(i)
		if err != nil {
			continue
		}
		e, err := DecodeEntry(b, leaf)
		if err != nil {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Slot views. A node visit reads each slot's fields straight off the page
// instead of decoding an Entry per slot: PredAt validates the slot exactly
// as DecodeEntry does and returns the predicate bytes aliasing the page,
// and LeafAt does the same for a leaf slot together with its RID and
// delete mark; ChildAt and DeleterAt read the fixed-size fields that
// follow the predicate and are meaningful only for a slot PredAt
// accepted. None of them panics, whatever the page image holds.

// PredAt returns the predicate (internal node) or key (leaf) of slot i,
// aliasing page memory. ok is false for an out-of-range or dead slot and for
// a body DecodeEntry would reject.
func (p *Page) PredAt(i int) (pred []byte, ok bool) {
	overhead := internalOverhead
	if p.IsLeaf() {
		overhead = leafOverhead
	}
	return predOf(p.body(i), overhead)
}

// predOf returns the predicate of the entry body b, whose fixed fields
// take overhead bytes, or ok=false when b's length does not match the
// predicate length it records.
func predOf(b []byte, overhead int) (pred []byte, ok bool) {
	if len(b) < 3 {
		return nil, false
	}
	plen := int(binary.BigEndian.Uint16(b[1:]))
	if len(b) != overhead+plen {
		return nil, false
	}
	return b[3 : 3+plen], true
}

// ChildAt returns the child pointer of internal-node slot i (the body's
// last four bytes).
func (p *Page) ChildAt(i int) PageID {
	b := p.body(i)
	if len(b) < internalOverhead {
		return InvalidPage
	}
	return PageID(binary.BigEndian.Uint32(b[len(b)-4:]))
}

// LeafAt returns the key, the RID and the logical-delete mark of leaf slot
// i, the key aliasing page memory. ok is false where PredAt's is.
func (p *Page) LeafAt(i int) (key []byte, rid RID, deleted, ok bool) {
	b := p.body(i)
	if key, ok = predOf(b, leafOverhead); !ok || !p.IsLeaf() {
		return nil, RID{}, false, false
	}
	r := b[len(b)-14:]
	rid = RID{Page: PageID(binary.BigEndian.Uint32(r)), Slot: binary.BigEndian.Uint16(r[4:])}
	return key, rid, b[0]&entryDeleted != 0, true
}

// DeleterAt returns the transaction recorded as the logical deleter of leaf
// slot i (InvalidTxn for a live entry).
func (p *Page) DeleterAt(i int) TxnID {
	b := p.body(i)
	if len(b) < leafOverhead {
		return InvalidTxn
	}
	return TxnID(binary.BigEndian.Uint64(b[len(b)-8:]))
}

// FindChild returns the slot index of the internal entry pointing at child,
// or -1 if the page holds no such entry (which tells an ascending insert
// operation that the parent has split and it must move right; §6).
func (p *Page) FindChild(child PageID) int {
	// Compare each slot's child pointer (the body's last four bytes)
	// first and validate the slot only on a match: restart redo, replica
	// apply and every BP update find their parent slot here.
	n := min(p.NumSlots(), (Size-HeaderSize)/slotSize)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		end := int(off) + int(length)
		if length < internalOverhead || end > Size ||
			PageID(binary.BigEndian.Uint32(p.buf[end-4:end])) != child {
			continue
		}
		if _, ok := p.PredAt(i); ok {
			return i
		}
	}
	return -1
}

// FindEntry returns the slot of the leaf entry matching rid, key bytes and
// deletion state, or -1. RID alone is not a unique identifier while
// logically deleted entries await garbage collection: the heap may have
// reused the record slot, so a marked old entry and a live new entry can
// carry the same RID (the live entries still partition the RID space).
func (p *Page) FindEntry(rid RID, pred []byte, deleted bool) int {
	for i := 0; i < p.NumSlots(); i++ {
		if key, r, d, ok := p.LeafAt(i); ok && r == rid && d == deleted && bytes.Equal(key, pred) {
			return i
		}
	}
	return -1
}

// FindRID returns the slot index of the first leaf entry with the given
// RID, or -1 if absent. Prefer FindEntry where logically deleted entries
// may coexist with a reused RID.
func (p *Page) FindRID(rid RID) int {
	for i := 0; i < p.NumSlots(); i++ {
		if _, r, _, ok := p.LeafAt(i); ok && r == rid {
			return i
		}
	}
	return -1
}

// FindBody returns the slot holding exactly the given encoded body, or -1.
func (p *Page) FindBody(body []byte) int {
	for i := 0; i < p.NumSlots(); i++ {
		if b := p.body(i); b != nil && bytes.Equal(b, body) {
			return i
		}
	}
	return -1
}
