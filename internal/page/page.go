// Package page implements the slotted on-page storage format used by every
// node of the generalized search tree and by the heap file.
//
// The layout follows the structure required by the GiST concurrency protocol
// of Kornacker, Mohan and Hellerstein (SIGMOD 1997): in addition to the usual
// page header fields (page id, page LSN, slot bookkeeping) every page carries
// a node sequence number (NSN) and a rightlink pointer. The NSN is assigned
// from the tree-global counter during a node split and lets a traversing
// operation detect splits it has missed; the rightlink chains a node to the
// sibling that was split off it.
//
// A page is a fixed-size byte array. All multi-byte integers are encoded
// big-endian. The header occupies the first HeaderSize bytes; the slot
// directory grows upward from the header while entry bodies grow downward
// from the end of the page:
//
//	+------------------+-----------------+---......---+------------------+
//	| header (40 B)    | slot directory→ |   free     | ←entry bodies    |
//	+------------------+-----------------+---......---+------------------+
//
// Each slot is 4 bytes: a 2-byte offset and a 2-byte length. Slots are never
// reordered once created within a single insert/delete cycle; physical
// removal compacts the directory.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the size in bytes of every page in the system.
const Size = 8192

// PageID identifies a page within a page store. The zero value is never a
// valid allocated page; it is reserved so that zeroed structures are safely
// invalid.
type PageID uint32

// InvalidPage is the PageID used to mean "no page" (for example, the
// rightlink of a node that has never been split).
const InvalidPage PageID = 0

// LSN is a log sequence number. LSNs are strictly monotonically increasing
// across the log. Per §10.1 of the paper the same counter that generates
// LSNs also generates node sequence numbers, so NSN is an alias of LSN.
type LSN uint64

// NSN is a node sequence number, drawn from the same monotonic source as
// LSNs (§10.1).
type NSN = LSN

// MaxLSN is an LSN strictly greater than any LSN the log will ever hand
// out: the "flush everything" / "no upper bound" sentinel. It is far below
// the uint64 overflow line so arithmetic like MaxLSN+1 stays ordered.
const MaxLSN LSN = 1 << 62

// RID identifies a data record in the heap: a heap page and a slot on it.
type RID struct {
	Page PageID
	Slot uint16
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// IsZero reports whether r is the zero RID.
func (r RID) IsZero() bool { return r.Page == InvalidPage && r.Slot == 0 }

// Compare orders RIDs by (page, slot). It returns -1, 0 or +1.
func (r RID) Compare(o RID) int {
	switch {
	case r.Page < o.Page:
		return -1
	case r.Page > o.Page:
		return 1
	case r.Slot < o.Slot:
		return -1
	case r.Slot > o.Slot:
		return 1
	}
	return 0
}

// Header field offsets within a page.
const (
	offPageID    = 0  // uint32
	offLSN       = 4  // uint64
	offNSN       = 12 // uint64
	offRightlink = 20 // uint32
	offLevel     = 24 // uint16; 0 means leaf
	offNumSlots  = 26 // uint16
	offFreeEnd   = 28 // uint16: offset of the byte after free space
	offFlags     = 30 // uint16
	offGarbage   = 32 // uint16: bytes reclaimable by compaction

	// HeaderSize is the number of bytes reserved for the page header.
	// A few bytes are left spare for forward compatibility.
	HeaderSize = 40
)

// Page flags.
const (
	// FlagDeallocated marks a page that has been freed (Free-Page log
	// record, Table 1) and is awaiting reuse.
	FlagDeallocated uint16 = 1 << iota
)

const slotSize = 4

// SlotSize is the bytes one slot-directory entry takes. A new slot costs
// its body plus SlotSize; the directory never shrinks, so a dead slot keeps
// its entry and can be resurrected for the body alone.
const SlotSize = slotSize

// Errors returned by page operations.
var (
	// ErrPageFull is returned when an entry does not fit even after
	// compaction; the caller must split the node.
	ErrPageFull = errors.New("page: not enough free space")
	// ErrBadSlot is returned for out-of-range or dead slot indices.
	ErrBadSlot = errors.New("page: invalid slot")
	// ErrTooLarge is returned when an entry could never fit on an empty
	// page.
	ErrTooLarge = errors.New("page: entry larger than page capacity")
)

// Page is a fixed-size disk page. The zero value is not usable; call Init
// (for a fresh page) or wrap bytes read from a DiskManager.
type Page struct {
	buf [Size]byte
}

// New allocates a Page initialized as an index node with the given identity
// and level (level 0 is a leaf).
func New(id PageID, level uint16) *Page {
	p := &Page{}
	p.Init(id, level)
	return p
}

// Init formats p as an empty node. Any previous content is destroyed.
func (p *Page) Init(id PageID, level uint16) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setU32(offPageID, uint32(id))
	p.setU16(offLevel, level)
	p.setU16(offNumSlots, 0)
	p.setU16(offFreeEnd, Size)
	p.setU32(offRightlink, uint32(InvalidPage))
}

// Bytes returns the raw page image. The returned slice aliases the page;
// callers must not retain it across modifications.
func (p *Page) Bytes() []byte { return p.buf[:] }

// UsedBounds returns the extent of the page's used regions: front is the
// end of the slot directory, tail the start of the entry bodies. Bytes in
// [front, tail) are free space and hold no live data on a consistent page
// (every slot offset points at or past freeEnd). Both values are clamped
// to [HeaderSize, Size] so they are safe to use as copy bounds even when
// the header was read mid-mutation and is torn.
func (p *Page) UsedBounds() (front, tail int) {
	front = HeaderSize + int(p.u16(offNumSlots))*slotSize
	if front > Size {
		front = Size
	}
	tail = int(p.u16(offFreeEnd))
	if tail < front {
		tail = front // nonsense header: copy the whole remainder
	}
	if tail > Size {
		tail = Size
	}
	return front, tail
}

// CopyFrom replaces the entire page image with the contents of b, which must
// be exactly Size bytes.
func (p *Page) CopyFrom(b []byte) error {
	if len(b) != Size {
		return fmt.Errorf("page: CopyFrom with %d bytes, want %d", len(b), Size)
	}
	copy(p.buf[:], b)
	return nil
}

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	q := &Page{}
	q.buf = p.buf
	return q
}

func (p *Page) setU16(off int, v uint16) { binary.BigEndian.PutUint16(p.buf[off:], v) }
func (p *Page) setU32(off int, v uint32) { binary.BigEndian.PutUint32(p.buf[off:], v) }
func (p *Page) setU64(off int, v uint64) { binary.BigEndian.PutUint64(p.buf[off:], v) }
func (p *Page) u16(off int) uint16       { return binary.BigEndian.Uint16(p.buf[off:]) }
func (p *Page) u32(off int) uint32       { return binary.BigEndian.Uint32(p.buf[off:]) }
func (p *Page) u64(off int) uint64       { return binary.BigEndian.Uint64(p.buf[off:]) }

// ID returns the page's own identifier.
func (p *Page) ID() PageID { return PageID(p.u32(offPageID)) }

// LSN returns the page LSN: the LSN of the last log record that modified
// this page (the WAL repeat-history test compares against it during redo).
func (p *Page) LSN() LSN { return LSN(p.u64(offLSN)) }

// SetLSN records the LSN of the latest update to the page.
func (p *Page) SetLSN(l LSN) { p.setU64(offLSN, uint64(l)) }

// NSN returns the node sequence number, set when the node was last split.
func (p *Page) NSN() NSN { return NSN(p.u64(offNSN)) }

// SetNSN updates the node sequence number.
func (p *Page) SetNSN(n NSN) { p.setU64(offNSN, uint64(n)) }

// Rightlink returns the pointer to the right sibling split off this node,
// or InvalidPage if the node has never been split (or is the rightmost of
// its split chain).
func (p *Page) Rightlink() PageID { return PageID(p.u32(offRightlink)) }

// SetRightlink updates the rightlink pointer.
func (p *Page) SetRightlink(id PageID) { p.setU32(offRightlink, uint32(id)) }

// Level returns the node's height above the leaves; 0 means leaf.
func (p *Page) Level() uint16 { return p.u16(offLevel) }

// SetLevel changes the node's level (used when a root split lifts the root).
func (p *Page) SetLevel(l uint16) { p.setU16(offLevel, l) }

// IsLeaf reports whether the node is a leaf.
func (p *Page) IsLeaf() bool { return p.Level() == 0 }

// Flags returns the page flag bits.
func (p *Page) Flags() uint16 { return p.u16(offFlags) }

// SetFlags replaces the page flag bits.
func (p *Page) SetFlags(f uint16) { p.setU16(offFlags, f) }

// NumSlots returns the number of slots in the directory, including dead
// (zero-length) slots.
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

func (p *Page) slotOff(i int) int { return HeaderSize + i*slotSize }

func (p *Page) slot(i int) (off, length uint16) {
	so := p.slotOff(i)
	return p.u16(so), p.u16(so + 2)
}

func (p *Page) setSlot(i int, off, length uint16) {
	so := p.slotOff(i)
	p.setU16(so, off)
	p.setU16(so+2, length)
}

// FreeSpace returns the number of bytes available for a new entry body plus
// its slot, before compaction.
func (p *Page) FreeSpace() int {
	freeStart := HeaderSize + p.NumSlots()*slotSize
	freeEnd := int(p.u16(offFreeEnd))
	n := freeEnd - freeStart - slotSize
	if n < 0 {
		return 0
	}
	return n
}

// FreeSpaceAfterCompaction returns the bytes that would be available for a
// new entry body plus slot if the page were compacted first.
func (p *Page) FreeSpaceAfterCompaction() int {
	return p.FreeSpace() + int(p.u16(offGarbage))
}

// Room returns the bytes a body can take in an existing dead slot once the
// page is compacted: the gap between the slot directory and the bodies plus
// the garbage. Unlike FreeSpaceAfterCompaction it is exact and reserves no
// slot entry; a new slot fits a body of at most Room() - SlotSize bytes.
func (p *Page) Room() int {
	return int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize + int(p.u16(offGarbage))
}

// InsertBytes adds an entry body to the page and returns its slot index.
// It compacts the page if needed. ErrPageFull is returned when the entry
// does not fit; ErrTooLarge when it could never fit.
func (p *Page) InsertBytes(body []byte) (int, error) {
	if len(body)+slotSize > Size-HeaderSize {
		return 0, ErrTooLarge
	}
	// The free computation must be unclamped: FreeSpace() floors at zero,
	// which on a page whose directory has grown within slotSize of freeEnd
	// (tiny bodies, many slots) would overstate the post-compaction room and
	// let the copy below overwrite the tail of the slot directory — the same
	// hazard ResurrectSlot guards against.
	free := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize - slotSize
	if free < len(body) {
		if free+int(p.u16(offGarbage)) < len(body) {
			return 0, ErrPageFull
		}
		p.Compact()
	}
	n := p.NumSlots()
	freeEnd := int(p.u16(offFreeEnd))
	off := freeEnd - len(body)
	copy(p.buf[off:freeEnd], body)
	p.setSlot(n, uint16(off), uint16(len(body)))
	p.setU16(offFreeEnd, uint16(off))
	p.setU16(offNumSlots, uint16(n+1))
	return n, nil
}

// SlotBytes returns the body stored at slot i. The slice aliases the page.
func (p *Page) SlotBytes(i int) ([]byte, error) {
	b := p.body(i)
	if b == nil {
		return nil, ErrBadSlot
	}
	return b, nil
}

// body returns the body stored at slot i, aliasing the page, or nil for an
// out-of-range or dead slot. A directory entry or body extent that runs off
// the page (only a garbage image holds one) also yields nil, so slot
// readers never panic.
func (p *Page) body(i int) []byte {
	if i < 0 || i >= p.NumSlots() || p.slotOff(i+1) > Size {
		return nil
	}
	off, length := p.slot(i)
	end := int(off) + int(length)
	if length == 0 || end > Size {
		return nil
	}
	return p.buf[off:end]
}

// ReplaceBytes overwrites the body at slot i with body. If the new body is
// the same length the update is done in place; otherwise the old space is
// garbage and fresh space is claimed (compacting if necessary).
func (p *Page) ReplaceBytes(i int, body []byte) error {
	if i < 0 || i >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length := p.slot(i)
	if length == 0 {
		return ErrBadSlot
	}
	if int(length) == len(body) {
		copy(p.buf[off:int(off)+len(body)], body)
		return nil
	}
	// Different size: release old space, allocate new. avail is unclamped
	// (see InsertBytes): the existing slot is reused, so only the raw gap
	// between the directory and freeEnd matters.
	needed := len(body)
	avail := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize
	garbage := int(p.u16(offGarbage)) + int(length)
	if avail < needed {
		if avail+garbage < needed {
			return ErrPageFull
		}
		// Mark old body garbage so compaction reclaims it.
		p.setSlot(i, 0, 0)
		p.setU16(offGarbage, uint16(garbage))
		p.Compact()
	} else {
		p.setSlot(i, 0, 0)
		p.setU16(offGarbage, uint16(garbage))
	}
	freeEnd := int(p.u16(offFreeEnd))
	noff := freeEnd - len(body)
	copy(p.buf[noff:freeEnd], body)
	p.setSlot(i, uint16(noff), uint16(len(body)))
	p.setU16(offFreeEnd, uint16(noff))
	return nil
}

// DeleteSlot removes slot i physically, shifting subsequent slots down so
// slot indices above i decrease by one. The body space becomes garbage.
func (p *Page) DeleteSlot(i int) error {
	n := p.NumSlots()
	if i < 0 || i >= n {
		return ErrBadSlot
	}
	_, length := p.slot(i)
	p.setU16(offGarbage, p.u16(offGarbage)+length)
	// Shift the slot directory.
	copy(p.buf[p.slotOff(i):p.slotOff(n-1)], p.buf[p.slotOff(i+1):p.slotOff(n)])
	p.setU16(offNumSlots, uint16(n-1))
	return nil
}

// Compact rewrites all live entry bodies contiguously at the end of the
// page, reclaiming garbage left by deletions and replacements.
func (p *Page) Compact() {
	n := p.NumSlots()
	var scratch [Size]byte
	writeEnd := Size
	// Copy bodies into scratch back-to-front in slot order so relative
	// layout is deterministic.
	type reloc struct {
		slot int
		off  uint16
		len  uint16
	}
	relocs := make([]reloc, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if length == 0 {
			continue
		}
		writeEnd -= int(length)
		copy(scratch[writeEnd:], p.buf[off:off+length])
		relocs = append(relocs, reloc{i, uint16(writeEnd), length})
	}
	copy(p.buf[writeEnd:], scratch[writeEnd:])
	for _, r := range relocs {
		p.setSlot(r.slot, r.off, r.len)
	}
	p.setU16(offFreeEnd, uint16(writeEnd))
	p.setU16(offGarbage, 0)
}

// Reset clears all slots while preserving the page identity, level, LSN,
// NSN and rightlink. Used when redistributing entries during a split.
func (p *Page) Reset() {
	p.setU16(offNumSlots, 0)
	p.setU16(offFreeEnd, Size)
	p.setU16(offGarbage, 0)
}

// String summarizes the page for debugging.
func (p *Page) String() string {
	return fmt.Sprintf("page %d level=%d slots=%d lsn=%d nsn=%d right=%d free=%d",
		p.ID(), p.Level(), p.NumSlots(), p.LSN(), p.NSN(), p.Rightlink(), p.FreeSpace())
}

// KillSlot marks slot i dead (zero length) while keeping the slot index
// stable, unlike DeleteSlot which shifts the directory. Heap pages use dead
// slots so that RIDs remain valid identifiers forever.
func (p *Page) KillSlot(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return ErrBadSlot
	}
	_, length := p.slot(i)
	if length == 0 {
		return ErrBadSlot
	}
	p.setU16(offGarbage, p.u16(offGarbage)+length)
	p.setSlot(i, 0, 0)
	return nil
}

// SlotDead reports whether slot i exists but holds no body.
func (p *Page) SlotDead(i int) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	_, length := p.slot(i)
	return length == 0
}

// FindDeadSlot returns the index of a dead slot, or -1 if none exists.
func (p *Page) FindDeadSlot() int {
	for i := 0; i < p.NumSlots(); i++ {
		if _, length := p.slot(i); length == 0 {
			return i
		}
	}
	return -1
}

// ResurrectSlot stores body into the dead slot i.
func (p *Page) ResurrectSlot(i int, body []byte) error {
	if i < 0 || i >= p.NumSlots() || !p.SlotDead(i) {
		return ErrBadSlot
	}
	// The slot already exists, so only the gap between the directory and
	// freeEnd must hold the body. The gap is computed unclamped: FreeSpace()
	// floors at zero, which on a page packed with tiny bodies (gap < slotSize)
	// would overstate the room and let the copy below overwrite the tail of
	// the slot directory.
	gap := int(p.u16(offFreeEnd)) - HeaderSize - p.NumSlots()*slotSize
	if gap < len(body) {
		if gap+int(p.u16(offGarbage)) < len(body) {
			return ErrPageFull
		}
		p.Compact()
	}
	freeEnd := int(p.u16(offFreeEnd))
	off := freeEnd - len(body)
	copy(p.buf[off:freeEnd], body)
	p.setSlot(i, uint16(off), uint16(len(body)))
	p.setU16(offFreeEnd, uint16(off))
	return nil
}

// EnsureSlot places body at exactly slot i, creating dead padding slots as
// needed and replacing any existing body. Used by page-oriented redo, which
// must reproduce the exact slot assignment recorded in the log.
func (p *Page) EnsureSlot(i int, body []byte) error {
	if i < 0 {
		return ErrBadSlot
	}
	for p.NumSlots() <= i {
		n := p.NumSlots()
		if HeaderSize+(n+1)*slotSize > int(p.u16(offFreeEnd)) {
			// The directory can still grow if compaction reclaims garbage:
			// the original insert that created this slot may itself have
			// compacted. Compact preserves slot indices (dead slots stay
			// dead in place), so it is safe mid-redo.
			if p.u16(offGarbage) == 0 {
				return ErrPageFull
			}
			p.Compact()
			if HeaderSize+(n+1)*slotSize > int(p.u16(offFreeEnd)) {
				return ErrPageFull
			}
		}
		p.setSlot(n, 0, 0)
		p.setU16(offNumSlots, uint16(n+1))
	}
	if !p.SlotDead(i) {
		if err := p.KillSlot(i); err != nil {
			return err
		}
	}
	return p.ResurrectSlot(i, body)
}
