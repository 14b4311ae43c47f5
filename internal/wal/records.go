// Package wal implements the write-ahead log: record types for every entry
// of Table 1 of the paper plus transaction control records and ARIES-style
// compensation log records (CLRs), a log manager with group flush, and the
// tree-global counter (the last LSN) that doubles as the node-sequence-
// number source (§10.1).
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/page"
)

// RecType identifies a log record type. The high bit marks a compensation
// log record (CLR) written while undoing a record of the base type: CLRs
// are redo-only and carry an UndoNext pointer that makes rollback skip the
// already-undone portion.
type RecType uint8

// ClrFlag marks a record as a CLR for its base type.
const ClrFlag RecType = 0x80

// Log record types. The middle block mirrors Table 1 of the paper.
const (
	RecInvalid RecType = iota
	// Transaction control.
	RecBegin
	RecCommit
	RecAbort
	RecEnd
	// RecDummyCLR closes a nested top action (an atomic structure
	// modification, §9.1): its UndoNext points at the record preceding
	// the action, so rollback never undoes a completed SMO.
	RecDummyCLR
	RecCheckpoint

	// Table 1 record types.
	RecParentEntryUpdate   // redo-only: BP expansion propagated to a parent entry
	RecSplit               // node split (written during recursive split)
	RecGarbageCollection   // redo-only: physical removal of committed deleted entries
	RecInternalEntryAdd    // install parent entry for a new node
	RecInternalEntryUpdate // adjust original node's parent entry after split
	RecInternalEntryDelete // remove parent entry during node deletion
	RecAddLeafEntry        // key insertion (logical undo)
	RecMarkLeafEntry       // logical deletion (logical undo)
	RecGetPage             // page allocation
	RecFreePage            // page deallocation
	RecRootChange          // root pointer update in the anchor page (root split)

	// Heap (data page) records, so that the data records the RIDs point
	// at are recoverable alongside the index.
	RecHeapInsert
	RecHeapDelete

	// RecTruncate is the head-truncation intent record: NSN carries the
	// first LSN the log intends to retain. It is written and forced durable
	// before DiscardBefore rewrites the file, making the cut a logged
	// operation; Txn is zero so analysis, redo, and undo all ignore it.
	RecTruncate

	numRecTypes
)

var recTypeNames = map[RecType]string{
	RecBegin:               "Begin",
	RecCommit:              "Commit",
	RecAbort:               "Abort",
	RecEnd:                 "End",
	RecDummyCLR:            "DummyCLR",
	RecCheckpoint:          "Checkpoint",
	RecParentEntryUpdate:   "Parent-Entry-Update",
	RecSplit:               "Split",
	RecGarbageCollection:   "Garbage-Collection",
	RecInternalEntryAdd:    "Internal-Entry-Add",
	RecInternalEntryUpdate: "Internal-Entry-Update",
	RecInternalEntryDelete: "Internal-Entry-Delete",
	RecAddLeafEntry:        "Add-Leaf-Entry",
	RecMarkLeafEntry:       "Mark-Leaf-Entry",
	RecGetPage:             "Get-Page",
	RecFreePage:            "Free-Page",
	RecRootChange:          "Root-Change",
	RecHeapInsert:          "Heap-Insert",
	RecHeapDelete:          "Heap-Delete",
	RecTruncate:            "Truncate",
}

// Base returns the type with the CLR flag stripped.
func (t RecType) Base() RecType { return t &^ ClrFlag }

// IsCLR reports whether the record is a compensation record.
func (t RecType) IsCLR() bool { return t&ClrFlag != 0 }

// String implements fmt.Stringer.
func (t RecType) String() string {
	name, ok := recTypeNames[t.Base()]
	if !ok {
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
	if t.IsCLR() {
		return "CLR(" + name + ")"
	}
	return name
}

// Record is a log record. Payload fields are used according to Type; unused
// fields are zero.
type Record struct {
	LSN      page.LSN
	Type     RecType
	Txn      page.TxnID
	PrevLSN  page.LSN // previous record of the same transaction (backchain)
	UndoNext page.LSN // CLRs and dummy CLRs: next record to undo

	// Pages touched. Pg is the primary page; Pg2 the secondary (the new
	// page of a split, or the parent during BP propagation).
	Pg  page.PageID
	Pg2 page.PageID

	// NSN-related state captured for redo/undo and for logical undo
	// rightlink chasing.
	NSN      page.LSN
	OldNSN   page.LSN
	OldRight page.PageID

	// Level of the page being allocated or split.
	Level uint16

	// Entry bodies. Body is the primary encoded entry (or heap record);
	// OldBody the prior value for undo; Moved the set of entry bodies
	// redistributed by a split or removed by garbage collection.
	Body    []byte
	OldBody []byte
	Moved   [][]byte

	// RID for heap records.
	RID page.RID

	// Checkpoint payload.
	ATT []TxnState
	DPT []DirtyPage
}

// TxnState is one active-transaction-table entry in a checkpoint.
type TxnState struct {
	ID       page.TxnID
	LastLSN  page.LSN
	UndoNext page.LSN
}

// DirtyPage is one dirty-page-table entry in a checkpoint.
type DirtyPage struct {
	ID     page.PageID
	RecLSN page.LSN
}

// String renders the record compactly for traces and the log-dump tool.
func (r *Record) String() string {
	return fmt.Sprintf("%d %s txn=%d prev=%d undoNext=%d pg=%d pg2=%d",
		r.LSN, r.Type, r.Txn, r.PrevLSN, r.UndoNext, r.Pg, r.Pg2)
}

// Binary encoding. All integers big-endian. Byte slices are length-prefixed
// with u32; slice-of-slices with a u32 count.

func putBytes(b *bytes.Buffer, p []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(p)))
	b.Write(n[:])
	b.Write(p)
}

func putByteSlices(b *bytes.Buffer, ps [][]byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ps)))
	b.Write(n[:])
	for _, p := range ps {
		putBytes(b, p)
	}
}

type reader struct {
	b     []byte
	off   int
	err   error
	alias bool // byte fields are subslices of b, not copies
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	var v []byte
	if r.alias {
		v = r.b[r.off : r.off+n : r.off+n]
	} else {
		v = make([]byte, n)
		copy(v, r.b[r.off:r.off+n])
	}
	r.off += n
	return v
}

func (r *reader) byteSlices() [][]byte {
	n := int(r.u32())
	if r.err != nil || n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.bytes())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wal: truncated record at offset %d of %d", r.off, len(r.b))
	}
}

// encodePayload serializes everything after the common header.
func (r *Record) encodePayload(b *bytes.Buffer) {
	var scratch [8]byte
	u32 := func(v uint32) { binary.BigEndian.PutUint32(scratch[:4], v); b.Write(scratch[:4]) }
	u64 := func(v uint64) { binary.BigEndian.PutUint64(scratch[:], v); b.Write(scratch[:8]) }
	u16 := func(v uint16) { binary.BigEndian.PutUint16(scratch[:2], v); b.Write(scratch[:2]) }

	u32(uint32(r.Pg))
	u32(uint32(r.Pg2))
	u64(uint64(r.NSN))
	u64(uint64(r.OldNSN))
	u32(uint32(r.OldRight))
	u16(r.Level)
	u32(uint32(r.RID.Page))
	u16(r.RID.Slot)
	putBytes(b, r.Body)
	putBytes(b, r.OldBody)
	putByteSlices(b, r.Moved)
	u32(uint32(len(r.ATT)))
	for _, ts := range r.ATT {
		u64(uint64(ts.ID))
		u64(uint64(ts.LastLSN))
		u64(uint64(ts.UndoNext))
	}
	u32(uint32(len(r.DPT)))
	for _, dp := range r.DPT {
		u32(uint32(dp.ID))
		u64(uint64(dp.RecLSN))
	}
}

func (r *Record) decodePayload(rd *reader) error {
	r.Pg = page.PageID(rd.u32())
	r.Pg2 = page.PageID(rd.u32())
	r.NSN = page.LSN(rd.u64())
	r.OldNSN = page.LSN(rd.u64())
	r.OldRight = page.PageID(rd.u32())
	r.Level = rd.u16()
	r.RID.Page = page.PageID(rd.u32())
	r.RID.Slot = rd.u16()
	r.Body = rd.bytes()
	r.OldBody = rd.bytes()
	r.Moved = rd.byteSlices()
	natt := int(rd.u32())
	if rd.err == nil && natt >= 0 && natt < 1<<20 {
		r.ATT = make([]TxnState, natt)
		for i := range r.ATT {
			r.ATT[i].ID = page.TxnID(rd.u64())
			r.ATT[i].LastLSN = page.LSN(rd.u64())
			r.ATT[i].UndoNext = page.LSN(rd.u64())
		}
	}
	ndpt := int(rd.u32())
	if rd.err == nil && ndpt >= 0 && ndpt < 1<<20 {
		r.DPT = make([]DirtyPage, ndpt)
		for i := range r.DPT {
			r.DPT[i].ID = page.PageID(rd.u32())
			r.DPT[i].RecLSN = page.LSN(rd.u64())
		}
	}
	// Normalize empties so that round trips compare equal.
	if len(r.Body) == 0 {
		r.Body = nil
	}
	if len(r.OldBody) == 0 {
		r.OldBody = nil
	}
	if len(r.Moved) == 0 {
		r.Moved = nil
	}
	if len(r.ATT) == 0 {
		r.ATT = nil
	}
	if len(r.DPT) == 0 {
		r.DPT = nil
	}
	return rd.err
}

// Encode serializes the full record (header + payload), without framing.
func (r *Record) Encode() []byte {
	var b bytes.Buffer
	var scratch [8]byte
	b.WriteByte(byte(r.Type))
	binary.BigEndian.PutUint64(scratch[:], uint64(r.LSN))
	b.Write(scratch[:])
	binary.BigEndian.PutUint64(scratch[:], uint64(r.Txn))
	b.Write(scratch[:])
	binary.BigEndian.PutUint64(scratch[:], uint64(r.PrevLSN))
	b.Write(scratch[:])
	binary.BigEndian.PutUint64(scratch[:], uint64(r.UndoNext))
	b.Write(scratch[:])
	r.encodePayload(&b)
	return b.Bytes()
}

// DecodeRecord parses an encoded record. The record shares no memory with
// b.
func DecodeRecord(b []byte) (*Record, error) {
	return decodeRecord(b, false)
}

// decodeRecord is DecodeRecord; with alias set the record's byte fields are
// capacity-capped subslices of b instead of copies, so b must stay
// unmodified for the record's lifetime.
func decodeRecord(b []byte, alias bool) (*Record, error) {
	rd := &reader{b: b, alias: alias}
	r := &Record{}
	r.Type = RecType(rd.u8())
	r.LSN = page.LSN(rd.u64())
	r.Txn = page.TxnID(rd.u64())
	r.PrevLSN = page.LSN(rd.u64())
	r.UndoNext = page.LSN(rd.u64())
	if err := r.decodePayload(rd); err != nil {
		return nil, err
	}
	if r.Type.Base() == RecInvalid || r.Type.Base() >= numRecTypes {
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return r, nil
}
