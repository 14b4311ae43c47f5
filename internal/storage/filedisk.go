package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/page"
	"repro/internal/stats"
)

// BlockFile is the file abstraction under FileDisk, split out so the crash
// harness can inject torn-write faults beneath the page store.
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
	Name() string
}

// FileDisk is a page store backed by an operating-system file plus a small
// double-write journal.
//
// Layout: page id N lives at byte offset N*page.Size. Offset 0 (page id 0,
// which is page.InvalidPage) holds the store's metadata block: the next
// never-used page id and the free list. The free list is persisted in the
// metadata block on Sync/Close; allocation state is therefore crash-safe
// only in combination with the Get-Page/Free-Page log records written by
// the tree layer, exactly as in the paper's recovery protocol.
//
// Torn page writes: the pageLSN lives in the first bytes of the page
// header, so a write torn mid-page leaves a new LSN stitched onto old
// content — restart redo would trust the LSN and skip the page, shipping
// the corruption. WAL rules cannot repair this (the paper assumes atomic
// page writes), so every page write goes through a double-write journal
// first: the full image is journaled (sequence-numbered and checksummed),
// then written home. On open the journal is replayed — for each page the
// highest-sequence intact frame is rewritten home, which is a no-op if the
// home write completed and heals the tear if it did not. The metadata
// block takes the same route.
type FileDisk struct {
	mu   sync.Mutex
	f    BlockFile
	next page.PageID
	free []page.PageID
	live map[page.PageID]bool

	// Double-write journal state. dwMu orders journal appends; the
	// sequence number totally orders frames so replay can pick the
	// newest image per page.
	dw    BlockFile
	dwMu  sync.Mutex
	dwSeq uint64

	reg    *stats.Registry
	reads  *stats.Counter
	writes *stats.Counter
}

const fileMagic = 0x47695354 // "GiST"

// Double-write journal format: dwSlots fixed-size frames, used round-robin
// by sequence number. Frame: magic u32, seq u64, page id u32, crc u32 (over
// seq|id|payload), payload page.Size.
const (
	dwMagic     = 0x47445721 // "GDW!"
	dwSlots     = 128
	dwHdrSize   = 4 + 8 + 4 + 4
	dwFrameSize = dwHdrSize + page.Size
)

// OpenFileDisk opens or creates a file-backed page store at path, with its
// double-write journal in a sibling file at path+".dw".
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	dw, err := os.OpenFile(path+".dw", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open %s: %w", path+".dw", err)
	}
	d, err := OpenFileDiskFiles(f, dw)
	if err != nil {
		f.Close()
		dw.Close()
		return nil, err
	}
	return d, nil
}

// OpenFileDiskFiles builds a page store over already-open files; the crash
// harness calls it with fault-injecting BlockFiles. dw may be nil to run
// without torn-write protection.
func OpenFileDiskFiles(f, dw BlockFile) (*FileDisk, error) {
	d := &FileDisk{f: f, dw: dw, next: 1, live: make(map[page.PageID]bool)}
	d.reg = stats.NewRegistry()
	d.reads = d.reg.Counter("disk.reads")
	d.writes = d.reg.Counter("disk.writes")
	if dw != nil {
		if err := d.replayDoublewrite(); err != nil {
			return nil, err
		}
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() >= page.Size {
		if err := d.loadMeta(); err != nil {
			return nil, err
		}
	} else if err := d.storeMeta(); err != nil {
		return nil, err
	}
	return d, nil
}

// replayDoublewrite scans the journal and heals torn home writes. For every
// page with at least one intact frame, the highest-sequence image is a
// candidate — but it is NOT unconditionally rewritten: the ring reuses slots,
// so a page's truly newest frame can be evicted by later traffic, leaving a
// stale older frame whose blind replay would regress a perfectly good home
// image past committed, flushed updates. A completed home write never needs
// healing, so a frame is restored only when the home image is behind it:
//
//   - the frame carrying the journal's globally highest sequence number is
//     always restored — if any home write was torn it is the final write of
//     the crash, its journal frame necessarily completed just before it and
//     nothing overwrote that frame afterwards (the torn home's own LSN bytes
//     may themselves be torn garbage, so no header comparison is trusted);
//   - any other page frame is restored only if its pageLSN is at or above
//     the home image's pageLSN (equal means home is the same write, torn or
//     complete; above means the home write never happened) — homes other
//     than the final write completed, so their headers are intact;
//   - the metadata block has no pageLSN and is restored only as the global
//     newest; a stale metadata home is instead healed by the recovery
//     layer's allocation replay over the retained log.
//
// Torn journal frames fail their checksum and are skipped — their home
// write never started, so the old home image is intact.
func (d *FileDisk) replayDoublewrite() error {
	st, err := d.dw.Stat()
	if err != nil {
		return err
	}
	type best struct {
		seq     uint64
		payload []byte
	}
	newest := make(map[page.PageID]best)
	var maxSeq uint64
	maxSeqPage := page.InvalidPage
	seen := false
	frame := make([]byte, dwFrameSize)
	for slot := int64(0); (slot+1)*dwFrameSize <= st.Size(); slot++ {
		if _, err := d.dw.ReadAt(frame, slot*dwFrameSize); err != nil {
			return fmt.Errorf("storage: read dw slot %d: %w", slot, err)
		}
		if binary.BigEndian.Uint32(frame) != dwMagic {
			continue
		}
		seq := binary.BigEndian.Uint64(frame[4:])
		id := page.PageID(binary.BigEndian.Uint32(frame[12:]))
		crc := binary.BigEndian.Uint32(frame[16:])
		if crc32.ChecksumIEEE(frame[4:16])^crc32.ChecksumIEEE(frame[dwHdrSize:]) != crc {
			continue
		}
		if seq >= maxSeq || !seen {
			maxSeq, maxSeqPage, seen = seq, id, true
		}
		if b, ok := newest[id]; !ok || seq > b.seq {
			newest[id] = best{seq: seq, payload: append([]byte(nil), frame[dwHdrSize:]...)}
		}
	}
	home := make([]byte, page.Size)
	for id, b := range newest {
		restore := id == maxSeqPage
		if !restore && id != page.InvalidPage {
			homeLSN := uint64(0)
			if n, err := d.f.ReadAt(home, int64(id)*page.Size); err == nil || n >= 12 {
				homeLSN = binary.BigEndian.Uint64(home[4:12])
			}
			restore = binary.BigEndian.Uint64(b.payload[4:12]) >= homeLSN
		}
		if !restore {
			continue
		}
		if _, err := d.f.WriteAt(b.payload, int64(id)*page.Size); err != nil {
			return fmt.Errorf("storage: dw replay of page %d: %w", id, err)
		}
	}
	d.dwSeq = maxSeq + 1
	return nil
}

// writeThrough journals the image (if the journal is enabled), then writes
// it home. The journal write completes before the home write starts, so at
// most one of the two can be torn by a crash and replay always has an
// intact copy of the newest image.
func (d *FileDisk) writeThrough(id page.PageID, buf []byte) error {
	if d.dw != nil {
		d.dwMu.Lock()
		seq := d.dwSeq
		d.dwSeq++
		frame := make([]byte, dwFrameSize)
		binary.BigEndian.PutUint32(frame, dwMagic)
		binary.BigEndian.PutUint64(frame[4:], seq)
		binary.BigEndian.PutUint32(frame[12:], uint32(id))
		copy(frame[dwHdrSize:], buf[:page.Size])
		crc := crc32.ChecksumIEEE(frame[4:16]) ^ crc32.ChecksumIEEE(frame[dwHdrSize:])
		binary.BigEndian.PutUint32(frame[16:], crc)
		_, err := d.dw.WriteAt(frame, int64(seq%dwSlots)*dwFrameSize)
		d.dwMu.Unlock()
		if err != nil {
			return fmt.Errorf("storage: dw journal page %d: %w", id, err)
		}
	}
	if _, err := d.f.WriteAt(buf[:page.Size], int64(id)*page.Size); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Metadata block layout: magic u32, next u32, nfree u32, free ids u32 each.
func (d *FileDisk) loadMeta() error {
	buf := make([]byte, page.Size)
	if _, err := d.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read meta: %w", err)
	}
	if binary.BigEndian.Uint32(buf) != fileMagic {
		return fmt.Errorf("storage: bad magic in %s", d.f.Name())
	}
	d.next = page.PageID(binary.BigEndian.Uint32(buf[4:]))
	nfree := int(binary.BigEndian.Uint32(buf[8:]))
	d.free = d.free[:0]
	freeSet := make(map[page.PageID]bool, nfree)
	for i := 0; i < nfree; i++ {
		id := page.PageID(binary.BigEndian.Uint32(buf[12+4*i:]))
		d.free = append(d.free, id)
		freeSet[id] = true
	}
	for id := page.PageID(1); id < d.next; id++ {
		if !freeSet[id] {
			d.live[id] = true
		}
	}
	return nil
}

func (d *FileDisk) storeMeta() error {
	buf := make([]byte, page.Size)
	binary.BigEndian.PutUint32(buf, fileMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(d.next))
	maxFree := (page.Size - 12) / 4
	n := len(d.free)
	if n > maxFree {
		n = maxFree // overflow ids are simply leaked until recovery GC
	}
	binary.BigEndian.PutUint32(buf[8:], uint32(n))
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(buf[12+4*i:], uint32(d.free[i]))
	}
	if err := d.writeThrough(page.InvalidPage, buf); err != nil {
		return fmt.Errorf("storage: write meta: %w", err)
	}
	return nil
}

// Allocate implements Manager.
func (d *FileDisk) Allocate() (page.PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var id page.PageID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.next
		d.next++
	}
	d.live[id] = true
	// Extend the file with a zero page so reads of fresh pages succeed.
	// No journaling: a torn zero-extend is indistinguishable from a short
	// file, which ReadPage tolerates (see the zero-fill there).
	zero := make([]byte, page.Size)
	if _, err := d.f.WriteAt(zero, int64(id)*page.Size); err != nil {
		return 0, fmt.Errorf("storage: extend: %w", err)
	}
	return id, nil
}

// Deallocate implements Manager.
func (d *FileDisk) Deallocate(id page.PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.live[id] {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	delete(d.live, id)
	d.free = append(d.free, id)
	return nil
}

// ReadPage implements Manager. A read past EOF or cut short by it returns
// zeroes for the missing suffix: a crash can tear the zero-extension of a
// fresh page, leaving the file short of the page the log proves allocated.
func (d *FileDisk) ReadPage(id page.PageID, buf []byte) error {
	d.mu.Lock()
	live := d.live[id]
	d.mu.Unlock()
	d.reads.Inc()
	if !live {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	n, err := d.f.ReadAt(buf[:page.Size], int64(id)*page.Size)
	if err == io.EOF && n < page.Size {
		for i := n; i < page.Size; i++ {
			buf[i] = 0
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Manager.
func (d *FileDisk) WritePage(id page.PageID, buf []byte) error {
	d.mu.Lock()
	live := d.live[id]
	d.mu.Unlock()
	d.writes.Inc()
	if !live {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	return d.writeThrough(id, buf)
}

// NumAllocated implements Manager.
func (d *FileDisk) NumAllocated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.live)
}

// Metrics exposes the store's counter registry.
func (d *FileDisk) Metrics() *stats.Registry { return d.reg }

// Sync implements Manager: persists the allocation metadata and fsyncs.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.storeMeta(); err != nil {
		return err
	}
	if d.dw != nil {
		if err := d.dw.Sync(); err != nil {
			return err
		}
	}
	return d.f.Sync()
}

// Close implements Manager.
func (d *FileDisk) Close() error {
	err := d.Sync()
	if d.dw != nil {
		if cerr := d.dw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// EnsureAllocated implements Manager.
func (d *FileDisk) EnsureAllocated(id page.PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live[id] {
		return nil
	}
	d.live[id] = true
	for i, f := range d.free {
		if f == id {
			d.free = append(d.free[:i], d.free[i+1:]...)
			break
		}
	}
	if id >= d.next {
		// Extend the file only if it does not already cover the page:
		// content flushed before a crash may be beyond the stale
		// metadata watermark and must not be zeroed (restart redo
		// decides, via the pageLSN, what applies on top of it).
		st, err := d.f.Stat()
		if err != nil {
			return err
		}
		if st.Size() < int64(id+1)*page.Size {
			zero := make([]byte, page.Size)
			if _, err := d.f.WriteAt(zero, int64(id)*page.Size); err != nil {
				return fmt.Errorf("storage: extend: %w", err)
			}
		}
		d.next = id + 1
	}
	return nil
}

// EnsureDeallocated implements Manager.
func (d *FileDisk) EnsureDeallocated(id page.PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.live[id] {
		return nil
	}
	delete(d.live, id)
	d.free = append(d.free, id)
	return nil
}
