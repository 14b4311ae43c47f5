package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
	"repro/internal/shards"
	"repro/internal/stats"
)

// ErrNoSuchLSN is returned by Get for an LSN outside the log.
var ErrNoSuchLSN = errors.New("wal: no such LSN")

// ErrLogFailed wraps the first unrecoverable I/O error; once set, every
// durability request fails with it (the log refuses to advance the flushed
// watermark past bytes whose fate on disk is unknown).
var ErrLogFailed = errors.New("wal: log failed")

// File is the slice of *os.File the log uses, split out so the failure
// tests and the crash-point harness can inject write and fsync faults.
type File interface {
	io.ReadWriteSeeker
	io.Closer
	Truncate(int64) error
	Sync() error
	Stat() (os.FileInfo, error)
}

// Log is the log manager, organized as an append pipeline:
//
//	reserve (atomic fetch-add)  →  encode + CRC (no lock)  →
//	stage (per-shard buffer)    →  seal (ordered drain)    →
//	flush (dedicated goroutine, one fsync per batch)
//
// An appender reserves its LSN with a single atomic add — so LastLSN and
// FlushedLSN, the traversal hot path, are lock-free loads — encodes and
// checksums the record body outside any lock, and parks the finished frame
// in a staging shard. A short ordered drain (the only serialized step, a
// few pointer moves per record) seals staged records into the in-memory
// index and their frames into the pending batch in strict LSN order.
// Committers do not write or sync the file themselves: FlushTo parks the
// caller on a commit queue and a dedicated flusher goroutine drains the
// batch with one write+fsync, releasing every waiter the batch covered
// (group commit).
//
// The last assigned LSN is the tree-global counter of the GiST concurrency
// protocol: a node split's NSN is the LSN of its Split record, so the
// counter is incremented by the split implicitly and is recoverable without
// extra log records (§10.1). The pipeline preserves the §10.1 visibility
// invariant by construction: the reservation advances the counter before
// Append returns, and a split can stamp its NSN on a node only after Append
// has returned that LSN — so any NSN a traversal can observe on a reachable
// node is ≤ every subsequent LastLSN read, even while the record itself is
// still being encoded or staged.
type Log struct {
	// Hot-path watermarks, all lock-free loads.
	next    atomic.Uint64 // last reserved LSN (LastLSN)
	sealed  atomic.Uint64 // every record at or below it is published in order
	flushed atomic.Uint64 // highest durable LSN (FlushedLSN)

	// stage is the lock-free staging ring between reservation and seal:
	// slot lsn&mask holds the record reserved at lsn until the ordered
	// drain consumes it. Appenders publish with one atomic store; no lock.
	stage     []stageSlot
	stageMask uint64

	// mu guards the sealed state: the in-memory record index, the pending
	// frame batch, head truncation, and the sticky failure. The critical
	// sections move pointers only; encoding and I/O happen outside.
	mu           sync.Mutex
	base         page.LSN  // LSNs 1..base have been discarded (head truncation)
	records      []*Record // records[i] has LSN base+i+1; contiguous (sealed prefix)
	pending      []byte    // sealed, encoded frames not yet handed to a flush
	pendingCount int64     // records in pending
	masterCk     page.LSN  // LSN of the most recent checkpoint record
	failed       error     // sticky: set when the file can no longer be trusted

	// File state. ioMu serializes batch cuts and all file I/O so batches
	// reach the file in LSN order no matter which path runs them; it is
	// always taken before mu, never while holding it. goodOffset is the
	// file length known written (touched only under ioMu). truncFile is the
	// head-truncation sidecar journal: DiscardBefore stages the surviving
	// suffix there (write+sync) before rewriting the main file, so a crash
	// at any byte of the rewrite is repaired idempotently at the next open.
	file       File
	truncFile  File
	ioMu       sync.Mutex
	goodOffset int64

	// appended counts bytes appended over the log's lifetime (frame bytes
	// for file logs, an encoding-size estimate for in-memory logs); the
	// maintenance checkpointer uses the delta since its last checkpoint as
	// its byte trigger.
	appended atomic.Int64

	// Commit queue and flusher goroutine (file-backed logs only).
	qmu       sync.Mutex
	waiters   []*flushWaiter
	flusherOn bool
	kick      chan struct{}
	stop      chan struct{}
	flusherWG sync.WaitGroup

	// Flushed-watermark watchers (log shipping): every advance of the
	// flushed watermark pokes each registered channel (non-blocking; the
	// channels are buffered depth 1, so a slow watcher coalesces pokes).
	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}

	reg          *stats.Registry
	appends      *stats.Counter   // LSN reservations
	syncs        *stats.Counter   // physical flushes (group commit metric)
	stageStalls  *stats.Counter   // appends that could not publish immediately
	batchRecords *stats.Counter   // records flushed, cumulative (÷ syncs = batch size)
	batchBytes   *stats.Counter   // bytes flushed, cumulative
	fsyncNanos   *stats.Counter   // time spent in fsync, cumulative
	groupWaits   *stats.Counter   // committers parked on the commit queue
	coalesced    *stats.Counter   // commit records published with their force request
	fsyncHist    *stats.Histogram // per-fsync latency distribution
}

// stageSlot is one ring slot of the reservation→seal handoff buffer. seq
// holds the LSN whose record the slot carries (0 = free); the atomic store
// of seq publishes rec/frame to the drain (release/acquire pairing).
type stageSlot struct {
	seq   atomic.Uint64
	rec   *Record
	frame []byte // pre-encoded, CRC-framed bytes (nil for in-memory logs)
	_     [24]byte
}

// flushWaiter is one parked committer: released (once) when the flushed
// watermark passes lsn or the log fails.
type flushWaiter struct {
	lsn page.LSN
	ch  chan error
}

// flushBacklog is the pending-batch size that triggers a write-behind
// flush even with no committer waiting, bounding batch latency and memory.
const flushBacklog = 256 << 10

// drainEvery is the append-count stride between designated seal attempts:
// the appender whose LSN is a multiple of drainEvery tries (without
// blocking) to drain the staging ring. Small enough that the sealed prefix
// lags the reserved watermark by well under a ring, large enough that the
// drain mutex stays cold on the append hot path.
const drainEvery = 64

// NewMemLog returns an in-memory log (no durability; crash simulation uses
// SurvivingLog to model what a file would have retained).
func NewMemLog() *Log {
	l := &Log{}
	l.init()
	return l
}

// init wires the staging ring and the stats registry; every constructor
// path (NewMemLog, OpenFileLog, SurvivingLog, TruncatedCopy) runs it.
func (l *Log) init() {
	// The ring is sized from GOMAXPROCS like the other sharded managers:
	// enough slack that appenders lap the drain only under extreme skew.
	n := 256 * shards.Count(0)
	l.stage = make([]stageSlot, n)
	l.stageMask = uint64(n - 1)
	l.reg = stats.NewRegistry()
	l.appends = l.reg.Counter("wal.appends")
	l.syncs = l.reg.Counter("wal.syncs")
	l.stageStalls = l.reg.Counter("wal.stage_stalls")
	l.batchRecords = l.reg.Counter("wal.batch_records")
	l.batchBytes = l.reg.Counter("wal.batch_bytes")
	l.fsyncNanos = l.reg.Counter("wal.fsync_nanos")
	l.fsyncHist = l.reg.Histogram("wal.fsync")
	l.groupWaits = l.reg.Counter("wal.group_waits")
	l.coalesced = l.reg.Counter("wal.commit_coalesced")
	l.reg.Gauge("wal.stage_slots", func() int64 { return int64(n) })
	l.reg.Gauge("wal.last_lsn", func() int64 { return int64(l.next.Load()) })
	l.reg.Gauge("wal.flushed_lsn", func() int64 { return int64(l.flushed.Load()) })
	l.reg.Gauge("wal.appended_bytes", func() int64 { return l.appended.Load() })
}

// setWatermarks initializes all three watermarks to lsn (construction only).
func (l *Log) setWatermarks(lsn page.LSN) {
	l.next.Store(uint64(lsn))
	l.sealed.Store(uint64(lsn))
	l.flushed.Store(uint64(lsn))
}

// Metrics exposes the log's counter registry.
func (l *Log) Metrics() *stats.Registry { return l.reg }

// fileHeader is the 8-byte magic prefix of a log file.
var fileHeader = []byte("GiSTWAL1")

// truncHeader is the magic prefix of the head-truncation sidecar journal.
var truncHeader = []byte("GiSTTRN1")

// TruncSuffix is appended to a log path to name its truncation journal.
const TruncSuffix = ".trunc"

// OpenFileLog opens or creates a durable log at path, scanning any existing
// records to rebuild the in-memory index, and starts the group-commit
// flusher. A trailing torn record (bad CRC or truncation) ends the scan;
// everything before it is kept. The head-truncation sidecar journal lives
// at path+TruncSuffix; a complete journal left by a crash mid-truncation is
// re-applied before the scan.
func OpenFileLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	tf, err := os.OpenFile(path+TruncSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path+TruncSuffix, err)
	}
	l, err := openFileLog(f, tf)
	if err != nil {
		f.Close()
		tf.Close()
		return nil, err
	}
	return l, nil
}

// OpenFileLogHandle builds a file-backed log over an already-open handle,
// without a truncation journal: DiscardBefore falls back to the direct
// (non-crash-atomic) rewrite. The failure tests use it; production paths
// and the crash harness pass a journal via OpenFileLogHandles.
func OpenFileLogHandle(f File) (*Log, error) { return openFileLog(f, nil) }

// OpenFileLogHandles builds a file-backed log over already-open handles for
// the log file and its truncation sidecar journal. The crash harness calls
// it with fault-injecting Files; the caller keeps ownership of the handles
// if the open fails.
func OpenFileLogHandles(f, trunc File) (*Log, error) { return openFileLog(f, trunc) }

// openFileLog builds a file-backed log over already-open files; the
// failure tests call it with fault-injecting Files.
func openFileLog(f, trunc File) (*Log, error) {
	l := &Log{file: f, truncFile: trunc}
	l.init()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		// Fresh log: any sidecar content is a stale leftover, never a
		// journal for this (empty) file.
		if err := l.invalidateTruncJournal(); err != nil {
			return nil, err
		}
		if _, err := f.Write(fileHeader); err != nil {
			return nil, err
		}
		l.goodOffset = int64(len(fileHeader))
	} else {
		if err := l.recoverTruncation(); err != nil {
			return nil, err
		}
		if err := l.scan(); err != nil {
			return nil, err
		}
	}
	l.startFlusher()
	return l, nil
}

// invalidateTruncJournal empties the sidecar journal (truncate + sync),
// marking any in-progress truncation as either never-started or complete.
func (l *Log) invalidateTruncJournal() error {
	if l.truncFile == nil {
		return nil
	}
	st, err := l.truncFile.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	if err := l.truncFile.Truncate(0); err != nil {
		return err
	}
	return l.truncFile.Sync()
}

// recoverTruncation inspects the sidecar journal at open. A complete,
// CRC-valid journal means a truncation had durably staged its surviving
// suffix but may have died mid-rewrite of the main file; the rewrite is
// re-applied (idempotently — the journal holds the exact bytes the file
// should contain after the header) and the journal invalidated. A torn or
// garbled journal means the crash hit the journal write itself, before the
// main file was touched; it is simply discarded.
func (l *Log) recoverTruncation() error {
	if l.truncFile == nil {
		return nil
	}
	st, err := l.truncFile.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	hdrLen := int64(len(truncHeader)) + 8
	if st.Size() < hdrLen {
		return l.invalidateTruncJournal()
	}
	if _, err := l.truncFile.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(l.truncFile, hdr); err != nil {
		return l.invalidateTruncJournal()
	}
	if string(hdr[:len(truncHeader)]) != string(truncHeader) {
		return l.invalidateTruncJournal()
	}
	n := binary.BigEndian.Uint32(hdr[len(truncHeader):])
	crc := binary.BigEndian.Uint32(hdr[len(truncHeader)+4:])
	if int64(n) != st.Size()-hdrLen {
		return l.invalidateTruncJournal() // torn journal write
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(l.truncFile, payload); err != nil {
		return l.invalidateTruncJournal()
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return l.invalidateTruncJournal()
	}
	// Valid journal: replay the rewrite. The write-order invariant (the
	// journal is invalidated before any append reaches the file) guarantees
	// no durable record past the journaled suffix exists, so restoring the
	// suffix cannot lose log tail.
	if err := l.file.Truncate(int64(len(fileHeader))); err != nil {
		return err
	}
	if _, err := l.file.Seek(int64(len(fileHeader)), io.SeekStart); err != nil {
		return err
	}
	if _, err := l.file.Write(payload); err != nil {
		return err
	}
	if err := l.file.Sync(); err != nil {
		return err
	}
	return l.invalidateTruncJournal()
}

// startFlusher launches the dedicated group-commit goroutine.
func (l *Log) startFlusher() {
	l.kick = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.flusherOn = true
	l.flusherWG.Add(1)
	go l.runFlusher()
}

// scanBufSize is the read buffer of the restart scan: large enough that
// reading a log costs a few syscalls per MiB rather than two per record.
const scanBufSize = 1 << 20

// scan reads all valid records from the file into memory. Each record body
// is copied once out of the read buffer, and the decoded record's byte
// fields alias that copy.
func (l *Log) scan() error {
	if _, err := l.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rd := bufio.NewReaderSize(l.file, scanBufSize)
	hdr := make([]byte, len(fileHeader))
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return fmt.Errorf("wal: header: %w", err)
	}
	if string(hdr) != string(fileHeader) {
		return fmt.Errorf("wal: bad log file header")
	}
	offset := int64(len(fileHeader))
	var frame [8]byte
	for {
		if _, err := io.ReadFull(rd, frame[:]); err != nil {
			break // clean EOF or torn tail
		}
		n := binary.BigEndian.Uint32(frame[:4])
		crc := binary.BigEndian.Uint32(frame[4:])
		if n > 1<<26 {
			break
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(rd, body); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		r, err := decodeRecord(body, true)
		if err != nil {
			break
		}
		if len(l.records) == 0 {
			// The file may start past LSN 1 after head truncation.
			l.base = r.LSN - 1
		} else if r.LSN != l.base+page.LSN(len(l.records)+1) {
			return fmt.Errorf("wal: LSN gap: record %d at position %d", r.LSN, len(l.records)+1)
		}
		l.records = append(l.records, r)
		if r.Type == RecCheckpoint {
			l.masterCk = r.LSN
		}
		offset += 8 + int64(n)
	}
	// Truncate any torn tail so future appends start clean.
	if err := l.file.Truncate(offset); err != nil {
		return err
	}
	if _, err := l.file.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	l.goodOffset = offset
	l.setWatermarks(l.base + page.LSN(len(l.records)))
	return nil
}

// slotOf maps an LSN to its staging ring slot.
func (l *Log) slotOf(lsn page.LSN) *stageSlot {
	return &l.stage[uint64(lsn)&l.stageMask]
}

// Append assigns the next LSN to r and adds it to the log. The record
// becomes durable only after a FlushTo covering its LSN.
//
// The LSN is reserved with one atomic add — the only cross-appender
// serialization on the hot path — then the record is encoded, checksummed,
// and published into its ring slot without taking any lock. The ordered
// drain that seals records into the index runs amortized: once per
// half-ring of appends, or whenever a reader or committer needs the sealed
// prefix.
func (l *Log) Append(r *Record) page.LSN {
	lsn := page.LSN(l.next.Add(1))
	r.LSN = lsn
	var frame []byte
	if l.file != nil {
		body := r.Encode()
		frame = make([]byte, 8+len(body))
		binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
		copy(frame[8:], body)
		l.appended.Add(int64(len(frame)))
	} else {
		l.appended.Add(recSizeEstimate(r))
	}
	s := l.slotOf(lsn)
	// The slot may be claimed only once the occupant from one ring lap ago
	// (lsn - ringSize) has been sealed — an empty-looking slot is not
	// enough, because that occupant may be reserved but not yet published,
	// and publishing under it would wedge the ordered drain forever. Drain
	// in-line until sealed catches up; the lowest unpublished LSN never
	// waits (everything below it is published and drainable), so this
	// always makes progress.
	ring := uint64(len(l.stage))
	if uint64(lsn) > l.sealed.Load()+ring {
		l.stageStalls.Inc()
		for spins := 0; ; spins++ {
			l.mu.Lock()
			l.drainLocked()
			l.mu.Unlock()
			if uint64(lsn) <= l.sealed.Load()+ring {
				break
			}
			// The drain is blocked behind a reserved-but-unpublished LSN
			// whose goroutine needs CPU to publish; yield, then back off to
			// a sleep so a herd of full-ring appenders does not starve it.
			if spins < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	s.rec, s.frame = r, frame
	s.seq.Store(uint64(lsn)) // publish (release): drain reads rec/frame after seq
	l.appends.Inc()

	// Amortized seal: one designated appender per drainEvery LSNs seals for
	// everyone, so the drain mutex sees a trickle of acquirers rather than a
	// thundering herd. TryLock — if a drain is already running it will pick
	// this record up; if the designated drainer loses the race entirely, the
	// next designee (at most drainEvery LSNs later) or any waitSealed caller
	// picks up the slack.
	if uint64(lsn)%drainEvery == 0 && l.mu.TryLock() {
		l.drainLocked()
		backlog := len(l.pending)
		l.mu.Unlock()
		if backlog >= flushBacklog {
			l.kickFlusher()
		}
	}
	return lsn
}

// drainLocked seals staged records into the in-memory index (and their
// frames into the pending batch) in strict LSN order, stopping at the first
// gap — a reserved LSN whose appender has not yet published it. l.mu held.
func (l *Log) drainLocked() {
	advanced := false
	for {
		lsn := l.base + page.LSN(len(l.records)) + 1
		if uint64(lsn) > l.next.Load() {
			break
		}
		s := l.slotOf(lsn)
		if s.seq.Load() != uint64(lsn) {
			break // gap: the reserving appender has not published yet
		}
		l.records = append(l.records, s.rec)
		if s.rec.Type == RecCheckpoint {
			l.masterCk = lsn
		}
		if l.file != nil {
			l.pending = append(l.pending, s.frame...)
			l.pendingCount++
		}
		s.rec, s.frame = nil, nil
		s.seq.Store(0) // free the slot for the appender one lap ahead
		advanced = true
	}
	if advanced {
		l.sealed.Store(uint64(l.base + page.LSN(len(l.records))))
	}
}

// waitSealed blocks until every record at or below lsn is sealed. The
// unsealed window is the handful of instructions between a reservation and
// its staging (nothing in between can block), so this spins rather than
// sleeping on a condition variable.
func (l *Log) waitSealed(lsn page.LSN) {
	if max := page.LSN(l.next.Load()); lsn > max {
		lsn = max
	}
	for spins := 0; page.LSN(l.sealed.Load()) < lsn; spins++ {
		l.mu.Lock()
		l.drainLocked()
		l.mu.Unlock()
		if page.LSN(l.sealed.Load()) >= lsn {
			return
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// LastLSN returns the highest assigned LSN — the tree-global counter value
// read by traversing operations. It is a single atomic load; the counter
// already covers every LSN any reachable node can carry as its NSN (§10.1).
func (l *Log) LastLSN() page.LSN {
	return page.LSN(l.next.Load())
}

// FlushedLSN returns the highest durable LSN (lock-free).
func (l *Log) FlushedLSN() page.LSN {
	return page.LSN(l.flushed.Load())
}

// AppendedBytes returns the cumulative bytes appended to the log (framed
// bytes for file logs, an estimate for in-memory logs). The maintenance
// checkpointer triggers on the delta since its last checkpoint.
func (l *Log) AppendedBytes() int64 { return l.appended.Load() }

// recSizeEstimate approximates the framed size of a record without encoding
// it, for in-memory byte accounting: the fixed header/payload scalars plus
// the variable byte fields.
func recSizeEstimate(r *Record) int64 {
	n := 8 + 33 + 36 // frame + common header + fixed payload scalars
	n += 4 + len(r.Body)
	n += 4 + len(r.OldBody)
	n += 4
	for _, m := range r.Moved {
		n += 4 + len(m)
	}
	n += 4 + 24*len(r.ATT)
	n += 4 + 12*len(r.DPT)
	return int64(n)
}

// FlushTo makes the log durable up to at least lsn. It implements
// buffer.LogFlusher. For an in-memory log it only advances the flushed
// watermark (used by crash simulation to decide which records survive).
// For a file-backed log the caller parks on the commit queue; the flusher
// goroutine batches every parked committer into one write+fsync.
func (l *Log) FlushTo(lsn page.LSN) error {
	if max := page.LSN(l.next.Load()); lsn > max {
		lsn = max
	}
	if page.LSN(l.flushed.Load()) >= lsn {
		return nil
	}
	if l.file == nil {
		l.waitSealed(lsn)
		l.mu.Lock()
		if page.LSN(l.flushed.Load()) < lsn {
			l.flushed.Store(uint64(lsn))
			l.syncs.Inc()
		}
		l.mu.Unlock()
		l.notifyFlushed()
		return nil
	}
	l.mu.Lock()
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		return failed
	}
	w := &flushWaiter{lsn: lsn, ch: make(chan error, 1)}
	l.qmu.Lock()
	if !l.flusherOn {
		// Flusher already stopped (Close in progress): flush inline.
		l.qmu.Unlock()
		return l.flushDirect(lsn)
	}
	l.waiters = append(l.waiters, w)
	l.qmu.Unlock()
	l.groupWaits.Inc()
	l.kickFlusher()
	return <-w.ch
}

// AppendCommit appends r and registers its force request as one publish:
// the record is staged and a flush waiter covering its LSN is parked on the
// commit queue in the same call, instead of Append followed by a separate
// FlushTo that re-derives what Append just knew (the target LSN, the
// sticky-failure state, the watermark clamp). The returned channel carries
// the durability outcome exactly once; it is buffered, so a caller that
// stops listening (deadline) leaks nothing and the flusher never blocks.
//
// Callers that need a cancellable commit park select on the channel: the
// record's fate after the deadline is decided by FlushedLSN, never by
// un-appending (a published commit record cannot be withdrawn).
func (l *Log) AppendCommit(r *Record) (page.LSN, <-chan error) {
	ch := make(chan error, 1)
	if l.file == nil {
		lsn := l.Append(r)
		ch <- l.FlushTo(lsn)
		return lsn, ch
	}
	l.mu.Lock()
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		lsn := l.Append(r)
		ch <- failed
		return lsn, ch
	}
	lsn := l.Append(r)
	l.coalesced.Inc()
	w := &flushWaiter{lsn: lsn, ch: ch}
	l.qmu.Lock()
	if !l.flusherOn {
		// Flusher already stopped (Close in progress): flush inline.
		l.qmu.Unlock()
		ch <- l.flushDirect(lsn)
		return lsn, ch
	}
	l.waiters = append(l.waiters, w)
	l.qmu.Unlock()
	l.groupWaits.Inc()
	l.kickFlusher()
	return lsn, ch
}

// kickFlusher nudges the flusher goroutine without blocking.
func (l *Log) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// takeWaiters empties the commit queue.
func (l *Log) takeWaiters() []*flushWaiter {
	l.qmu.Lock()
	ws := l.waiters
	l.waiters = nil
	l.qmu.Unlock()
	return ws
}

// runFlusher is the dedicated group-commit goroutine: woken by committers
// (or a large pending backlog), it settles the queue with as few fsyncs as
// the arrival pattern allows — every committer parked while a batch was
// being written is covered by the next one.
func (l *Log) runFlusher() {
	defer l.flusherWG.Done()
	for {
		select {
		case <-l.stop:
			l.settle(l.takeWaiters())
			return
		case <-l.kick:
			l.settle(nil)
		}
	}
}

// settle flushes until every parked committer's target is durable (or the
// log fails), answering each one. Committers arriving mid-settle join the
// next batch.
func (l *Log) settle(ws []*flushWaiter) {
	spins := 0
	for {
		ws = append(ws, l.takeWaiters()...)
		if len(ws) == 0 {
			l.mu.Lock()
			backlog := len(l.pending)
			l.mu.Unlock()
			if backlog == 0 {
				return
			}
		}
		covers, err := l.flushBatch()
		if err != nil {
			for _, w := range ws {
				w.ch <- err
			}
			return
		}
		n := 0
		for _, w := range ws {
			if w.lsn <= covers {
				w.ch <- nil
			} else {
				ws[n] = w
				n++
			}
		}
		if n < len(ws) {
			spins = 0
		}
		ws = ws[:n]
		if len(ws) == 0 {
			continue // re-check queue and backlog, then exit
		}
		// An unsatisfied waiter means some lower LSN is still being
		// staged by its appender — a window of a few instructions.
		spins++
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// flushDirect is the synchronous fallback used when no flusher goroutine
// runs (after Close has stopped it): loop batches until lsn is durable.
func (l *Log) flushDirect(lsn page.LSN) error {
	if max := page.LSN(l.next.Load()); lsn > max {
		lsn = max
	}
	for {
		covers, err := l.flushBatch()
		if err != nil {
			return err
		}
		if covers >= lsn {
			return nil
		}
		runtime.Gosched()
	}
}

// flushBatch cuts the pending batch and writes it durably with one
// write+fsync, returning the watermark the log is durable through. ioMu
// serializes concurrent batches so frames reach the file in LSN order.
//
// On a failed write the file is truncated back to its known-good length
// and the batch is re-staged at the head of pending, so the frames remain
// flushable and the flushed watermark never passes bytes that are not on
// disk. If the truncate also fails — or fsync fails, leaving durability
// unknowable — the log fails permanently.
func (l *Log) flushBatch() (page.LSN, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	l.drainLocked()
	buf, count := l.pending, l.pendingCount
	l.pending, l.pendingCount = nil, 0
	covers := page.LSN(l.sealed.Load())
	err := l.failed
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(buf) == 0 {
		if covers > page.LSN(l.flushed.Load()) {
			// Sealed records with no pending bytes cannot happen for a
			// file log; guard anyway rather than advance dishonestly.
			covers = page.LSN(l.flushed.Load())
		}
		return page.LSN(l.flushed.Load()), nil
	}

	if _, werr := l.file.Write(buf); werr != nil {
		werr = fmt.Errorf("wal: flush write: %w", werr)
		// A short write may have left a torn suffix; cut it off before
		// re-staging, or the retry would duplicate the partial bytes.
		if terr := l.truncateToGood(); terr != nil {
			l.failPermanently(fmt.Errorf("%v; %w", werr, terr))
			return 0, l.failedErr()
		}
		l.mu.Lock()
		restaged := make([]byte, 0, len(buf)+len(l.pending))
		restaged = append(restaged, buf...)
		restaged = append(restaged, l.pending...)
		l.pending = restaged
		l.pendingCount += count
		l.mu.Unlock()
		return 0, werr
	}
	start := time.Now()
	if serr := l.file.Sync(); serr != nil {
		// fsync failure leaves the kernel's dirty state unknowable;
		// retrying cannot re-establish durability claims.
		l.failPermanently(fmt.Errorf("wal: fsync: %w", serr))
		return 0, l.failedErr()
	}
	elapsed := time.Since(start).Nanoseconds()
	l.fsyncNanos.Add(elapsed)
	l.fsyncHist.Observe(elapsed)
	l.goodOffset += int64(len(buf))
	l.flushed.Store(uint64(covers))
	l.notifyFlushed()
	l.syncs.Inc()
	l.batchRecords.Add(count)
	l.batchBytes.Add(int64(len(buf)))
	return covers, nil
}

// truncateToGood cuts the file back to the bytes known fully written.
// Caller holds ioMu.
func (l *Log) truncateToGood() error {
	if err := l.file.Truncate(l.goodOffset); err != nil {
		return fmt.Errorf("wal: truncate after failed write: %w", err)
	}
	if _, err := l.file.Seek(l.goodOffset, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek after failed write: %w", err)
	}
	return nil
}

// failPermanently records the first unrecoverable error; all later
// durability requests return it.
func (l *Log) failPermanently(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	l.mu.Unlock()
}

func (l *Log) failedErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// FlushAll forces the entire log durable.
func (l *Log) FlushAll() error { return l.FlushTo(page.MaxLSN) }

// Get returns the record with the given LSN, waiting out the short window
// in which a concurrent appender has reserved but not yet staged it.
func (l *Log) Get(lsn page.LSN) (*Record, error) {
	if lsn == 0 || uint64(lsn) > l.next.Load() {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchLSN, lsn)
	}
	l.waitSealed(lsn)
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.base || lsn > l.base+page.LSN(len(l.records)) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchLSN, lsn)
	}
	return l.records[lsn-l.base-1], nil
}

// Scan calls fn for every record with LSN >= from, in LSN order, stopping
// early if fn returns false.
func (l *Log) Scan(from page.LSN, fn func(*Record) bool) {
	if from < 1 {
		from = 1
	}
	for {
		if uint64(from) > l.next.Load() {
			return
		}
		l.waitSealed(from)
		l.mu.Lock()
		if from <= l.base {
			from = l.base + 1
		}
		if from > l.base+page.LSN(len(l.records)) {
			l.mu.Unlock()
			return
		}
		r := l.records[from-l.base-1]
		l.mu.Unlock()
		if !fn(r) {
			return
		}
		from++
	}
}

// SnapshotScan calls fn for every record with LSN >= from, in LSN order,
// stopping early if fn returns false. Unlike Scan it seals and snapshots the
// whole index once up front and then iterates without touching l.mu or
// waitSealed per record — the batched mode restart uses for its single
// forward pass, where recovery owns the log exclusively and scanning a
// million records one lock acquisition at a time is pure overhead.
//
// The snapshot covers every LSN assigned before the call; records appended
// concurrently are simply not visited. The caller must ensure no concurrent
// DiscardBefore (which rewrites the index in place) — true during restart,
// where the maintenance daemons are not yet running.
func (l *Log) SnapshotScan(from page.LSN, fn func(*Record) bool) {
	l.waitSealed(page.LSN(l.next.Load()))
	l.mu.Lock()
	l.drainLocked()
	base, records := l.base, l.records
	l.mu.Unlock()
	if from < base+1 {
		from = base + 1
	}
	for i := int(from - base - 1); i < len(records); i++ {
		if !fn(records[i]) {
			return
		}
	}
}

// MasterCheckpoint returns the LSN of the latest checkpoint record, or 0.
func (l *Log) MasterCheckpoint() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.masterCk
}

// TruncatedCopy returns a new in-memory log holding only records with
// LSN <= lsn, regardless of flush state. The recovery experiments use it to
// place a crash point after any chosen record.
func (l *Log) TruncatedCopy(lsn page.LSN) *Log {
	l.waitSealed(lsn)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	if max := l.base + page.LSN(len(l.records)); lsn > max {
		lsn = max
	}
	if lsn < l.base {
		lsn = l.base
	}
	return l.memCopyLocked(lsn)
}

// memCopyLocked builds an in-memory log over the prefix of records with
// LSN <= upTo, all marked durable. l.mu held.
func (l *Log) memCopyLocked(upTo page.LSN) *Log {
	s := NewMemLog()
	s.base = l.base
	s.records = append(s.records, l.records[:upTo-l.base]...)
	s.setWatermarks(upTo)
	for _, r := range s.records {
		if r.Type == RecCheckpoint {
			s.masterCk = r.LSN
		}
	}
	return s
}

// DiscardBefore drops all records with LSN < lsn — head truncation after a
// checkpoint has made everything before the redo point unnecessary for
// restart. Only durable prefixes may be discarded, and never past the
// master checkpoint record: the cut is clamped to both the flushed
// watermark and MasterCheckpoint, so analysis can always read its anchor.
// It returns the number of bytes the cut removed from the log.
//
// For a file-backed log with a truncation journal the cut is a logged,
// crash-atomic operation:
//
//  1. a RecTruncate intent record carrying the target LSN is appended and
//     forced durable (ordinary append path, no locks held);
//  2. under ioMu the surviving durable suffix is staged in the sidecar
//     journal (magic + length + CRC + the exact post-header file image)
//     and synced;
//  3. the main file is truncated to its header and rewritten with the
//     staged suffix, then synced;
//  4. the journal is invalidated (truncate + sync).
//
// ioMu is held from step 2 through 4, so no append reaches the file while
// a valid journal exists; a crash anywhere in step 3 is repaired at the
// next open by replaying the journal, and a crash in step 2 leaves a torn
// journal that the open discards with the main file untouched. A non-crash
// I/O error after step 2 has begun mutating shared state fails the log
// permanently, keeping the journal valid for the next open to replay.
func (l *Log) DiscardBefore(lsn page.LSN) (int64, error) {
	l.mu.Lock()
	base, ck, failed := l.base, l.masterCk, l.failed
	l.mu.Unlock()
	if failed != nil {
		return 0, failed
	}
	// Master-checkpoint ordering: the checkpoint record (and the chain it
	// anchors) must stay readable after the cut.
	if ck != 0 && lsn > ck {
		lsn = ck
	}
	if lsn <= base+1 {
		return 0, nil
	}
	if l.file != nil {
		// Logged truncation intent. Forced durable before any file surgery
		// so the cut is externally ordered after everything it retains.
		intent := l.Append(&Record{Type: RecTruncate, NSN: lsn})
		if err := l.FlushTo(intent); err != nil {
			return 0, err
		}
	}

	// ioMu first (the fixed order) so no flush batch lands mid-rewrite.
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	if lsn <= l.base+1 {
		return 0, nil
	}
	if flushed := page.LSN(l.flushed.Load()); lsn > flushed+1 {
		lsn = flushed + 1
	}
	n := int(lsn - 1 - l.base) // records to drop
	if n <= 0 {
		return 0, nil
	}
	if n > len(l.records) {
		n = len(l.records)
	}

	if l.file == nil {
		var discarded int64
		for _, r := range l.records[:n] {
			discarded += recSizeEstimate(r)
		}
		l.records = append([]*Record(nil), l.records[n:]...)
		l.base += page.LSN(n)
		return discarded, nil
	}

	// Encode the surviving durable suffix. Frames still pending stay
	// pending; the next batch appends them after this rewrite in LSN order
	// (both orderings hold ioMu).
	flushed := page.LSN(l.flushed.Load())
	var out []byte
	for _, r := range l.records[n:] {
		if r.LSN > flushed {
			break
		}
		body := r.Encode()
		var frame [8]byte
		binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
		binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
		out = append(out, frame[:]...)
		out = append(out, body...)
	}

	if l.truncFile != nil {
		// Stage the suffix in the journal before touching anything. An
		// error here is clean: nothing — in memory or on disk — changed.
		if err := l.writeTruncJournalLocked(out); err != nil {
			return 0, err
		}
	}

	l.records = append([]*Record(nil), l.records[n:]...)
	l.base += page.LSN(n)

	fail := func(err error) (int64, error) {
		if l.failed == nil {
			l.failed = fmt.Errorf("%w: %v", ErrLogFailed, err)
		}
		return 0, l.failed
	}
	if err := l.file.Truncate(int64(len(fileHeader))); err != nil {
		return fail(fmt.Errorf("wal: truncate head: %v", err))
	}
	if _, err := l.file.Seek(int64(len(fileHeader)), io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: seek head: %v", err))
	}
	if _, err := l.file.Write(out); err != nil {
		return fail(fmt.Errorf("wal: rewrite suffix: %v", err))
	}
	if err := l.file.Sync(); err != nil {
		return fail(fmt.Errorf("wal: sync suffix: %v", err))
	}
	if l.truncFile != nil {
		// The journal must not outlive the rewrite: a stale-but-valid
		// journal would be replayed over future appends at the next open.
		// If it cannot be invalidated, the log must stop appending.
		if err := l.truncFile.Truncate(0); err != nil {
			return fail(fmt.Errorf("wal: invalidate truncation journal: %v", err))
		}
		if err := l.truncFile.Sync(); err != nil {
			return fail(fmt.Errorf("wal: sync truncation journal: %v", err))
		}
	}
	discarded := l.goodOffset - (int64(len(fileHeader)) + int64(len(out)))
	if discarded < 0 {
		discarded = 0
	}
	l.goodOffset = int64(len(fileHeader)) + int64(len(out))
	return discarded, nil
}

// writeTruncJournalLocked stages the post-header file image in the sidecar
// journal: truncate, write magic + u32 length + u32 CRC + payload as one
// write, sync. Caller holds ioMu and mu.
func (l *Log) writeTruncJournalLocked(payload []byte) error {
	if err := l.truncFile.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset truncation journal: %w", err)
	}
	if _, err := l.truncFile.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek truncation journal: %w", err)
	}
	buf := make([]byte, len(truncHeader)+8+len(payload))
	copy(buf, truncHeader)
	binary.BigEndian.PutUint32(buf[len(truncHeader):], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[len(truncHeader)+4:], crc32.ChecksumIEEE(payload))
	copy(buf[len(truncHeader)+8:], payload)
	if _, err := l.truncFile.Write(buf); err != nil {
		return fmt.Errorf("wal: write truncation journal: %w", err)
	}
	if err := l.truncFile.Sync(); err != nil {
		return fmt.Errorf("wal: sync truncation journal: %w", err)
	}
	return nil
}

// Base returns the truncation point: LSNs at or below it are discarded.
func (l *Log) Base() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// SurvivingLog models a crash of an in-memory log: it returns a new Log
// holding only the records that had been flushed. For a file log, reopening
// the file achieves the same. Reserved or sealed records past the flushed
// watermark do not survive — exactly the §10.1 recovery story, where the
// counter restarts from the last durable LSN.
func (l *Log) SurvivingLog() *Log {
	flushed := page.LSN(l.flushed.Load())
	l.waitSealed(flushed)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.memCopyLocked(flushed)
}

// Close flushes and closes the log, stopping the flusher goroutine.
func (l *Log) Close() error {
	ferr := l.FlushAll()
	l.qmu.Lock()
	if l.flusherOn {
		l.flusherOn = false
		close(l.stop)
		l.qmu.Unlock()
		l.flusherWG.Wait()
	} else {
		l.qmu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.truncFile != nil {
		if cerr := l.truncFile.Close(); ferr == nil {
			ferr = cerr
		}
	}
	if l.file != nil {
		if cerr := l.file.Close(); ferr == nil {
			return cerr
		}
	}
	return ferr
}
