// Package gistdb is a transactional, recoverable Generalized Search Tree
// storage engine: a faithful, complete implementation of Kornacker, Mohan
// and Hellerstein, "Concurrency and Recovery in Generalized Search Trees"
// (SIGMOD 1997).
//
// A DB bundles a page store, a write-ahead log, a buffer pool, lock,
// predicate and transaction managers, a heap file for data records, and any
// number of GiST indexes over the heap. Indexes are specialized to concrete
// access methods by an Ops extension — B-trees (package btree) and R-trees
// (package rtree) ship with the library; supplying the four extension
// methods of [HNP95] yields a new access method with full concurrency,
// repeatable-read isolation and crash recovery inherited from the engine.
//
// Concurrency control follows the paper: rightlinks plus node sequence
// numbers drawn from the log's LSN counter detect and compensate for
// concurrent node splits; no node latch is held across an I/O. Isolation
// combines two-phase record locks with node-attached predicate locks;
// deletion is logical with background garbage collection. Recovery is
// ARIES-style with page-oriented redo, logical undo, and structure
// modifications as nested top actions.
//
// Basic use:
//
//	db, _ := gistdb.Open(gistdb.Options{}) // in-memory
//	idx, _ := db.CreateIndex("points", rtree.Ops{})
//	tx, _ := db.Begin()
//	rid, _ := idx.Insert(tx, rtree.EncodePoint(1, 2), []byte("payload"))
//	hits, _ := idx.Search(tx, rtree.EncodeRect(...), gistdb.RepeatableRead)
//	tx.Commit()
package gistdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/maintenance"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/repl"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Re-exported core types so that callers need only this package plus an
// extension package.
type (
	// RID identifies a data record in the heap.
	RID = page.RID
	// Ops is the GiST extension interface ([HNP95]'s consistent, union,
	// penalty, pickSplit plus a key-equality query builder).
	Ops = gist.Ops
	// Isolation selects search isolation.
	Isolation = gist.Isolation
	// SearchResult is one (key, RID) hit.
	SearchResult = gist.SearchResult
	// MaintenanceOptions are the background-daemon pacing knobs
	// (internal/maintenance.Options re-exported).
	MaintenanceOptions = maintenance.Options
)

// Isolation levels.
const (
	// RepeatableRead is Degree 3: hybrid record + predicate locking.
	RepeatableRead = gist.RepeatableRead
	// ReadCommitted takes only short record locks; phantoms possible.
	ReadCommitted = gist.ReadCommitted
)

// Errors surfaced by the engine.
var (
	ErrDuplicate    = gist.ErrDuplicate
	ErrNotFound     = gist.ErrNotFound
	ErrAborted      = gist.ErrAborted
	ErrNoSuchIndex  = errors.New("gistdb: no such index")
	ErrIndexExists  = errors.New("gistdb: index already exists")
	ErrClosed       = errors.New("gistdb: database closed")
	ErrNoRecord     = heap.ErrNoRecord
	ErrNoSavepoint  = txn.ErrNoSavepoint
	ErrNotActive    = txn.ErrNotActive
	ErrLockDeadlock = lock.ErrDeadlock
	// ErrCommitPending is returned by Tx.CommitCtx when the deadline fired
	// after the commit record was published but before it became durable:
	// the commit cannot be withdrawn and completes in the background.
	ErrCommitPending = txn.ErrCommitPending
)

// CancelPolicy selects what happens to the enclosing transaction when a
// statement (an Index *Ctx method) is cancelled mid-flight.
type CancelPolicy int

const (
	// CancelStatement (the default) rolls back only the cancelled
	// statement's effects, by logical undo back to the statement's start
	// LSN; the transaction stays active and usable.
	CancelStatement CancelPolicy = iota
	// CancelAbort aborts the whole transaction when any of its statements
	// is cancelled.
	CancelAbort
)

// Options configures Open.
type Options struct {
	// Dir is the directory for the page file and WAL; empty means a
	// purely in-memory database (still fully logged and recoverable
	// across SimulateCrash).
	Dir string
	// PoolPages is the buffer pool size in pages (default 1024).
	PoolPages int
	// MaxEntries caps entries per node (0 = page space only); small
	// values force deep trees for tests and demos.
	MaxEntries int
	// IOLatency adds simulated latency to every page read/write,
	// making I/O cost visible to the concurrency experiments.
	IOLatency time.Duration
	// CancelPolicy selects statement-level rollback (the default) or
	// whole-transaction abort when an Index *Ctx statement is cancelled.
	CancelPolicy CancelPolicy
	// Maintenance, when non-nil, enables the background maintenance
	// subsystem (autonomous checkpointer, crash-atomic log truncator,
	// write-behind flusher, GC sweeper). The zero Options value gives
	// production defaults; set Manual to drive the daemons by explicit
	// ticks instead of goroutines.
	Maintenance *MaintenanceOptions
	// RecoveryWorkers is the fan-out of restart's parallel redo drain
	// (0 = GOMAXPROCS; 1 = the serial single-goroutine order, the
	// determinism gate for byte-exact repro of a restart).
	RecoveryWorkers int
	// SlowOpThreshold pins every operation at least this slow into the
	// flight recorder's slow ring (see DB.SlowOps); 0 disables pinning.
	// The recent ring is always on regardless.
	SlowOpThreshold time.Duration
	// RecentOps sizes the flight recorder's recent ring
	// (0 = stats.DefaultRecentOps).
	RecentOps int
}

// DB is an open database.
type DB struct {
	opts     Options
	disk     storage.Manager
	mem      *storage.MemDisk // non-nil when in-memory (for crash simulation)
	log      *wal.Log
	pool     *buffer.Pool
	locks    *lock.Manager
	preds    *predicate.Manager
	tm       *txn.Manager
	heap     *heap.File
	maint    *maintenance.Manager // nil unless Options.Maintenance was set
	recReg   *stats.Registry      // restart metrics; nil if this open ran no recovery
	recorder *stats.Recorder      // always-on op flight recorder

	mu      sync.Mutex
	catalog page.PageID
	indexes map[string]*Index
	closed  bool

	shipMu  sync.Mutex
	shipper *repl.Shipper // lazily created by Shipper()
}

// catalogPage is the conventional id of the catalog page: the first page
// ever allocated by a fresh database.
const catalogPage page.PageID = 1

// Open creates or reopens a database. Reopening (or opening after a crash)
// runs full ARIES restart before returning.
func Open(opts Options) (*DB, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 1024
	}
	db := &DB{
		opts:     opts,
		locks:    lock.NewManager(),
		preds:    predicate.NewManager(),
		indexes:  make(map[string]*Index),
		catalog:  catalogPage,
		recorder: stats.NewRecorder(opts.RecentOps, opts.SlowOpThreshold),
	}
	fresh := true
	if opts.Dir == "" {
		db.mem = storage.NewMemDisk()
		db.disk = db.mem
		db.log = wal.NewMemLog()
	} else {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		d, err := storage.OpenFileDisk(filepath.Join(opts.Dir, "pages.db"))
		if err != nil {
			return nil, err
		}
		l, err := wal.OpenFileLog(filepath.Join(opts.Dir, "wal.log"))
		if err != nil {
			d.Close()
			return nil, err
		}
		db.disk = d
		db.log = l
		fresh = l.LastLSN() == 0
	}
	if opts.IOLatency > 0 {
		db.disk = storage.NewSlowDisk(db.disk, opts.IOLatency)
	}
	db.pool = buffer.New(db.disk, opts.PoolPages, db.log)
	db.tm = txn.NewManager(db.log, db.locks, db.preds)
	db.heap = heap.New(db.pool)
	db.heap.RegisterUndo(db.tm)

	if fresh {
		if err := db.bootstrap(); err != nil {
			return nil, err
		}
	} else if err := db.recover(); err != nil {
		return nil, err
	}
	db.startMaintenance()
	return db, nil
}

// startMaintenance wires and launches the background daemons when the
// caller asked for them.
func (db *DB) startMaintenance() {
	if db.opts.Maintenance == nil {
		return
	}
	db.maint = maintenance.New(maintenance.Deps{
		Log:       db.log,
		TM:        db.tm,
		Pool:      db.pool,
		Disk:      db.disk,
		Trees:     db.openTrees,
		Pressure:  db.pressureScore,
		ReplBound: db.replBound,
	}, *db.opts.Maintenance)
	db.maint.Start()
}

// Shipper returns the database's log shipper, creating it on first use.
// Serve replica connections with Shipper().Serve (one per transport) or
// Shipper().ServeListener; while subscribers are live, background log
// truncation is clamped so they can always resume (see
// maintenance.Deps.ReplBound).
func (db *DB) Shipper() *repl.Shipper {
	db.shipMu.Lock()
	defer db.shipMu.Unlock()
	if db.shipper == nil {
		// The snapshot resync path lists allocated pages, a capability the
		// raw MemDisk has but latency/fault wrappers do not forward.
		disk := db.disk
		if db.mem != nil {
			disk = db.mem
		}
		db.shipper = repl.NewShipper(repl.PrimaryDeps{
			Log: db.log, Pool: db.pool, Disk: disk, TM: db.tm,
		})
	}
	return db.shipper
}

// replBound is the maintenance truncator's replication clamp: with no
// shipper (or no subscribers) there is none.
func (db *DB) replBound() page.LSN {
	db.shipMu.Lock()
	s := db.shipper
	db.shipMu.Unlock()
	if s == nil {
		return page.MaxLSN
	}
	return s.TruncationBound()
}

// openTrees snapshots the trees of the currently open indexes for the GC
// sweeper.
func (db *DB) openTrees() []*gist.Tree {
	db.mu.Lock()
	defer db.mu.Unlock()
	trees := make([]*gist.Tree, 0, len(db.indexes))
	for _, ix := range db.indexes {
		trees = append(trees, ix.tree)
	}
	return trees
}

// pressureScore is the monotone foreground-contention score backpressure
// watches: lock waits, buffer shard contention, and committers parked on
// the WAL queue.
func (db *DB) pressureScore() int64 {
	return db.locks.Metrics().Value("lock.waits") +
		db.pool.Metrics().Value("buffer.shard_contention") +
		db.log.Metrics().Value("wal.group_waits")
}

// Maintenance exposes the background maintenance manager (nil when
// Options.Maintenance was not set) for manual ticks and metrics.
func (db *DB) Maintenance() *maintenance.Manager { return db.maint }

// bootstrap formats a fresh database: just the catalog page.
func (db *DB) bootstrap() error {
	tx, err := db.tm.Begin()
	if err != nil {
		return err
	}
	if err := tx.BeginNTA(); err != nil {
		return err
	}
	f, err := db.pool.NewPage(0)
	if err != nil {
		return err
	}
	if f.ID() != catalogPage {
		return fmt.Errorf("gistdb: catalog allocated as page %d, want %d", f.ID(), catalogPage)
	}
	lsn := tx.Log(&wal.Record{Type: wal.RecGetPage, Pg: f.ID(), Level: 0})
	f.Page.SetLSN(lsn)
	tx.EndNTA()
	db.pool.Unpin(f, true, lsn)
	return tx.Commit()
}

// recover runs ARIES restart over the existing log and page store.
func (db *DB) recover() error {
	rec := &recovery.Recovery{
		Log: db.log, Pool: db.pool, Disk: db.disk, TM: db.tm,
		Workers: db.opts.RecoveryWorkers,
	}
	db.recReg = rec.Metrics()
	_, err := rec.Run(func() error {
		gist.RegisterRecoveryHandlers(db.tm, db.pool)
		return nil
	})
	if err != nil {
		return err
	}
	// Place the page the heap was filling, so its room is not abandoned.
	// Only that one: the older pages' room is the holes committed deletes
	// left, and placing them all scatters new records over cold pages
	// that must each be read and compacted, which slows inserts after a
	// restart. The catalog's entries are heap inserts too, on a page of
	// its own.
	pgs := rec.HeapPages()
	for i := len(pgs) - 1; i >= 0; i-- {
		if pgs[i] != db.catalog {
			db.heap.Place(pgs[i])
			break
		}
	}
	return nil
}

// catalogEntry encodes one catalog record: name -> anchor page.
func catalogEntry(name string, anchor page.PageID) []byte {
	b := make([]byte, 2+len(name)+4)
	b[0] = byte(len(name) >> 8)
	b[1] = byte(len(name))
	copy(b[2:], name)
	off := 2 + len(name)
	b[off] = byte(anchor >> 24)
	b[off+1] = byte(anchor >> 16)
	b[off+2] = byte(anchor >> 8)
	b[off+3] = byte(anchor)
	return b
}

func decodeCatalogEntry(b []byte) (string, page.PageID, error) {
	if len(b) < 6 {
		return "", 0, errors.New("gistdb: corrupt catalog entry")
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) != 2+n+4 {
		return "", 0, errors.New("gistdb: corrupt catalog entry")
	}
	name := string(b[2 : 2+n])
	off := 2 + n
	anchor := page.PageID(uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3]))
	return name, anchor, nil
}

// readCatalog scans the catalog page for an index's anchor.
func (db *DB) readCatalog(name string) (page.PageID, error) {
	return readCatalogAt(db.pool, db.catalog, name)
}

// readCatalogAt is readCatalog over explicit parts (the replica facade has
// no DB).
func readCatalogAt(pool *buffer.Pool, catalog page.PageID, name string) (page.PageID, error) {
	f, err := pool.Fetch(catalog)
	if err != nil {
		return 0, err
	}
	defer pool.Unpin(f, false, 0)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	for i := 0; i < f.Page.NumSlots(); i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			continue
		}
		n, anchor, err := decodeCatalogEntry(b)
		if err != nil {
			continue
		}
		if n == name {
			return anchor, nil
		}
	}
	return 0, ErrNoSuchIndex
}

// IndexNames lists the indexes recorded in the catalog.
func (db *DB) IndexNames() ([]string, error) {
	f, err := db.pool.Fetch(db.catalog)
	if err != nil {
		return nil, err
	}
	defer db.pool.Unpin(f, false, 0)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	var names []string
	for i := 0; i < f.Page.NumSlots(); i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			continue
		}
		if n, _, err := decodeCatalogEntry(b); err == nil {
			names = append(names, n)
		}
	}
	return names, nil
}

// CreateIndex creates a new GiST index specialized by ops and registers it
// in the catalog, durably.
func (db *DB) CreateIndex(name string, ops Ops) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if _, ok := db.indexes[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	if _, err := db.readCatalog(name); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	cfg := treeConfig(db.opts, db.recorder, ops)
	tree, err := gist.Create(db.pool, db.tm, cfg)
	if err != nil {
		return nil, err
	}
	// Record the index in the catalog, logged as a heap-style insert so
	// it replays at restart.
	tx, err := db.tm.Begin()
	if err != nil {
		return nil, err
	}
	f, err := db.pool.Fetch(db.catalog)
	if err != nil {
		return nil, err
	}
	f.Latch.Acquire(latch.X)
	body := catalogEntry(name, tree.Anchor())
	slot, err := f.Page.InsertBytes(body)
	if err != nil {
		f.Latch.Release(latch.X)
		db.pool.Unpin(f, false, 0)
		tx.Abort()
		return nil, err
	}
	lsn := tx.Log(&wal.Record{
		Type: wal.RecHeapInsert,
		Pg:   db.catalog,
		RID:  page.RID{Page: db.catalog, Slot: uint16(slot)},
		Body: body,
	})
	f.Page.SetLSN(lsn)
	f.Latch.Release(latch.X)
	db.pool.Unpin(f, true, lsn)
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	ix := &Index{db: db, tree: tree, name: name}
	db.indexes[name] = ix
	return ix, nil
}

// treeConfig builds an index's tree configuration from the options and the
// flight recorder of the database (or replica) that opens it.
func treeConfig(opts Options, rec *stats.Recorder, ops Ops) gist.Config {
	return gist.Config{Ops: ops, MaxEntries: opts.MaxEntries, Recorder: rec}
}

// OpenIndex opens an existing index with the given extension methods (the
// ops must match those used at creation; the engine stores no semantics).
func (db *DB) OpenIndex(name string, ops Ops) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if ix, ok := db.indexes[name]; ok {
		return ix, nil
	}
	anchor, err := db.readCatalog(name)
	if err != nil {
		return nil, err
	}
	cfg := treeConfig(db.opts, db.recorder, ops)
	tree, err := gist.Open(db.pool, db.tm, cfg, anchor)
	if err != nil {
		return nil, err
	}
	ix := &Index{db: db, tree: tree, name: name}
	db.indexes[name] = ix
	return ix, nil
}

// Begin starts a transaction.
func (db *DB) Begin() (*Tx, error) {
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	t, err := db.tm.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, inner: t}, nil
}

// Checkpoint takes a fuzzy checkpoint and flushes dirty pages, bounding
// restart work.
func (db *DB) Checkpoint() error {
	_, err := recovery.CheckpointBounded(db.tm, db.pool, db.disk, db.replBound())
	return err
}

// Stats exposes engine counters for monitoring and the experiments.
type Stats struct {
	Commits, Aborts           int64
	LockAcquisitions          int64
	LockWaits, Deadlocks      int64
	PredicateChecks           int64
	PredicatesExamined        int64
	BufferHits, BufferMisses  int64
	LogRecords, LogFlushes    int64
	ActiveTxns, LivePredicate int
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	var s Stats
	s.Commits, s.Aborts = db.tm.Stats()
	s.LockAcquisitions, s.LockWaits, s.Deadlocks = db.locks.Stats()
	s.PredicateChecks, s.PredicatesExamined = db.preds.Stats()
	s.BufferHits, s.BufferMisses, _ = db.pool.Stats()
	s.LogRecords, s.LogFlushes = db.log.Stats()
	s.ActiveTxns = len(db.tm.ActiveTxns())
	s.LivePredicate, _ = db.preds.Counts()
	return s
}

// Metrics merges every subsystem's counter registry into one uniform map
// keyed by dotted metric names ("buffer.hits", "lock.waits", "disk.reads").
// It supersedes the per-manager Stats methods for monitoring; Stats remains
// as a typed convenience view over the same counters.
func (db *DB) Metrics() map[string]int64 {
	regs := []*stats.Registry{
		db.tm.Metrics(),
		db.locks.Metrics(),
		db.preds.Metrics(),
		db.pool.Metrics(),
		db.log.Metrics(),
		storage.MetricsOf(db.disk),
		// Latches are embedded in frames with no owning manager, so their
		// registry is process-global (as the old latch.GlobalStats was).
		latch.Metrics(),
		// Tree-operation latency histograms (gist.search_p50, ...), also
		// process-global.
		gist.Metrics(),
	}
	if db.maint != nil {
		regs = append(regs, db.maint.Metrics())
	}
	if db.recReg != nil {
		regs = append(regs, db.recReg)
	}
	db.shipMu.Lock()
	if db.shipper != nil {
		regs = append(regs, db.shipper.Metrics())
	}
	db.shipMu.Unlock()
	return stats.Merged(regs...)
}

// OpTrace is one flight-recorder entry: an operation's kind, latency, and
// per-phase wait breakdown. See stats.OpTrace for the field semantics.
type OpTrace = stats.OpTrace

// RecentOps returns the flight recorder's retained traces, oldest first:
// the last Options.RecentOps tracked operations (searches, inserts, deletes,
// cursor scans, commits) with their latency and phase breakdown. Always on;
// safe to call concurrently with running operations.
func (db *DB) RecentOps() []OpTrace { return db.recorder.Recent() }

// SlowOps returns the traces pinned by Options.SlowOpThreshold, oldest
// first. Empty when no threshold was set or nothing crossed it.
func (db *DB) SlowOps() []OpTrace { return db.recorder.Slow() }

// Close flushes everything and closes the database cleanly. Order matters:
// the pool's FlushAll runs WAL-rule forces through the log's group-commit
// flusher, so the log may be Closed (stopping that goroutine) only after
// the pool is done; log.Close then flushes its own tail synchronously.
func (db *DB) Close() error {
	// Stop replication sessions first: they read the log, whose flusher
	// goroutine Close is about to stop.
	db.shipMu.Lock()
	shipper := db.shipper
	db.shipMu.Unlock()
	if shipper != nil {
		shipper.Close()
	}
	// Stop the maintenance daemons before taking db.mu: an in-flight GC
	// tick may be inside the openTrees callback waiting on db.mu, and Stop
	// waits for the tick — taking the mutex first would deadlock.
	if db.maint != nil {
		db.maint.Stop()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	for _, ix := range db.indexes {
		ix.tree.Close()
	}
	if err := db.log.FlushAll(); err != nil {
		return err
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		return err
	}
	return db.disk.Close()
}

// SimulateCrash models a hard crash of an in-memory database: the buffer
// pool and all unflushed log records vanish; the returned database is the
// post-restart instance over the surviving state. Indexes must be reopened
// (OpenIndex) with their extensions. File-backed databases crash for real:
// just drop the handle and Open the directory again.
func (db *DB) SimulateCrash() (*DB, error) {
	if db.mem == nil {
		return nil, errors.New("gistdb: SimulateCrash requires an in-memory database")
	}
	if db.maint != nil {
		db.maint.Stop() // the crashed instance's daemons die with it
	}
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()

	survivor := &DB{
		opts:     db.opts,
		locks:    lock.NewManager(),
		preds:    predicate.NewManager(),
		indexes:  make(map[string]*Index),
		catalog:  db.catalog,
		recorder: stats.NewRecorder(db.opts.RecentOps, db.opts.SlowOpThreshold),
	}
	survivor.mem = db.mem.Snapshot()
	survivor.disk = survivor.mem
	if db.opts.IOLatency > 0 {
		survivor.disk = storage.NewSlowDisk(survivor.mem, db.opts.IOLatency)
	}
	survivor.log = db.log.SurvivingLog()
	survivor.pool = buffer.New(survivor.disk, db.opts.PoolPages, survivor.log)
	survivor.tm = txn.NewManager(survivor.log, survivor.locks, survivor.preds)
	survivor.heap = heap.New(survivor.pool)
	survivor.heap.RegisterUndo(survivor.tm)
	if err := survivor.recover(); err != nil {
		return nil, err
	}
	survivor.startMaintenance()
	return survivor, nil
}

// WAL exposes the write-ahead log for inspection by the experiment harness
// and debugging tools. Treat it as read-only.
func (db *DB) WAL() *wal.Log { return db.log }

// SimulateCrashAtLSN is SimulateCrash with the surviving log truncated
// immediately after the given LSN, placing the crash point after a chosen
// record. It is honest only while no page whose pageLSN exceeds lsn has
// been written back (the experiment harness uses ample pools and no
// checkpoints to guarantee that).
func (db *DB) SimulateCrashAtLSN(lsn page.LSN) (*DB, error) {
	if db.mem == nil {
		return nil, errors.New("gistdb: SimulateCrashAtLSN requires an in-memory database")
	}
	if db.maint != nil {
		db.maint.Stop()
	}
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()

	survivor := &DB{
		opts:     db.opts,
		locks:    lock.NewManager(),
		preds:    predicate.NewManager(),
		indexes:  make(map[string]*Index),
		catalog:  db.catalog,
		recorder: stats.NewRecorder(db.opts.RecentOps, db.opts.SlowOpThreshold),
	}
	survivor.mem = db.mem.Snapshot()
	survivor.disk = survivor.mem
	if db.opts.IOLatency > 0 {
		survivor.disk = storage.NewSlowDisk(survivor.mem, db.opts.IOLatency)
	}
	survivor.log = db.log.TruncatedCopy(lsn)
	survivor.pool = buffer.New(survivor.disk, db.opts.PoolPages, survivor.log)
	survivor.tm = txn.NewManager(survivor.log, survivor.locks, survivor.preds)
	survivor.heap = heap.New(survivor.pool)
	survivor.heap.RegisterUndo(survivor.tm)
	if err := survivor.recover(); err != nil {
		return nil, err
	}
	survivor.startMaintenance()
	return survivor, nil
}

// DropIndex removes an index: its catalog entry is deleted durably and all
// of its pages (anchor and nodes) are freed for reuse. The index must not
// be in concurrent use.
func (db *DB) DropIndex(name string) error {
	// Pause maintenance before taking db.mu: an in-flight tick may be inside
	// the Trees callback waiting on db.mu, and Pause waits for the tick.
	// Pausing also keeps the GC sweeper off the tree being dropped.
	if db.maint != nil {
		db.maint.Pause()
		defer db.maint.Resume()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	ix, open := db.indexes[name]
	var tree *gist.Tree
	if open {
		tree = ix.tree
	} else {
		anchor, err := db.readCatalog(name)
		if err != nil {
			return err
		}
		t, err := gist.Open(db.pool, db.tm, gist.Config{Ops: dropOps{}}, anchor)
		if err != nil {
			return err
		}
		tree = t
	}

	tx, err := db.tm.Begin()
	if err != nil {
		return err
	}
	if err := tree.Destroy(tx); err != nil {
		tx.Abort()
		return err
	}
	// Remove the catalog entry (logged as a heap-style delete).
	f, err := db.pool.Fetch(db.catalog)
	if err != nil {
		tx.Abort()
		return err
	}
	f.Latch.Acquire(latch.X)
	removed := false
	for i := 0; i < f.Page.NumSlots(); i++ {
		b, err := f.Page.SlotBytes(i)
		if err != nil {
			continue
		}
		if n, _, err := decodeCatalogEntry(b); err == nil && n == name {
			old := append([]byte(nil), b...)
			if err := f.Page.KillSlot(i); err != nil {
				break
			}
			lsn := tx.Log(&wal.Record{
				Type: wal.RecHeapDelete,
				Pg:   db.catalog,
				RID:  page.RID{Page: db.catalog, Slot: uint16(i)},
				Body: old,
			})
			f.Page.SetLSN(lsn)
			db.pool.MarkDirty(f, lsn)
			removed = true
			break
		}
	}
	f.Latch.Release(latch.X)
	db.pool.Unpin(f, false, 0)
	if !removed {
		tx.Abort()
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	delete(db.indexes, name)
	// Destroy quarantined every page until the transactions live at the
	// drop have ended; DropIndex requires quiescence, so free them now.
	tree.DrainQuarantine()
	return nil
}

// dropOps is a placeholder extension for opening an index only to destroy
// it: Destroy never evaluates predicates.
type dropOps struct{}

func (dropOps) Consistent(pred, query []byte) bool { return true }
func (dropOps) Union(a, b []byte) []byte           { return append([]byte(nil), b...) }
func (dropOps) Penalty(bp, key []byte) float64     { return 0 }
func (dropOps) PickSplit(preds [][]byte) []int     { return []int{0} }
func (dropOps) KeyQuery(key []byte) []byte         { return key }
