// Package gist implements the Generalized Search Tree with the concurrency,
// recovery and repeatable-read protocols of Kornacker, Mohan and
// Hellerstein (SIGMOD 1997).
//
// The tree is a balanced hierarchy of bounding predicates (BPs) over
// (key, RID) leaf entries, specialized to a concrete access method by an
// Ops extension (B-tree, R-tree, ...). Concurrency control uses the link
// technique extended with node sequence numbers (NSNs) drawn from the WAL's
// LSN counter: a node split stamps the original node with the split
// record's LSN and hands the old NSN and rightlink to the new sibling, so a
// traverser that memorized the counter before reading a parent entry can
// detect and compensate for splits it missed by walking rightlinks. No node
// latch is ever held across an I/O.
//
// Repeatable read combines two-phase locks on data records with predicate
// locks attached directly to nodes; deletion is logical (entries are marked
// and garbage-collected after the deleter commits); structure modifications
// run as nested top actions so they survive the initiating transaction's
// rollback.
package gist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The package-level registry carries the tree-operation latency histograms.
// Trees have no registry of their own (their counters live in the Stats
// struct), so op latencies are process-global like the latch counters,
// surfaced by Metrics alongside every other subsystem.
var (
	opReg      = stats.NewRegistry()
	searchHist = opReg.Histogram("gist.search")
	insertHist = opReg.Histogram("gist.insert")
	deleteHist = opReg.Histogram("gist.delete")
	cursorHist = opReg.Histogram("gist.cursor")
)

// Metrics exposes the process-wide tree-operation latency registry
// (gist.search, gist.insert, gist.delete, gist.cursor histograms).
func Metrics() *stats.Registry { return opReg }

// opHist maps an operation kind to its latency histogram.
func opHist(kind string) *stats.Histogram {
	switch kind {
	case "search":
		return searchHist
	case "insert":
		return insertHist
	case "delete":
		return deleteHist
	case "cursor":
		return cursorHist
	}
	return nil
}

// Ops is the extension-method interface of [HNP95]: the four domain
// operations that specialize the template tree to a concrete access method.
// All predicates, keys and queries are byte strings whose encoding belongs
// entirely to the extension; the tree compares predicates only for byte
// equality (extensions must produce canonical encodings, in particular from
// Union).
type Ops interface {
	// Consistent reports whether the subtree bounded by pred may contain
	// keys matching query. It is used to navigate searches, to decide
	// predicate-lock conflicts, and (with a key in place of pred) to
	// test whether a single key matches a query.
	Consistent(pred, query []byte) bool

	// Union returns the canonical smallest predicate covering both a and
	// b. Union(nil, b) must return (a canonical copy of) b's bounds.
	Union(a, b []byte) []byte

	// Penalty returns the domain-specific cost of inserting key into the
	// subtree bounded by bp; insertion descends the minimal-penalty path.
	Penalty(bp, key []byte) float64

	// PickSplit partitions the given predicates between an original node
	// and a new right sibling, returning the indices that stay. It must
	// leave at least one entry on each side.
	PickSplit(preds [][]byte) (stay []int)

	// KeyQuery returns a query predicate matching exactly the given key,
	// used by deletion and unique-insert to locate a specific key.
	KeyQuery(key []byte) []byte
}

// Isolation selects the transactional isolation of search operations.
type Isolation int

// Isolation levels.
const (
	// RepeatableRead (Degree 3) attaches predicate locks and holds
	// S record locks until end of transaction — the paper's hybrid
	// mechanism.
	RepeatableRead Isolation = iota
	// ReadCommitted takes short record locks (released at operation end)
	// and leaves no predicates, permitting phantoms.
	ReadCommitted
)

// Errors returned by tree operations.
var (
	ErrDuplicate = errors.New("gist: duplicate key in unique index")
	ErrNotFound  = errors.New("gist: entry not found")
	ErrAborted   = errors.New("gist: operation aborted")
)

// Config configures a tree.
type Config struct {
	// Ops is the access-method extension. Required.
	Ops Ops
	// MaxEntries forces a node split when a node reaches this many
	// entries even if byte space remains; 0 disables the cap. Small
	// values let tests exercise deep trees cheaply.
	MaxEntries int
	// AssertNoLatchOnIO panics if a buffer-pool miss occurs while the
	// operation holds any node latch (experiment E10's watchdog).
	AssertNoLatchOnIO bool
	// Recorder, when set, receives one flight-recorder trace per tracked
	// public operation (search, insert, delete, cursor lifetime).
	Recorder *stats.Recorder
}

// Stats aggregates tree-level instrumentation counters.
type Stats struct {
	Searches        atomic.Int64
	Inserts         atomic.Int64
	Deletes         atomic.Int64
	Splits          atomic.Int64
	RootSplits      atomic.Int64
	RightlinkChases atomic.Int64
	BPUpdates       atomic.Int64
	GCRuns          atomic.Int64
	GCEntries       atomic.Int64
	NodeDeletes     atomic.Int64
	PredBlocks      atomic.Int64
	LatchlessIOs    atomic.Int64
	LatchedIOs      atomic.Int64

	// Dead-entry accounting for the GC pacer: Marks counts logical
	// deletions (entries marked), Unmarks their rollbacks. The surviving
	// population — Marks − Unmarks − GCEntries — is what DeadEntries
	// reports.
	Marks   atomic.Int64
	Unmarks atomic.Int64
}

// Tree is an open generalized search tree.
type Tree struct {
	ops   Ops
	pool  *buffer.Pool
	tm    *txn.Manager
	log   *wal.Log
	locks *lock.Manager
	preds *predicate.Manager
	cfg   Config

	anchor  page.PageID   // page holding the root pointer
	anchorF *buffer.Frame // permanently pinned anchor frame

	// beforeSplitEnd, when set (tests only), runs inside every split SMO
	// just before its nested top action ends.
	beforeSplitEnd func()
	// beforeLeafLatch, when set (tests only), runs in the insert descent
	// with the target leaf pinned, just before the leaf is X-latched.
	beforeLeafLatch func(leaf page.PageID)

	// The drain of [KL80] (§7.2): an unlinked page is quarantined until
	// every transaction active at unlink time has ended, so any pointer
	// to it a transaction obtained before the unlink — on a traversal
	// stack or in a cursor's savepoint mark — still reaches the empty
	// node, never a reused page.
	qmu        sync.Mutex
	quarantine []pendingFree

	// rootCache memoizes the last validated (anchor seqlock version, root
	// pointer) pair. An optimistic root read whose current anchor version
	// equals the cached one may use the cached pointer with no copy at
	// all: an unchanged version proves no root change (and no frame
	// remap) has intervened since the pair was validated.
	rootCache atomic.Pointer[rootCacheEntry]

	Stats Stats
}

type pendingFree struct {
	pg   page.PageID
	mark txn.Horizon // transaction-id high-water mark at unlink time
}

// rootCacheEntry pairs a root pointer with the anchor-frame seqlock
// version at which it was validated (see Tree.rootCache).
type rootCacheEntry struct {
	ver  uint64
	root page.PageID
}

// anchorKey is the body stored in the anchor page's slot 0.
func anchorBody(root page.PageID) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(root))
	return b
}

func anchorRootOf(p *page.Page) (page.PageID, error) {
	b, err := p.SlotBytes(0)
	if err != nil || len(b) != 4 {
		return 0, fmt.Errorf("gist: corrupt anchor page: %v", err)
	}
	return page.PageID(binary.BigEndian.Uint32(b)), nil
}

// Create allocates and initializes a new empty tree: an anchor page and an
// empty leaf root, all logged inside a bootstrap transaction so the tree is
// recoverable from its first moment.
func Create(pool *buffer.Pool, tm *txn.Manager, cfg Config) (*Tree, error) {
	if cfg.Ops == nil {
		return nil, errors.New("gist: Config.Ops is required")
	}
	t := newTree(pool, tm, cfg)

	tx, err := tm.Begin()
	if err != nil {
		return nil, err
	}
	if err := tx.BeginNTA(); err != nil {
		return nil, err
	}
	anchorF, err := pool.NewPage(0)
	if err != nil {
		return nil, err
	}
	rootF, err := pool.NewPage(0)
	if err != nil {
		return nil, err
	}
	// Each page's recLSN is its FIRST record (the allocation), not the
	// Root-Change logged last: a checkpoint between them must not let
	// restart redo start past the pages' formatting records.
	o := t.opEnter(tx)
	err = o.logApply(&wal.Record{Type: wal.RecGetPage, Pg: anchorF.ID()}, anchorF)
	if err == nil {
		err = o.logApply(&wal.Record{Type: wal.RecGetPage, Pg: rootF.ID()}, rootF)
	}
	if err == nil {
		err = o.logApply(&wal.Record{Type: wal.RecRootChange, Pg: anchorF.ID(), Pg2: rootF.ID()}, anchorF)
	}
	if err != nil {
		return nil, err
	}
	tx.EndNTA()

	t.anchor = anchorF.ID()
	t.anchorF = anchorF // stays pinned for the tree's lifetime
	pool.Unpin(rootF, false, 0)
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree whose anchor page is known (recorded by
// the caller at Create time, typically in a catalog).
func Open(pool *buffer.Pool, tm *txn.Manager, cfg Config, anchor page.PageID) (*Tree, error) {
	if cfg.Ops == nil {
		return nil, errors.New("gist: Config.Ops is required")
	}
	t := newTree(pool, tm, cfg)
	t.anchor = anchor
	f, err := pool.Fetch(anchor) // pinned for the tree's lifetime
	if err != nil {
		return nil, err
	}
	t.anchorF = f
	f.Latch.Acquire(latch.S)
	_, err = anchorRootOf(&f.Page)
	f.Latch.Release(latch.S)
	if err != nil {
		pool.Unpin(f, false, 0)
		return nil, err
	}
	return t, nil
}

// Close releases the tree's permanent pin on the anchor page. The tree must
// be quiesced.
func (t *Tree) Close() {
	if t.anchorF != nil {
		t.pool.Unpin(t.anchorF, false, 0)
		t.anchorF = nil
	}
}

func newTree(pool *buffer.Pool, tm *txn.Manager, cfg Config) *Tree {
	t := &Tree{
		ops:   cfg.Ops,
		pool:  pool,
		tm:    tm,
		log:   tm.Log(),
		locks: tm.Locks(),
		preds: tm.Predicates(),
		cfg:   cfg,
	}
	t.registerUndo()
	return t
}

// Anchor returns the tree's anchor page id (persist it to reopen the tree).
func (t *Tree) Anchor() page.PageID { return t.anchor }

// counter reads the tree-global counter: the last assigned LSN (§10.1).
func (t *Tree) counter() page.LSN { return t.log.LastLSN() }

// op is the per-operation context: it carries the owning transaction and
// the caller's context.Context, and tracks held latches for the
// no-latch-across-I/O assertion.
type op struct {
	t       *Tree
	tx      *txn.Txn
	ctx     context.Context // nil = never cancelled
	latches int

	// smoHeld releases the ancestor latches an open split SMO keeps until
	// its nested top action has ended (see splitSMO).
	smoHeld []func()

	// snap is the page node views copy into, taken from snapPool on
	// first use and returned at exit so a warm pool keeps the read path
	// allocation-free.
	snap *page.Page

	// Optimistic-read tallies, accumulated locally and folded into the
	// latch package's registry once at exit so node visits perform no
	// shared atomic adds.
	optReads     int64
	optRestarts  int64
	optFallbacks int64

	// Flight-recorder scratch (set by track, folded by exit). All local to
	// the operation's goroutine; the only shared writes happen once at
	// exit (one histogram add plus one recorder store).
	kind      string // "search", "insert", "delete", "cursor"; "" = untracked
	startNano int64  // wall-clock start (Unix nanos)
	lockWait0 int64  // lock-manager wait baseline at entry (delta = this op's)
	latchWait int64  // nanos blocked acquiring node latches
	bufLoad   int64  // nanos in buffer misses and parks
	visits    int32  // pages fetched
}

// opEnter starts an operation of tx on the tree.
func (t *Tree) opEnter(tx *txn.Txn) *op {
	return t.opEnterCtx(nil, tx)
}

// opEnterCtx is opEnter carrying the caller's context; tree code consults
// it only at safe points (o.check) and cancellable waits, never inside a
// nested top action.
func (t *Tree) opEnterCtx(ctx context.Context, tx *txn.Txn) *op {
	return &op{t: t, tx: tx, ctx: ctx}
}

// check is the safe-point cancellation test: it returns the context's error
// at a node-visit boundary, where the operation holds no latch it cannot
// release and is outside any nested top action.
func (o *op) check() error {
	if o.ctx == nil {
		return nil
	}
	if o.tx.InNTA() {
		// Never observe cancellation inside a nested top action: the
		// structure modification must run to completion (its error path
		// writes the dummy CLR, which would otherwise fence a half-done
		// split off from undo).
		return nil
	}
	return o.ctx.Err()
}

// context returns the operation's context, or Background when it has none
// or a nested top action is open (waits inside an NTA are not cancellable).
func (o *op) context() context.Context {
	if o.ctx == nil || o.tx.InNTA() {
		return context.Background()
	}
	return o.ctx
}

// track marks the operation as one of the public entry points ("search",
// "insert", "delete", "cursor"), arming the latency histogram and flight-
// recorder trace that exit folds. Internal operations (GC sweeps, the
// deletion machinery's sub-searches) stay untracked. No-op in the statsoff
// build.
func (o *op) track(kind string) {
	if !stats.Enabled {
		return
	}
	o.kind = kind
	o.startNano = time.Now().UnixNano()
	o.lockWait0 = o.t.locks.TxnWaitNanos(o.tx.ID())
}

// finishTrace observes the tracked operation's latency histogram and records
// its flight-recorder trace.
func (o *op) finishTrace() {
	end := time.Now().UnixNano()
	dur := end - o.startNano
	if h := opHist(o.kind); h != nil {
		h.Observe(dur)
	}
	if rec := o.t.cfg.Recorder; rec != nil {
		rec.Record(&stats.OpTrace{
			Op:           o.kind,
			Txn:          uint64(o.tx.ID()),
			Start:        o.startNano,
			Duration:     dur,
			LatchWait:    o.latchWait,
			LockWait:     o.t.locks.TxnWaitNanos(o.tx.ID()) - o.lockWait0,
			BufLoad:      o.bufLoad,
			NodeVisits:   o.visits,
			OptRestarts:  int32(o.optRestarts),
			OptFallbacks: int32(o.optFallbacks),
		})
	}
	o.kind = ""
}

// exit ends the operation: it folds the operation's trace and optimistic-
// read tallies into the shared registries and returns its snapshot page.
func (o *op) exit() {
	if stats.Enabled && o.kind != "" {
		o.finishTrace()
	}
	if o.optReads != 0 || o.optRestarts != 0 || o.optFallbacks != 0 {
		latch.AddOptStats(o.optReads, o.optRestarts, o.optFallbacks)
		o.optReads, o.optRestarts, o.optFallbacks = 0, 0, 0
	}
	if o.snap != nil {
		snapPool.Put(o.snap)
		o.snap = nil
	}
}

// drain adds pgs, just unlinked, to the quarantine, tagged with the
// current transaction-id high-water mark, and frees every quarantined page
// whose mark no live transaction is at or below: each transaction that
// was active when that page was unlinked has ended, and one begun since
// cannot reach it — the parent entry is gone, and a rightlink chase only
// follows links set by splits after the traversal's memorized counter.
// Node deletion, undo of a page allocation and Destroy call it with the
// pages they unlink, each GC pass with none.
func (t *Tree) drain(pgs ...page.PageID) {
	t.qmu.Lock()
	if len(pgs) == 0 && len(t.quarantine) == 0 {
		t.qmu.Unlock()
		return
	}
	mark, oldest := t.tm.TxnHorizon()
	for _, pg := range pgs {
		t.quarantine = append(t.quarantine, pendingFree{pg: pg, mark: mark})
	}
	var free []page.PageID
	rest := t.quarantine[:0]
	for _, pf := range t.quarantine {
		if pf.mark.Below(oldest) {
			free = append(free, pf.pg)
		} else {
			rest = append(rest, pf)
		}
	}
	t.quarantine = rest
	t.qmu.Unlock()
	for _, pg := range free {
		// Best effort; the page is already unlinked and logged free.
		_ = t.pool.Deallocate(pg)
	}
}

// fetch pins a page with exact no-latch-during-I/O accounting: a disk read
// performed by this call while the operation holds any node latch counts as
// a latched I/O (the protocol's descent path never produces one; the only
// candidates are rare rightlink chases during ascent, see Stats.LatchedIOs).
func (o *op) fetch(id page.PageID) (*buffer.Frame, error) {
	ctx := o.ctx
	if ctx != nil && o.tx.InNTA() {
		ctx = nil // fetches inside a structure modification are not cancellable
	}
	f, missed, waitNanos, err := o.t.pool.FetchExStats(ctx, id)
	if stats.Enabled {
		o.visits++
		o.bufLoad += waitNanos
	}
	if err != nil {
		return nil, err
	}
	if missed {
		if o.latches > 0 {
			o.t.Stats.LatchedIOs.Add(1)
			if o.t.cfg.AssertNoLatchOnIO {
				panic(fmt.Sprintf("gist: buffer miss for page %d while holding %d latches", id, o.latches))
			}
		} else {
			o.t.Stats.LatchlessIOs.Add(1)
		}
	}
	return f, nil
}

func (o *op) latchPage(f *buffer.Frame, m latch.Mode) {
	o.latchWait += f.Latch.AcquireTimed(m)
	o.latches++
}

func (o *op) unlatchPage(f *buffer.Frame, m latch.Mode) {
	f.Latch.Release(m)
	o.latches--
}

// computedBP returns the union of all entry predicates on a node — the
// node's bounding predicate as derivable from its content. Logically
// deleted entries are included: they are physically present and must remain
// reachable (§7).
func (t *Tree) computedBP(p *page.Page) []byte {
	var bp []byte
	for i := 0; i < p.NumSlots(); i++ {
		if pred, ok := p.PredAt(i); ok {
			bp = t.ops.Union(bp, pred)
		}
	}
	return bp
}

// needsSplit reports whether inserting an entry of the given encoded size
// requires splitting the node first.
func (t *Tree) needsSplit(p *page.Page, encodedLen int) bool {
	if t.cfg.MaxEntries > 0 && p.NumSlots() >= t.cfg.MaxEntries {
		return true
	}
	return p.FreeSpaceAfterCompaction() < encodedLen
}

// searchPredConflict builds the conflict test between a new key being
// inserted and an attached predicate: search predicates conflict when the
// key matches their query; insert predicates (unique-index key markers)
// conflict when the two keys are equal under the extension's semantics.
func (t *Tree) keyConflictsWith(key []byte) func(*predicate.Predicate) bool {
	return func(p *predicate.Predicate) bool {
		switch p.Kind {
		case predicate.Search:
			return t.ops.Consistent(key, p.Data)
		default:
			return t.ops.Consistent(key, t.ops.KeyQuery(p.Data))
		}
	}
}

// blockOnPredicates waits for the owner transactions of the given
// predicates to terminate, by taking (and immediately dropping) S locks on
// their transaction IDs (§10.3). The caller must hold no latches.
func (o *op) blockOnPredicates(conflicts []*predicate.Predicate) error {
	for _, p := range conflicts {
		o.t.Stats.PredBlocks.Add(1)
		if err := o.tx.LockCtx(o.context(), lock.ForTxn(p.Owner), lock.S); err != nil {
			return wrapLockErr(err)
		}
		o.t.locks.Unlock(o.tx.ID(), lock.ForTxn(p.Owner))
	}
	return nil
}

// RegisterRecoveryHandlers installs the tree's undo handlers on tm without
// opening any tree. Restart recovery needs the handlers before the undo
// pass, but trees can only be opened after redo has reconstructed their
// anchors; the handlers themselves are independent of any extension's Ops
// (logical undo locates entries by RID, never by predicate semantics).
func RegisterRecoveryHandlers(tm *txn.Manager, pool *buffer.Pool) {
	t := &Tree{
		pool:  pool,
		tm:    tm,
		log:   tm.Log(),
		locks: tm.Locks(),
		preds: tm.Predicates(),
	}
	t.registerUndo()
}

// Ops returns the tree's extension methods.
func (t *Tree) Ops() Ops { return t.ops }
