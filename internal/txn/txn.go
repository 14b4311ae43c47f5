// Package txn implements the transaction manager: transaction lifecycle
// (begin, commit, abort), the per-transaction log backchain, rollback by
// walking that chain and dispatching undo actions through a registry,
// savepoints with partial rollback (§10.2 of the paper), and nested top
// actions (the individually committed atomic units of work that carry the
// tree's structure modifications, §9.1).
//
// The manager owns no tree or heap semantics. Subsystems register UndoFuncs
// for their record types; an UndoFunc performs the logical or physical undo
// and writes the compensation log record (CLR) through the transaction so
// that rollback is itself recoverable.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/wal"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	default:
		return "aborted"
	}
}

// Errors returned by transaction operations.
var (
	ErrNotActive    = errors.New("txn: transaction not active")
	ErrNoSavepoint  = errors.New("txn: no such savepoint")
	ErrNoUndoer     = errors.New("txn: no undo handler registered for record type")
	ErrNestedAction = errors.New("txn: nested top action already open")

	// ErrCommitPending is returned by CommitCtx when the context fired
	// after the commit record was published but before its durability was
	// confirmed. The record cannot be withdrawn, so the transaction is NOT
	// rolled back: the commit completes in the background as soon as the
	// group-commit flusher covers it, releasing locks then. The handle is
	// no longer usable.
	ErrCommitPending = errors.New("txn: commit pending durability")
)

// UndoFunc undoes the effects of one log record during rollback. It must
// write a CLR (via tx.LogCLR) describing the compensation so that a crash
// during rollback does not repeat the undo.
type UndoFunc func(r *wal.Record, tx *Txn) error

// Savepoint marks a rollback target within a transaction (§10.2).
type Savepoint struct {
	Name string
	// LSN is the transaction's last log record at establishment; partial
	// rollback undoes records after it.
	LSN page.LSN
}

// Manager creates and tracks transactions.
type Manager struct {
	log   *wal.Log
	locks *lock.Manager
	preds *predicate.Manager

	mu       sync.Mutex
	active   map[page.TxnID]*Txn
	nextID   atomic.Uint64
	roNextID atomic.Uint64
	undoers  map[wal.RecType]UndoFunc

	reg          *stats.Registry
	commits      *stats.Counter
	aborts       *stats.Counter
	commitForces *stats.Counter
	flushHist    *stats.Histogram
}

// NewManager creates a transaction manager over the given log, lock manager
// and predicate manager.
func NewManager(log *wal.Log, locks *lock.Manager, preds *predicate.Manager) *Manager {
	m := &Manager{
		log:     log,
		locks:   locks,
		preds:   preds,
		active:  make(map[page.TxnID]*Txn),
		undoers: make(map[wal.RecType]UndoFunc),
		reg:     stats.NewRegistry(),
	}
	m.commits = m.reg.Counter("txn.commits")
	m.aborts = m.reg.Counter("txn.aborts")
	// Paired with wal.syncs: commit_forces / syncs is the group-commit
	// batching factor the E15 experiment tracks.
	m.commitForces = m.reg.Counter("txn.commit_forces")
	// Append→durable latency seen by committers: the group-commit park in
	// CommitCtx, from AppendCommit's publish to the flusher covering it.
	m.flushHist = m.reg.Histogram("txn.commit_flush")
	m.reg.Gauge("txn.active", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.active))
	})
	return m
}

// Metrics exposes the manager's counter registry.
func (m *Manager) Metrics() *stats.Registry { return m.reg }

// RegisterUndo installs the undo handler for a record type. Subsystems call
// this once at initialization.
func (m *Manager) RegisterUndo(t wal.RecType, f UndoFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoers[t] = f
}

// Undoer returns the registered undo handler for a base record type.
func (m *Manager) Undoer(t wal.RecType) (UndoFunc, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.undoers[t.Base()]
	return f, ok
}

// Log exposes the underlying log (recovery and the NSN counter read it).
func (m *Manager) Log() *wal.Log { return m.log }

// Locks exposes the lock manager.
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Predicates exposes the predicate manager.
func (m *Manager) Predicates() *predicate.Manager { return m.preds }

// Begin starts a new transaction: assigns an ID and takes the X lock on the
// transaction's own ID that others use to block "on the transaction"
// (§10.3). It writes no log record: the Begin record is appended by the
// transaction's first Log call, so a transaction that only reads never
// touches the log (see CommitCtx).
func (m *Manager) Begin() (*Txn, error) {
	return m.start(&Txn{id: page.TxnID(m.nextID.Add(1)), mgr: m, state: Active})
}

// ReadOnlyIDBase offsets read-only transaction ids into their own space,
// disjoint from logged transactions: a replica serving reads off shipped
// history must never collide with an id the primary's log attributes to a
// writer.
const ReadOnlyIDBase = page.TxnID(1) << 62

// BeginReadOnly starts a transaction that may never log, with its id drawn
// from ReadOnlyIDBase up. It takes locks and attaches predicates like any
// transaction (isolation against local writers), but calling Log on it
// panics — it is the read service of a replica, whose log only the
// replication stream may append to. Like every transaction that logged
// nothing it commits and aborts without a log record and is left out of
// checkpoints and MinActiveFirstLSN.
func (m *Manager) BeginReadOnly() (*Txn, error) {
	id := ReadOnlyIDBase + page.TxnID(m.roNextID.Add(1))
	return m.start(&Txn{id: id, mgr: m, state: Active, readOnly: true})
}

// AdvanceTxnID raises the id counter to at least id, so transactions begun
// from here on get ids strictly greater. Promotion calls it with the
// highest id observed in the shipped history; ordinary restart gets the
// same guarantee through AdoptLoser.
func (m *Manager) AdvanceTxnID(id page.TxnID) {
	for {
		cur := m.nextID.Load()
		if cur >= uint64(id) || m.nextID.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// start takes tx's self lock and registers it as active.
func (m *Manager) start(tx *Txn) (*Txn, error) {
	if err := m.locks.Lock(tx.id, lock.ForTxn(tx.id), lock.X); err != nil {
		return nil, fmt.Errorf("txn: self lock: %w", err)
	}
	m.mu.Lock()
	m.active[tx.id] = tx
	m.mu.Unlock()
	return tx, nil
}

// AdoptLoser recreates a transaction handle for a loser transaction found
// during restart analysis; used only by the recovery package.
func (m *Manager) AdoptLoser(id page.TxnID, lastLSN page.LSN) (*Txn, error) {
	if cur := m.nextID.Load(); cur < uint64(id) {
		m.nextID.Store(uint64(id))
	}
	return m.start(&Txn{id: id, mgr: m, state: Active, lastLSN: lastLSN})
}

// IsActive reports whether the transaction with the given id is still
// live. Garbage collection uses it to decide whether a logically deleted
// entry's deleter has terminated: a marked entry whose deleter is inactive
// must have committed, because an aborted deleter unmarks its entries
// during rollback (§7.1).
func (m *Manager) IsActive(id page.TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.active[id]
	return ok
}

// Horizon is a pair of transaction ids, one for each id space: logged
// transactions, and read-only ones (from ReadOnlyIDBase up). Ids within a
// space only grow, so a transaction that begins after a high-water mark was
// taken has a greater id than the mark in its space.
type Horizon struct{ RW, RO page.TxnID }

// Below reports whether both of h's ids are below o's.
func (h Horizon) Below(o Horizon) bool { return h.RW < o.RW && h.RO < o.RO }

// TxnHorizon returns the high-water mark of assigned ids (last) and the
// smallest id of a live transaction (oldest, the maximal id in a space with
// none). A transaction that was live when a mark was taken has an id at or
// below it, so once mark.Below(oldest) every such transaction has ended:
// the test the tree's node-deletion drain (§7.2) waits for.
func (m *Manager) TxnHorizon() (last, oldest Horizon) {
	m.mu.Lock()
	defer m.mu.Unlock()
	last = Horizon{
		RW: page.TxnID(m.nextID.Load()),
		RO: ReadOnlyIDBase + page.TxnID(m.roNextID.Load()),
	}
	oldest = Horizon{RW: ^page.TxnID(0), RO: ^page.TxnID(0)}
	for id, tx := range m.active {
		if tx.readOnly {
			oldest.RO = min(oldest.RO, id)
		} else {
			oldest.RW = min(oldest.RW, id)
		}
	}
	return last, oldest
}

// MinActiveFirstLSN returns the smallest first-LSN among live transactions,
// or 0 when none are active. The log may not be truncated at or past this
// point: rollback needs every loser's backchain down to its Begin record.
func (m *Manager) MinActiveFirstLSN() page.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	var min page.LSN
	for _, tx := range m.active {
		tx.mu.Lock()
		f := tx.firstLSN
		tx.mu.Unlock()
		if f != 0 && (min == 0 || f < min) {
			min = f
		}
	}
	return min
}

// ActiveTxns returns a snapshot of the live transactions (for checkpoints).
func (m *Manager) ActiveTxns() []*Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Txn, 0, len(m.active))
	for _, tx := range m.active {
		out = append(out, tx)
	}
	return out
}

// Checkpoint writes a checkpoint record carrying the active transaction
// table and the dirty page table, then flushes the log. The dirty page
// table is passed as a function, not a value: it must be gathered AFTER
// the snapshot anchor below is taken. A table gathered before the anchor
// can miss a page whose first dirtying record slips in between — that
// record's LSN lands at or below PrevLSN, restart analysis never scans it,
// and redo starts past it, silently losing the update.
func (m *Manager) Checkpoint(dpt func() map[page.PageID]page.LSN) (page.LSN, error) {
	r := &wal.Record{Type: wal.RecCheckpoint}
	// Anchor the fuzzy snapshot before gathering it: every record reserved
	// from here on has a larger LSN than PrevLSN, so restart analysis can
	// scan from min(PrevLSN+1, ATT last LSNs) and observe every record the
	// snapshot raced with — a transaction that reserved its Commit LSN just
	// below the checkpoint's, a page whose first dirtying was in flight, a
	// transaction that began after the table was read. Without the anchor
	// such records sit below the scan start and a committed transaction can
	// be undone as a loser.
	//
	// A transaction that has logged nothing is left out: it has nothing to
	// recover. Its lastLSN is read under tx.mu, the lock Log holds while it
	// appends the Begin record, so a transaction seen here at 0 appends its
	// Begin after the anchor, where analysis will find it.
	r.PrevLSN = m.log.LastLSN()
	for _, tx := range m.ActiveTxns() {
		if last := tx.LastLSN(); last != 0 {
			r.ATT = append(r.ATT, wal.TxnState{ID: tx.ID(), LastLSN: last})
		}
	}
	for id, rec := range dpt() {
		r.DPT = append(r.DPT, wal.DirtyPage{ID: id, RecLSN: rec})
	}
	lsn := m.log.Append(r)
	return lsn, m.log.FlushTo(lsn)
}

func (m *Manager) finish(tx *Txn) {
	m.mu.Lock()
	delete(m.active, tx.id)
	m.mu.Unlock()
}

// Txn is a single transaction. Methods are safe for use by the single
// goroutine driving the transaction; a transaction is not meant to be
// shared across goroutines (sessions are, by the outer layer).
type Txn struct {
	id  page.TxnID
	mgr *Manager

	readOnly bool // Log panics; see Manager.BeginReadOnly

	mu         sync.Mutex
	state      State
	lastLSN    page.LSN
	firstLSN   page.LSN
	savepoints []Savepoint
	ntaStart   page.LSN // lastLSN when the open NTA began, 0 if none
	ntaOpen    bool

	// durableHook, when set, runs after a commit that went pending
	// (ErrCommitPending) finally becomes durable and finishCommit has
	// released the transaction's locks. The synchronous commit paths never
	// invoke it — the caller handles those inline.
	durableHook func()

	// flushWait is the nanoseconds CommitCtx spent parked on the
	// group-commit flush (atomic: the background completion of a pending
	// commit writes it concurrently with the facade reading it).
	flushWait atomic.Int64
}

// FlushWait returns the nanoseconds the commit spent waiting for its commit
// record to become durable (0 before commit, for transactions that logged
// nothing, and in the statsoff build).
func (tx *Txn) FlushWait() int64 { return tx.flushWait.Load() }

// Wrote reports whether the transaction has logged anything. Search-only
// transactions stay false: their commit writes no record and waits for no
// force, so instrumentation skips commit tracing for them.
func (tx *Txn) Wrote() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.lastLSN != 0
}

// ID returns the transaction id.
func (tx *Txn) ID() page.TxnID { return tx.id }

// SetDurableHook installs f to run after a commit that returned
// ErrCommitPending completes in the background. Synchronous commit outcomes
// never call f.
func (tx *Txn) SetDurableHook(f func()) {
	tx.mu.Lock()
	tx.durableHook = f
	tx.mu.Unlock()
}

// State returns the lifecycle state.
func (tx *Txn) State() State {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.state
}

// LastLSN returns the transaction's most recent log record.
func (tx *Txn) LastLSN() page.LSN {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.lastLSN
}

// Manager returns the owning transaction manager.
func (tx *Txn) Manager() *Manager { return tx.mgr }

// Log appends r to the log as part of this transaction's backchain and
// returns its LSN. The first call appends the transaction's Begin record
// ahead of r, in the same critical section, so the Begin record, firstLSN
// and lastLSN appear together to Checkpoint and MinActiveFirstLSN.
func (tx *Txn) Log(r *wal.Record) page.LSN {
	if tx.readOnly {
		panic(fmt.Sprintf("txn %d: Log on a read-only transaction", tx.id))
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.lastLSN == 0 {
		tx.lastLSN = tx.mgr.log.Append(&wal.Record{Type: wal.RecBegin, Txn: tx.id})
		tx.firstLSN = tx.lastLSN
	}
	r.Txn = tx.id
	r.PrevLSN = tx.lastLSN
	lsn := tx.mgr.log.Append(r)
	tx.lastLSN = lsn
	return lsn
}

// LogCLR appends a compensation record during undo. UndoNext must point at
// the PrevLSN of the record being undone so that a crash mid-rollback
// resumes exactly where it left off.
func (tx *Txn) LogCLR(r *wal.Record, undoNext page.LSN) page.LSN {
	r.Type |= wal.ClrFlag
	r.UndoNext = undoNext
	return tx.Log(r)
}

// Lock acquires a lock on behalf of the transaction (two-phase: held to
// end of transaction unless explicitly released by the tree protocol, as
// the tree's waits on a record or a predicate's owner are).
func (tx *Txn) Lock(n lock.Name, m lock.Mode) error {
	return tx.LockCtx(context.Background(), n, m)
}

// LockCtx is Lock with a cancellable wait (see lock.Manager.LockCtx): if
// ctx fires while the request is queued the waiter withdraws and ctx.Err()
// is returned; locks the transaction already holds are untouched.
func (tx *Txn) LockCtx(ctx context.Context, n lock.Name, m lock.Mode) error {
	if tx.State() != Active {
		return ErrNotActive
	}
	return tx.mgr.locks.LockCtx(ctx, tx.id, n, m)
}

// BeginNTA opens a nested top action: a sequence of log records that will
// be made permanent regardless of the transaction's fate. Only one may be
// open at a time per transaction; the tree's structure modifications are
// strictly nested within operations so this suffices.
func (tx *Txn) BeginNTA() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != Active {
		return ErrNotActive
	}
	if tx.ntaOpen {
		return ErrNestedAction
	}
	tx.ntaOpen = true
	tx.ntaStart = tx.lastLSN
	return nil
}

// EndNTA closes the open nested top action, which completed, by writing
// the dummy CLR whose UndoNext jumps over the action's records (§9.1): once
// written, rollback and restart undo both skip the structure modification.
// An action that failed is closed with AbandonNTA instead.
func (tx *Txn) EndNTA() page.LSN {
	tx.mu.Lock()
	start := tx.ntaStart
	tx.ntaOpen = false
	tx.ntaStart = 0
	tx.mu.Unlock()
	r := &wal.Record{Type: wal.RecDummyCLR}
	return tx.LogCLR(r, start)
}

// InNTA reports whether a nested top action is currently open.
// Cancellation-aware layers use it to suppress cancellation inside an NTA:
// a structure modification, once begun, runs to completion rather than
// being unwound for a deadline while it holds the latches other operations
// wait on.
func (tx *Txn) InNTA() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.ntaOpen
}

// AbandonNTA closes the open nested top action without writing the dummy
// CLR, for an action that failed: any record it did write stays in the
// transaction's backchain, so rollback and restart undo it like any other.
func (tx *Txn) AbandonNTA() {
	tx.mu.Lock()
	tx.ntaOpen = false
	tx.ntaStart = 0
	tx.mu.Unlock()
}

// Savepoint establishes a named savepoint and returns it.
func (tx *Txn) Savepoint(name string) (Savepoint, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != Active {
		return Savepoint{}, ErrNotActive
	}
	sp := Savepoint{Name: name, LSN: tx.lastLSN}
	tx.savepoints = append(tx.savepoints, sp)
	return sp, nil
}

// Savepoints returns the transaction's savepoints, oldest first.
func (tx *Txn) Savepoints() []Savepoint {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return append([]Savepoint(nil), tx.savepoints...)
}

// RollbackTo undoes all of the transaction's updates after the named
// savepoint. The transaction remains active; savepoints established after
// the target are discarded.
func (tx *Txn) RollbackTo(name string) error {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return ErrNotActive
	}
	idx := -1
	for i := len(tx.savepoints) - 1; i >= 0; i-- {
		if tx.savepoints[i].Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		tx.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSavepoint, name)
	}
	target := tx.savepoints[idx].LSN
	tx.savepoints = tx.savepoints[:idx+1]
	tx.mu.Unlock()
	return tx.undoTo(target)
}

// RollbackToLSN undoes all of the transaction's updates after the given
// LSN, the anonymous-savepoint form of RollbackTo used for statement-level
// cancellation: the facade snapshots LastLSN before a statement and rolls
// back to it when the statement's context fires, leaving the transaction
// active with every earlier update intact. Savepoints established after the
// target are discarded.
func (tx *Txn) RollbackToLSN(stop page.LSN) error {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return ErrNotActive
	}
	for len(tx.savepoints) > 0 && tx.savepoints[len(tx.savepoints)-1].LSN > stop {
		tx.savepoints = tx.savepoints[:len(tx.savepoints)-1]
	}
	tx.mu.Unlock()
	return tx.undoTo(stop)
}

// undoTo walks the backchain undoing records until lastLSN's chain position
// reaches stop (exclusive).
func (tx *Txn) undoTo(stop page.LSN) error {
	for cur := tx.LastLSN(); cur > stop; {
		var err error
		if cur, err = tx.undoStep(cur); err != nil {
			return err
		}
	}
	return nil
}

// undoStep undoes the record at lsn of tx's backchain if it is an update
// (a CLR or dummy CLR skips to its UndoNext) and returns the next LSN of
// the chain to visit.
func (tx *Txn) undoStep(lsn page.LSN) (page.LSN, error) {
	r, err := tx.mgr.log.Get(lsn)
	if err != nil {
		return 0, fmt.Errorf("txn %d undo: %w", tx.id, err)
	}
	if r.Type.IsCLR() || r.Type == wal.RecDummyCLR {
		return r.UndoNext, nil
	}
	switch r.Type {
	case wal.RecBegin, wal.RecAbort, wal.RecCheckpoint:
		return r.PrevLSN, nil
	}
	undo, ok := tx.mgr.Undoer(r.Type)
	if !ok {
		return 0, fmt.Errorf("%w: %v (lsn %d)", ErrNoUndoer, r.Type, r.LSN)
	}
	if err := undo(r, tx); err != nil {
		return 0, fmt.Errorf("txn %d undo %v at %d: %w", tx.id, r.Type, r.LSN, err)
	}
	return r.PrevLSN, nil
}

// Commit ends the transaction successfully: forces the Commit record to
// disk (durability), releases predicates and locks, and writes End. A
// transaction that logged nothing skips the log entirely (see CommitCtx).
func (tx *Txn) Commit() error {
	return tx.CommitCtx(context.Background())
}

// CommitCtx is Commit with a deadline on the group-commit park. Before the
// commit record is published a done context returns ctx.Err() with the
// transaction untouched (still active, abortable). Once the record is
// published its fate is decided by durability alone: if the flusher covered
// it by the time the deadline is noticed the commit is reported as
// committed — never rolled back — and if not, ErrCommitPending is returned
// and the commit completes in the background when durability lands.
//
// A transaction that logged nothing writes no Commit or End record and
// waits for no force: it has nothing to redo or undo, and everything it
// read is already durable, because a writer holds its locks (and stays
// active) until its own commit record is forced. It only releases its
// predicates and locks and retires.
func (tx *Txn) CommitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return ErrNotActive
	}
	tx.state = Committed
	wrote := tx.lastLSN != 0
	tx.mu.Unlock()

	if !wrote {
		tx.release()
		tx.mgr.finish(tx)
		tx.mgr.commits.Inc()
		return nil
	}

	// The commit force point: the commit record and its force request are
	// one publish (wal.AppendCommit), parking this committer on the WAL's
	// group-commit queue so concurrent committers share fsyncs instead of
	// each paying one.
	lsn, forced := tx.logCommit()
	tx.mgr.commitForces.Inc()
	var waitStart time.Time
	if stats.Enabled {
		waitStart = time.Now()
	}
	noteFlushWait := func() {
		if stats.Enabled {
			w := time.Since(waitStart).Nanoseconds()
			tx.flushWait.Store(w)
			tx.mgr.flushHist.Observe(w)
		}
	}
	select {
	case err := <-forced:
		noteFlushWait()
		if err != nil {
			return fmt.Errorf("txn %d commit force: %w", tx.id, err)
		}
	case <-ctx.Done():
		if tx.mgr.log.FlushedLSN() < lsn {
			go func() {
				if err := <-forced; err == nil {
					noteFlushWait()
					tx.finishCommit()
					tx.mu.Lock()
					h := tx.durableHook
					tx.mu.Unlock()
					if h != nil {
						h()
					}
				}
				// On log failure the engine is failing wholesale; the
				// transaction's locks die with the process.
			}()
			return fmt.Errorf("%w (txn %d): %v", ErrCommitPending, tx.id, ctx.Err())
		}
		// Durable before the deadline was noticed: committed.
		noteFlushWait()
	}
	tx.finishCommit()
	return nil
}

// logCommit publishes the commit record and its flush waiter as one ring
// publish, maintaining the backchain like Log.
func (tx *Txn) logCommit() (page.LSN, <-chan error) {
	r := &wal.Record{Type: wal.RecCommit}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	r.Txn = tx.id
	r.PrevLSN = tx.lastLSN
	lsn, ch := tx.mgr.log.AppendCommit(r)
	tx.lastLSN = lsn
	return lsn, ch
}

// finishCommit is the post-durability half of commit: release predicates
// and locks, write End, retire the transaction.
func (tx *Txn) finishCommit() {
	tx.release()
	tx.Log(&wal.Record{Type: wal.RecEnd})
	tx.mgr.finish(tx)
	tx.mgr.commits.Inc()
}

// Abort rolls the transaction back completely and releases its resources.
// A transaction that logged nothing has nothing to undo and writes no
// Abort or End record.
func (tx *Txn) Abort() error { return Rollback(tx) }

// Rollback aborts the given transactions: their records are undone in one
// pass in descending LSN order over all of them — ARIES's undo pass —
// rather than one transaction after the other. Restart needs the global
// order: a loser's structure modification interrupted by the crash is
// undone page-oriented, and it can have moved an entry that another loser
// wrote before it; undoing the entry first removes it where the split put
// it, and the split's undo then brings it back. With one transaction this
// is a plain abort.
func Rollback(txs ...*Txn) error {
	for _, tx := range txs {
		if tx.State() != Active {
			return ErrNotActive
		}
	}
	// cur[i] is the next record of txs[i]'s backchain to visit.
	cur := make([]page.LSN, len(txs))
	for i, tx := range txs {
		if tx.LastLSN() != 0 {
			cur[i] = tx.Log(&wal.Record{Type: wal.RecAbort})
		}
	}
	for {
		next := 0
		for i := range cur {
			if cur[i] > cur[next] {
				next = i
			}
		}
		if cur[next] == 0 {
			break
		}
		var err error
		if cur[next], err = txs[next].undoStep(cur[next]); err != nil {
			return err
		}
	}
	for _, tx := range txs {
		tx.mu.Lock()
		tx.state = Aborted
		wrote := tx.lastLSN != 0
		tx.mu.Unlock()
		tx.release()
		if wrote {
			tx.Log(&wal.Record{Type: wal.RecEnd})
		}
		tx.mgr.finish(tx)
		tx.mgr.aborts.Inc()
	}
	return nil
}

// release drops predicates and all locks (including the self lock, which
// unblocks anyone waiting on this transaction's predicates).
func (tx *Txn) release() {
	tx.mgr.preds.ReleaseTxn(tx.id)
	tx.mgr.locks.ReleaseAll(tx.id)
}
