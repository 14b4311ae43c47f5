// Package lock implements the transaction lock manager used by the hybrid
// isolation mechanism of the paper: two-phase S/X locks on data records,
// and transaction-ID locks used to block "on a predicate" by blocking on the
// predicate's owner transaction (§10.3).
//
// Unlike latches (package latch), locks live in a hash table keyed by a
// logical name, are held to a transaction discipline, and participate in
// deadlock detection: when a request would block, the manager searches the
// waits-for graph for a cycle and, if the requester is part of one, denies
// the request with ErrDeadlock so the caller can abort and retry.
//
// The lock table is hash-partitioned by Name into stripes, each with its
// own mutex, so the grant/release fast path on unrelated names never
// serializes on a manager-wide lock. Per-transaction held-lock sets are
// striped separately by transaction id; the locking discipline is always
// name-stripe before held-stripe, and never two name-stripes at once. Deadlock
// detection is the deliberate exception: it is a slow path that runs under
// a single detector mutex and snapshots waits-for edges stripe by stripe —
// detection is occasional and may serialize; the fast path must not.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
	"repro/internal/shards"
	"repro/internal/stats"
)

// Mode is a lock mode.
type Mode int

// Lock modes. X conflicts with everything; S conflicts with X only.
const (
	S Mode = iota
	X
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

func compatible(a, b Mode) bool { return a == S && b == S }

// covers reports whether holding mode a satisfies a request for mode b.
func covers(a, b Mode) bool { return a == X || b == S }

// Space is a lock namespace; names from different spaces never collide.
type Space uint8

// Lock namespaces.
const (
	// SpaceRecord locks data records by RID (two-phase data record
	// locking, §4.3).
	SpaceRecord Space = iota
	// SpaceTxn holds each transaction's self lock: a transaction takes
	// an X lock on its own ID at start; another operation blocks "on
	// that transaction" (e.g., on its predicate) by requesting S (§10.3).
	SpaceTxn
)

// Name is a lock name.
type Name struct {
	Space Space
	Key   uint64
}

// String implements fmt.Stringer.
func (n Name) String() string {
	switch n.Space {
	case SpaceRecord:
		return fmt.Sprintf("rec:%d.%d", n.Key>>16, n.Key&0xFFFF)
	default:
		return fmt.Sprintf("txn:%d", n.Key)
	}
}

// ForRID returns the lock name of a data record.
func ForRID(r page.RID) Name {
	return Name{Space: SpaceRecord, Key: uint64(r.Page)<<16 | uint64(r.Slot)}
}

// ForTxn returns the self-lock name of a transaction.
func ForTxn(id page.TxnID) Name { return Name{Space: SpaceTxn, Key: uint64(id)} }

// ErrDeadlock is returned to the requester chosen as deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected")

type waiter struct {
	txn     page.TxnID
	mode    Mode
	upgrade bool
	done    chan error
}

type lockList struct {
	granted map[page.TxnID]Mode
	queue   []*waiter
}

// detectGrace is how long a blocked request waits to be granted before it
// pays for a full waits-for-graph detection pass. Most conflicts are
// released within microseconds (a latch-length record lock, a short
// write), so the stripe-by-stripe snapshot would be
// pure overhead for them; a real deadlock is stable and loses only the
// grace period. Requests granted within the grace are counted in
// lock.detect_skips. A variable so tests can widen or collapse the window.
var detectGrace = time.Millisecond

// stripe is one partition of the lock table.
type stripe struct {
	mu        sync.Mutex
	table     map[Name]*lockList
	contended *stats.Counter
}

func (st *stripe) lock() {
	if st.mu.TryLock() {
		return
	}
	st.contended.Add(1)
	st.mu.Lock()
}

func (st *stripe) list(n Name) *lockList {
	ll, ok := st.table[n]
	if !ok {
		ll = &lockList{granted: make(map[page.TxnID]Mode)}
		st.table[n] = ll
	}
	return ll
}

// nameOfLocked finds the name of a list within the stripe (reverse lookup;
// lists are few and short-lived so the linear scan is acceptable).
func (st *stripe) nameOfLocked(target *lockList) Name {
	for n, ll := range st.table {
		if ll == target {
			return n
		}
	}
	return Name{}
}

// heldStripe is one partition of the per-transaction held-lock sets.
type heldStripe struct {
	mu   sync.Mutex
	held map[page.TxnID]map[Name]Mode
}

// Manager is the lock manager. The zero value is not usable; call NewManager.
type Manager struct {
	stripes     []stripe
	heldStripes []heldStripe

	// detectorMu serializes deadlock detection (slow path only).
	detectorMu sync.Mutex

	reg          *stats.Registry
	acquisitions *stats.Counter
	probes       *stats.Counter
	waits        *stats.Counter
	deadlocks    *stats.Counter
	contended    *stats.Counter
	detectSkips  *stats.Counter
	cancels      *stats.Counter
	waitNanos    *stats.Counter
	waitHist     *stats.Histogram

	// txnWaits accumulates per-transaction blocked nanoseconds
	// (page.TxnID → *atomic.Int64) so an operation can attribute lock-wait
	// time to itself by delta. Touched only on the block slow path and at
	// transaction end, never on an uncontended grant.
	txnWaits sync.Map
}

// NewManager returns an empty lock manager. The stripe count adapts to
// GOMAXPROCS (see package shards) and is surfaced by the lock.stripes gauge.
func NewManager() *Manager {
	m := &Manager{reg: stats.NewRegistry()}
	n := shards.Count(0)
	m.stripes = make([]stripe, n)
	m.heldStripes = make([]heldStripe, n)
	m.acquisitions = m.reg.Counter("lock.acquisitions")
	m.probes = m.reg.Counter("lock.probes")
	m.waits = m.reg.Counter("lock.waits")
	m.deadlocks = m.reg.Counter("lock.deadlocks")
	m.contended = m.reg.Counter("lock.stripe_contention")
	m.detectSkips = m.reg.Counter("lock.detect_skips")
	m.cancels = m.reg.Counter("lock.cancels")
	m.waitNanos = m.reg.Counter("lock.wait_nanos")
	m.waitHist = m.reg.Histogram("lock.wait")
	m.reg.Gauge("lock.stripes", func() int64 { return int64(len(m.stripes)) })
	m.reg.Gauge("lock.queue_waiters", func() int64 {
		var total int64
		for i := range m.stripes {
			st := &m.stripes[i]
			st.lock()
			for _, ll := range st.table {
				total += int64(len(ll.queue))
			}
			st.mu.Unlock()
		}
		return total
	})
	for i := range m.stripes {
		m.stripes[i].table = make(map[Name]*lockList)
		m.stripes[i].contended = m.contended
	}
	for i := range m.heldStripes {
		m.heldStripes[i].held = make(map[page.TxnID]map[Name]Mode)
	}
	return m
}

// Metrics exposes the manager's counter registry.
func (m *Manager) Metrics() *stats.Registry { return m.reg }

func (m *Manager) stripeOf(n Name) *stripe {
	h := (n.Key + uint64(n.Space)<<56 + 1) * 0x9E3779B97F4A7C15
	return &m.stripes[(h>>32)%uint64(len(m.stripes))]
}

func (m *Manager) heldStripeOf(txn page.TxnID) *heldStripe {
	h := (uint64(txn) + 1) * 0x9E3779B97F4A7C15
	return &m.heldStripes[(h>>32)%uint64(len(m.heldStripes))]
}

// noteHeld records that txn holds n in mode. Callers may hold n's stripe
// lock (the order is always name-stripe, then held-stripe).
func (m *Manager) noteHeld(txn page.TxnID, n Name, mode Mode) {
	hs := m.heldStripeOf(txn)
	hs.mu.Lock()
	hm, ok := hs.held[txn]
	if !ok {
		hm = make(map[Name]Mode)
		hs.held[txn] = hm
	}
	hm[n] = mode
	hs.mu.Unlock()
}

// dropHeld removes n from txn's held set.
func (m *Manager) dropHeld(txn page.TxnID, n Name) {
	hs := m.heldStripeOf(txn)
	hs.mu.Lock()
	if hm := hs.held[txn]; hm != nil {
		delete(hm, n)
		if len(hm) == 0 {
			delete(hs.held, txn)
		}
	}
	hs.mu.Unlock()
}

// canGrantLocked reports whether txn's request for mode conflicts with no
// other granted holder of the list.
func canGrantLocked(ll *lockList, txn page.TxnID, mode Mode) bool {
	for holder, hmode := range ll.granted {
		if holder == txn {
			continue
		}
		if !compatible(mode, hmode) {
			return false
		}
	}
	return true
}

// Lock acquires the named lock in the given mode for txn, blocking until
// granted. It is re-entrant (a holder of X implicitly holds S) and handles
// S→X upgrade. If granting would complete a waits-for cycle, the request
// fails immediately with ErrDeadlock.
func (m *Manager) Lock(txn page.TxnID, n Name, mode Mode) error {
	return m.LockCtx(context.Background(), txn, n, mode)
}

// LockCtx is Lock with a cancellable wait: if ctx is done while the request
// is queued, the waiter removes itself from the queue (and thereby from the
// waits-for graph) and returns ctx.Err(). A request that can be granted
// immediately is granted regardless of ctx — cancellation is only honored
// at the blocking point; callers check ctx at their own safe points.
func (m *Manager) LockCtx(ctx context.Context, txn page.TxnID, n Name, mode Mode) error {
	st := m.stripeOf(n)
	st.lock()
	ll := st.list(n)

	if cur, ok := ll.granted[txn]; ok {
		if covers(cur, mode) {
			st.mu.Unlock()
			return nil
		}
		// S→X upgrade.
		if canGrantLocked(ll, txn, X) {
			ll.granted[txn] = X
			m.noteHeld(txn, n, X)
			m.acquisitions.Inc()
			st.mu.Unlock()
			return nil
		}
		w := &waiter{txn: txn, mode: X, upgrade: true, done: make(chan error, 1)}
		// Upgrades queue ahead of ordinary waiters (after other
		// upgrades) to avoid an obvious livelock.
		i := 0
		for i < len(ll.queue) && ll.queue[i].upgrade {
			i++
		}
		ll.queue = append(ll.queue, nil)
		copy(ll.queue[i+1:], ll.queue[i:])
		ll.queue[i] = w
		return m.block(ctx, st, ll, w, n)
	}

	// Fresh request: strict FIFO — grant only if compatible with the
	// granted group and nothing waits ahead.
	if len(ll.queue) == 0 && canGrantLocked(ll, txn, mode) {
		ll.granted[txn] = mode
		m.noteHeld(txn, n, mode)
		m.acquisitions.Inc()
		st.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, done: make(chan error, 1)}
	ll.queue = append(ll.queue, w)
	return m.block(ctx, st, ll, w, n)
}

// block finishes a Lock call whose waiter has been enqueued. The stripe
// mutex is held on entry and released before the deadlock check and the
// wait itself, so detection never blocks the grant/release fast path on
// other stripes.
//
// A short grace wait runs before the first (and only) detection pass:
// briefly-held conflicts resolve within it and never pay the
// stripe-by-stripe waits-for snapshot. A genuine deadlock is stable, so
// delaying its detection by the grace period costs latency, not
// correctness.
func (m *Manager) block(ctx context.Context, st *stripe, ll *lockList, w *waiter, n Name) error {
	m.waits.Inc()
	st.mu.Unlock()
	start := time.Now()
	defer func() {
		waited := time.Since(start).Nanoseconds()
		m.waitNanos.Add(waited)
		m.waitHist.Observe(waited)
		m.addTxnWait(w.txn, waited)
	}()
	grace := time.NewTimer(detectGrace)
	select {
	case err := <-w.done:
		grace.Stop()
		m.detectSkips.Inc()
		return err
	case <-ctx.Done():
		grace.Stop()
		return m.cancelWaiter(st, ll, w, n, ctx.Err())
	case <-grace.C:
	}
	if m.detectDeadlock(w.txn) {
		st.lock()
		removed := removeWaiterLocked(ll, w)
		st.mu.Unlock()
		if removed {
			m.deadlocks.Inc()
			return fmt.Errorf("%w (txn %d on %s)", ErrDeadlock, w.txn, n)
		}
		// The waiter was granted (or aborted) while detection ran;
		// the buffered channel already carries the outcome.
	}
	select {
	case err := <-w.done:
		return err
	case <-ctx.Done():
		return m.cancelWaiter(st, ll, w, n, ctx.Err())
	}
}

// cancelWaiter withdraws a queued waiter whose context fired. If the waiter
// is still queued it is removed — its departure may unblock compatible
// waiters behind it, and an empty list is reclaimed — and the cancellation
// cause is returned. If the grant (or an external abort) raced ahead, the
// buffered channel already carries the authoritative outcome and the grant
// stands: the caller observes its next safe point instead.
func (m *Manager) cancelWaiter(st *stripe, ll *lockList, w *waiter, n Name, cause error) error {
	st.lock()
	removed := removeWaiterLocked(ll, w)
	if removed {
		m.promoteLocked(st, ll)
		if len(ll.granted) == 0 && len(ll.queue) == 0 {
			delete(st.table, n)
		}
	}
	st.mu.Unlock()
	if removed {
		m.cancels.Inc()
		return cause
	}
	return <-w.done
}

// removeWaiterLocked removes w from the queue, reporting whether it was
// still enqueued.
func removeWaiterLocked(ll *lockList, w *waiter) bool {
	for i, q := range ll.queue {
		if q == w {
			ll.queue = append(ll.queue[:i], ll.queue[i+1:]...)
			return true
		}
	}
	return false
}

// TryLock attempts to acquire without waiting and reports success. A leaf
// scan uses it to take a record lock while it may hold a latch, waiting
// (with nothing latched) only when it fails.
func (m *Manager) TryLock(txn page.TxnID, n Name, mode Mode) bool {
	st := m.stripeOf(n)
	st.lock()
	defer st.mu.Unlock()
	ll := st.list(n)
	if cur, ok := ll.granted[txn]; ok {
		if covers(cur, mode) {
			return true
		}
		if canGrantLocked(ll, txn, X) {
			ll.granted[txn] = X
			m.noteHeld(txn, n, X)
			m.acquisitions.Inc()
			return true
		}
		return false
	}
	if len(ll.queue) == 0 && canGrantLocked(ll, txn, mode) {
		ll.granted[txn] = mode
		m.noteHeld(txn, n, mode)
		m.acquisitions.Inc()
		return true
	}
	return false
}

// Probe reports whether txn could be granted n in mode right now: an
// instant-duration lock, granted and released in one step under the stripe
// mutex. It answers as TryLock would — a covering hold of txn's own
// succeeds, and a fresh request fails behind any queued waiter (FIFO) — but
// grants nothing: it allocates nothing, leaves the lock table and held sets
// untouched, and in particular leaves a hold txn already has in place,
// where TryLock followed by Unlock would drop it.
func (m *Manager) Probe(txn page.TxnID, n Name, mode Mode) bool {
	m.probes.Inc()
	st := m.stripeOf(n)
	st.lock()
	defer st.mu.Unlock()
	ll, ok := st.table[n]
	if !ok {
		return true
	}
	if cur, held := ll.granted[txn]; held {
		return covers(cur, mode) || canGrantLocked(ll, txn, mode)
	}
	return len(ll.queue) == 0 && canGrantLocked(ll, txn, mode)
}

// Unlock releases txn's hold on n and grants any now-compatible waiters.
func (m *Manager) Unlock(txn page.TxnID, n Name) {
	st := m.stripeOf(n)
	st.lock()
	m.releaseLocked(st, txn, n)
	st.mu.Unlock()
}

func (m *Manager) releaseLocked(st *stripe, txn page.TxnID, n Name) {
	ll, ok := st.table[n]
	if !ok {
		return
	}
	if _, held := ll.granted[txn]; !held {
		return
	}
	delete(ll.granted, txn)
	m.dropHeld(txn, n)
	m.promoteLocked(st, ll)
	if len(ll.granted) == 0 && len(ll.queue) == 0 {
		delete(st.table, n)
	}
}

// promoteLocked grants queued waiters in FIFO order while compatible.
func (m *Manager) promoteLocked(st *stripe, ll *lockList) {
	for len(ll.queue) > 0 {
		w := ll.queue[0]
		if w.upgrade {
			if !canGrantLocked(ll, w.txn, X) {
				return
			}
			ll.granted[w.txn] = X
		} else {
			if !canGrantLocked(ll, w.txn, w.mode) {
				return
			}
			ll.granted[w.txn] = w.mode
		}
		m.noteHeld(w.txn, st.nameOfLocked(ll), ll.granted[w.txn])
		m.acquisitions.Inc()
		ll.queue = ll.queue[1:]
		w.done <- nil
	}
}

// addTxnWait folds blocked nanoseconds into txn's wait accumulator. Runs on
// the block slow path only.
func (m *Manager) addTxnWait(txn page.TxnID, nanos int64) {
	if !stats.Enabled {
		return
	}
	v, ok := m.txnWaits.Load(txn)
	if !ok {
		v, _ = m.txnWaits.LoadOrStore(txn, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(nanos)
}

// TxnWaitNanos returns the cumulative nanoseconds txn has spent blocked in
// the manager so far. Operations read it at entry and exit and attribute the
// delta to themselves.
func (m *Manager) TxnWaitNanos(txn page.TxnID) int64 {
	if v, ok := m.txnWaits.Load(txn); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// ReleaseAll releases every lock held by txn (transaction end, 2PL).
func (m *Manager) ReleaseAll(txn page.TxnID) {
	m.txnWaits.Delete(txn)
	hs := m.heldStripeOf(txn)
	hs.mu.Lock()
	names := make([]Name, 0, len(hs.held[txn]))
	for n := range hs.held[txn] {
		names = append(names, n)
	}
	hs.mu.Unlock()
	for _, n := range names {
		m.Unlock(txn, n)
	}
}

// Holding returns the mode txn holds on n, and whether it holds it at all.
func (m *Manager) Holding(txn page.TxnID, n Name) (Mode, bool) {
	st := m.stripeOf(n)
	st.lock()
	defer st.mu.Unlock()
	ll, ok := st.table[n]
	if !ok {
		return 0, false
	}
	mode, ok := ll.granted[txn]
	return mode, ok
}

// Holders returns the transactions currently granted the named lock.
func (m *Manager) Holders(n Name) []page.TxnID {
	st := m.stripeOf(n)
	st.lock()
	defer st.mu.Unlock()
	ll, ok := st.table[n]
	if !ok {
		return nil
	}
	out := make([]page.TxnID, 0, len(ll.granted))
	for t := range ll.granted {
		out = append(out, t)
	}
	return out
}

// detectDeadlock reports whether start is on a cycle of the waits-for
// graph. An enqueued waiter waits for every granted holder it conflicts
// with and for every earlier queued waiter it conflicts with (FIFO order is
// a real dependency). Detection serializes on its own mutex and snapshots
// the stripes one at a time; a cycle whose members are all blocked is
// stable and is therefore seen by the last transaction to block.
func (m *Manager) detectDeadlock(start page.TxnID) bool {
	m.detectorMu.Lock()
	defer m.detectorMu.Unlock()
	adj := make(map[page.TxnID][]page.TxnID)
	for i := range m.stripes {
		st := &m.stripes[i]
		st.lock()
		for _, ll := range st.table {
			for i, w := range ll.queue {
				for holder, hmode := range ll.granted {
					if holder != w.txn && !compatible(w.mode, hmode) {
						adj[w.txn] = append(adj[w.txn], holder)
					}
				}
				for j := 0; j < i; j++ {
					ahead := ll.queue[j]
					if ahead.txn != w.txn && !compatible(w.mode, ahead.mode) {
						adj[w.txn] = append(adj[w.txn], ahead.txn)
					}
				}
			}
		}
		st.mu.Unlock()
	}
	// DFS from start looking for a path back to start.
	seen := make(map[page.TxnID]bool)
	var dfs func(t page.TxnID) bool
	dfs = func(t page.TxnID) bool {
		for _, next := range adj[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// AbortWaiter cancels any pending request by txn, failing it with the
// provided error. Used when a transaction is being killed externally.
func (m *Manager) AbortWaiter(txn page.TxnID, err error) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.lock()
		for _, ll := range st.table {
			for i := 0; i < len(ll.queue); i++ {
				if ll.queue[i].txn == txn {
					w := ll.queue[i]
					ll.queue = append(ll.queue[:i], ll.queue[i+1:]...)
					w.done <- err
					i--
				}
			}
			m.promoteLocked(st, ll)
		}
		st.mu.Unlock()
	}
}
