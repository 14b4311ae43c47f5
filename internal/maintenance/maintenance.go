// Package maintenance is the background upkeep subsystem: the daemons a
// long-running database needs so that its log, dirty-page population, and
// dead-entry population stay bounded without any foreground caller doing
// maintenance work. Four daemons share one Manager:
//
//   - the checkpointer takes a fuzzy checkpoint (txn.Checkpoint — ATT + DPT,
//     no page flushing) when enough log bytes have accumulated since the
//     last one, with a wall-clock fallback for trickle workloads;
//   - the truncator advances the log head crash-atomically to
//     min(RedoLSN, oldest live transaction's firstLSN) — RedoLSN being the
//     minimum dirty-page recLSN, else the master checkpoint — after syncing
//     the disk so the allocation-replay invariant ("the head moves only
//     after a completed Sync") holds;
//   - the write-behind flusher trickles the oldest dirty frames out under
//     the WAL rule, keeping the DPT small so checkpoints stay cheap and the
//     truncator's bound keeps advancing;
//   - the GC sweeper watches each tree's dead-entry counter and reclaims
//     logically deleted entries in short, paced bursts of GCLeafRefs calls,
//     each burst its own committed transaction of nested top actions.
//
// Every daemon has a deterministic manual-tick hook (TickCheckpoint,
// TickTruncate, TickFlush, TickGC) used by tests and the crash harness;
// Options.Manual disables the goroutines entirely so only ticks run. The
// flusher and sweeper back off when the foreground contention counters
// spike (backpressure); the checkpointer and truncator always run — they
// are what bound recovery time.
//
// Lock order: a tick holds tickMu and may call into Deps callbacks that
// take the DB facade's mutex, so callers pausing the manager (Pause/Stop)
// must not hold that mutex.
package maintenance

import (
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/page"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options are the pacing knobs. Zero values take the listed defaults.
type Options struct {
	// Checkpointer: take a fuzzy checkpoint when this many log bytes have
	// been appended since the last one (default 1 MiB), or when
	// CheckpointInterval has elapsed with any appends at all (default 10s).
	// CheckpointPoll is the daemon's trigger-evaluation cadence (default
	// 200ms).
	CheckpointBytes    int64
	CheckpointInterval time.Duration
	CheckpointPoll     time.Duration

	// Truncator: head-advance attempt cadence (default 1s).
	TruncateInterval time.Duration

	// Flusher: cadence (default 100ms), pages per tick (default 16), and
	// the DPT size below which a tick does nothing (default 8) — flushing
	// the last few dirty pages of an active working set is wasted I/O.
	FlushInterval time.Duration
	FlushBatch    int
	FlushMinDirty int

	// GC sweeper: cadence (default 250ms), the per-tree dead-entry count
	// that triggers a sweep (default 64), leaves per burst (default 8),
	// and the tick stride of the unconditional full sweep that catches
	// dead entries marked before the last restart, which the in-memory
	// counter cannot see (default every 64 ticks; 0 disables).
	GCInterval      time.Duration
	GCDeadThreshold int64
	GCBurstLeaves   int
	GCSweepTicks    int

	// Manual disables the daemon goroutines: Start/Stop become no-ops and
	// only the explicit Tick* calls do work. Tests and the crash harness
	// use this for determinism.
	Manual bool
}

func (o Options) withDefaults() Options {
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 1 << 20
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 10 * time.Second
	}
	if o.CheckpointPoll <= 0 {
		o.CheckpointPoll = 200 * time.Millisecond
	}
	if o.TruncateInterval <= 0 {
		o.TruncateInterval = time.Second
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 100 * time.Millisecond
	}
	if o.FlushBatch <= 0 {
		o.FlushBatch = 16
	}
	if o.FlushMinDirty <= 0 {
		o.FlushMinDirty = 8
	}
	if o.GCInterval <= 0 {
		o.GCInterval = 250 * time.Millisecond
	}
	if o.GCDeadThreshold <= 0 {
		o.GCDeadThreshold = 64
	}
	if o.GCBurstLeaves <= 0 {
		o.GCBurstLeaves = 8
	}
	if o.GCSweepTicks == 0 {
		o.GCSweepTicks = 64
	}
	return o
}

// Deps are the engine handles the daemons operate on. Trees snapshots the
// currently open index trees (may be nil when the owner has none);
// Pressure returns a monotone foreground-contention score for backpressure
// (nil disables it).
type Deps struct {
	Log      *wal.Log
	TM       *txn.Manager
	Pool     *buffer.Pool
	Disk     storage.Manager
	Trees    func() []*gist.Tree
	Pressure func() int64
	// ReplBound, when non-nil, returns the replication clamp on log-head
	// truncation: the highest bound that keeps every live log-shipping
	// subscriber able to resume (min acked LSN + 1). page.MaxLSN means no
	// clamp. It lets the truncator coexist with streaming replicas without
	// stranding them into full resyncs.
	ReplBound func() page.LSN
}

// Manager owns the four daemons. All Tick* methods are serialized by one
// internal mutex, so manual ticks, daemon ticks, and Pause compose safely.
type Manager struct {
	opts Options
	d    Deps

	tickMu       sync.Mutex
	paused       bool
	lastCkBytes  int64
	lastCkTime   time.Time
	lastPressure int64
	gcQueue      map[*gist.Tree][]gist.LeafRef
	gcTicks      int

	lifeMu  sync.Mutex
	stopCh  chan struct{}
	wg      sync.WaitGroup
	running bool

	reg            *stats.Registry
	checkpoints    *stats.Counter
	truncations    *stats.Counter
	truncatedBytes *stats.Counter
	flushPages     *stats.Counter
	gcBursts       *stats.Counter
	gcReclaimed    *stats.Counter
	pauses         *stats.Counter
	tickErrors     *stats.Counter
}

// New builds a Manager; call Start to launch the daemons (no-op when
// Options.Manual is set).
func New(d Deps, opts Options) *Manager {
	m := &Manager{
		opts:    opts.withDefaults(),
		d:       d,
		gcQueue: make(map[*gist.Tree][]gist.LeafRef),
		reg:     stats.NewRegistry(),
	}
	m.lastCkBytes = d.Log.AppendedBytes()
	m.lastCkTime = time.Now()
	m.lastPressure = m.pressure()
	m.checkpoints = m.reg.Counter("maint.checkpoints")
	m.truncations = m.reg.Counter("maint.truncations")
	m.truncatedBytes = m.reg.Counter("maint.truncated_bytes")
	m.flushPages = m.reg.Counter("maint.flush_pages")
	m.gcBursts = m.reg.Counter("maint.gc_bursts")
	m.gcReclaimed = m.reg.Counter("maint.gc_reclaimed")
	m.pauses = m.reg.Counter("maint.backpressure_pauses")
	m.tickErrors = m.reg.Counter("maint.tick_errors")
	m.reg.Gauge("maint.running", func() int64 {
		m.lifeMu.Lock()
		defer m.lifeMu.Unlock()
		if m.running {
			return 1
		}
		return 0
	})
	m.reg.Gauge("maint.log_records", func() int64 {
		return int64(d.Log.LastLSN() - d.Log.Base())
	})
	m.reg.Gauge("maint.dirty_pages", func() int64 {
		return int64(len(d.Pool.DirtyPages()))
	})
	m.reg.Gauge("maint.dead_entries", func() int64 {
		var total int64
		for _, t := range m.trees() {
			total += t.DeadEntries()
		}
		return total
	})
	m.reg.Gauge("maint.checkpoint_bytes", func() int64 { return m.opts.CheckpointBytes })
	m.reg.Gauge("maint.flush_batch", func() int64 { return int64(m.opts.FlushBatch) })
	m.reg.Gauge("maint.gc_burst_leaves", func() int64 { return int64(m.opts.GCBurstLeaves) })
	return m
}

// Metrics exposes the maint.* counter registry.
func (m *Manager) Metrics() *stats.Registry { return m.reg }

func (m *Manager) trees() []*gist.Tree {
	if m.d.Trees == nil {
		return nil
	}
	return m.d.Trees()
}

func (m *Manager) pressure() int64 {
	if m.d.Pressure == nil {
		return 0
	}
	return m.d.Pressure()
}

// Start launches the daemon goroutines. Idempotent; no-op in Manual mode.
func (m *Manager) Start() {
	if m.opts.Manual {
		return
	}
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stopCh = make(chan struct{})
	stop := m.stopCh
	m.wg.Add(4)
	go m.loop(stop, m.opts.CheckpointPoll, m.checkpointTick)
	go m.loop(stop, m.opts.TruncateInterval, func() { m.tickErr(m.truncateTick) })
	go m.loop(stop, m.opts.FlushInterval, func() { m.tickErr(m.flushTick) })
	go m.loop(stop, m.opts.GCInterval, func() { m.tickErr(m.gcTick) })
}

// Stop halts the daemons and waits for any in-flight tick to finish.
// Idempotent. Must not be called while holding a mutex a Deps callback
// takes (see the package lock-order note).
func (m *Manager) Stop() {
	m.lifeMu.Lock()
	if !m.running {
		m.lifeMu.Unlock()
		return
	}
	m.running = false
	close(m.stopCh)
	m.lifeMu.Unlock()
	m.wg.Wait()
}

// Pause blocks until no tick is in flight and prevents new ones (manual or
// daemon) until Resume. The facade wraps quiescence-requiring operations
// (index drop) in a Pause/Resume pair.
func (m *Manager) Pause() {
	m.tickMu.Lock()
	m.paused = true
	m.tickMu.Unlock()
}

// Resume re-enables ticks after Pause.
func (m *Manager) Resume() {
	m.tickMu.Lock()
	m.paused = false
	m.tickMu.Unlock()
}

func (m *Manager) loop(stop <-chan struct{}, every time.Duration, tick func()) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tick()
		}
	}
}

// tickErr runs one daemon tick, counting (and swallowing) its error: a
// failed log or disk makes every subsequent tick a cheap no-op, and the
// foreground path reports the sticky error to the application.
func (m *Manager) tickErr(fn func() (int64, error)) {
	if _, err := fn(); err != nil {
		m.tickErrors.Inc()
	}
}

// checkpointTick is the daemon trigger evaluation: byte threshold, with the
// wall-clock fallback firing only when something was appended at all.
func (m *Manager) checkpointTick() {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused {
		return
	}
	since := m.d.Log.AppendedBytes() - m.lastCkBytes
	if since <= 0 {
		return
	}
	if since < m.opts.CheckpointBytes && time.Since(m.lastCkTime) < m.opts.CheckpointInterval {
		return
	}
	if _, err := m.checkpointLocked(); err != nil {
		m.tickErrors.Inc()
	}
}

// TickCheckpoint takes a fuzzy checkpoint if force is set or the byte
// trigger has tripped. It reports whether a checkpoint was taken.
func (m *Manager) TickCheckpoint(force bool) (bool, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused {
		return false, nil
	}
	if !force && m.d.Log.AppendedBytes()-m.lastCkBytes < m.opts.CheckpointBytes {
		return false, nil
	}
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() (bool, error) {
	if _, err := m.d.TM.Checkpoint(m.d.Pool.DirtyPages); err != nil {
		return false, err
	}
	m.lastCkBytes = m.d.Log.AppendedBytes()
	m.lastCkTime = time.Now()
	m.checkpoints.Inc()
	return true, nil
}

// TruncationBound computes the highest LSN the log head may advance to
// right now: the master checkpoint, clamped by the oldest live
// transaction's first record (its rollback backchain must stay walkable)
// and by the oldest dirty page's recLSN (its redo history must survive
// until the page is flushed) — i.e. min(RedoLSN, oldest firstLSN). Zero
// means no checkpoint exists yet and the head cannot move.
//
// The bound is monotone-safe under concurrency: transactions beginning and
// pages dirtied after the computation have first/recLSNs above the master
// checkpoint, so acting on a stale bound is never unsafe, only
// conservative.
func (m *Manager) TruncationBound() page.LSN {
	bound := m.d.Log.MasterCheckpoint()
	if bound == 0 {
		return 0
	}
	if mn := m.d.TM.MinActiveFirstLSN(); mn != 0 && mn < bound {
		bound = mn
	}
	for _, rec := range m.d.Pool.DirtyPages() {
		if rec != 0 && rec < bound {
			bound = rec
		}
	}
	if m.d.ReplBound != nil {
		if rb := m.d.ReplBound(); rb < bound {
			bound = rb
		}
	}
	return bound
}

// TickTruncate attempts one head advance to the current TruncationBound,
// returning the bytes cut.
func (m *Manager) TickTruncate() (int64, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused {
		return 0, nil
	}
	return m.truncateLocked(m.TruncationBound())
}

// TruncateTo advances the head to at most bound (the caller computed it via
// TruncationBound, possibly doing oracle bookkeeping in between — the bound
// stays valid because it is monotone-safe).
func (m *Manager) TruncateTo(bound page.LSN) (int64, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused {
		return 0, nil
	}
	return m.truncateLocked(bound)
}

func (m *Manager) truncateTick() (int64, error) { return m.TickTruncate() }

func (m *Manager) truncateLocked(bound page.LSN) (int64, error) {
	if bound == 0 || bound <= m.d.Log.Base()+1 {
		return 0, nil
	}
	// Allocation metadata must be durable before any head cut: restart
	// replays allocation records from the head, so "the head is only ever
	// truncated after a completed Sync".
	if err := m.d.Disk.Sync(); err != nil {
		return 0, err
	}
	n, err := m.d.Log.DiscardBefore(bound)
	if err != nil {
		return 0, err
	}
	if n > 0 {
		m.truncations.Inc()
		m.truncatedBytes.Add(n)
	}
	return n, nil
}

// pressureThreshold is the growth of the foreground contention score
// (Deps.Pressure) between two ticks past which the flusher and sweeper skip
// their tick.
const pressureThreshold = 256

// backpressureLocked reports whether the foreground contention score grew
// enough since the last evaluation that optional work (flush, GC) should
// stand down this tick. tickMu held.
func (m *Manager) backpressureLocked() bool {
	if m.d.Pressure == nil {
		return false
	}
	cur := m.d.Pressure()
	delta := cur - m.lastPressure
	m.lastPressure = cur
	if delta > pressureThreshold {
		m.pauses.Inc()
		return true
	}
	return false
}

// TickFlush writes back up to FlushBatch of the oldest dirty frames
// (smallest recLSN first — those hold the truncation bound back the most),
// returning the number flushed.
func (m *Manager) TickFlush() (int64, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused || m.backpressureLocked() {
		return 0, nil
	}
	return m.flushLocked()
}

func (m *Manager) flushTick() (int64, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused || m.backpressureLocked() {
		return 0, nil
	}
	if len(m.d.Pool.DirtyPages()) < m.opts.FlushMinDirty {
		return 0, nil
	}
	return m.flushLocked()
}

func (m *Manager) flushLocked() (int64, error) {
	dpt := m.d.Pool.DirtyPages()
	if len(dpt) == 0 {
		return 0, nil
	}
	type dirty struct {
		id  page.PageID
		rec page.LSN
	}
	pages := make([]dirty, 0, len(dpt))
	for id, rec := range dpt {
		pages = append(pages, dirty{id, rec})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].rec < pages[j].rec })
	var flushed int64
	var firstErr error
	for _, pg := range pages {
		if flushed >= int64(m.opts.FlushBatch) {
			break
		}
		wrote, err := m.d.Pool.FlushWrote(pg.id)
		if err != nil {
			// Evicted/deallocated since the snapshot, or a sticky log
			// failure; record the first error and move on.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// The DPT lists pinned-clean frames conservatively; only count
		// frames that actually needed a write, so callers looping until
		// TickFlush returns zero terminate once the table is drained.
		if wrote {
			flushed++
		}
	}
	m.flushPages.Add(flushed)
	return flushed, firstErr
}

// TickGC runs one paced sweep round: for every tree whose dead-entry count
// passed the threshold (or whose burst queue still has leaves), reclaim up
// to GCBurstLeaves leaves in one short committed transaction. Returns the
// entries physically reclaimed.
func (m *Manager) TickGC() (int64, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	if m.paused || m.backpressureLocked() {
		return 0, nil
	}
	return m.gcLocked()
}

func (m *Manager) gcTick() (int64, error) { return m.TickGC() }

func (m *Manager) gcLocked() (int64, error) {
	m.gcTicks++
	fullSweep := m.opts.GCSweepTicks > 0 && m.gcTicks%m.opts.GCSweepTicks == 0
	var total int64
	var firstErr error
	live := make(map[*gist.Tree]bool)
	for _, t := range m.trees() {
		live[t] = true
		refs := m.gcQueue[t]
		if len(refs) == 0 {
			if !fullSweep && t.DeadEntries() < m.opts.GCDeadThreshold {
				continue
			}
			var err error
			refs, err = m.collectRefs(t)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		burst := m.opts.GCBurstLeaves
		if burst > len(refs) {
			burst = len(refs)
		}
		n, err := m.gcBurst(t, refs[:burst])
		m.gcQueue[t] = refs[burst:]
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Drop queues of trees that were closed or dropped.
	for t := range m.gcQueue {
		if !live[t] {
			delete(m.gcQueue, t)
		}
	}
	return total, firstErr
}

func (m *Manager) collectRefs(t *gist.Tree) ([]gist.LeafRef, error) {
	tx, err := m.d.TM.Begin()
	if err != nil {
		return nil, err
	}
	refs, err := t.CollectLeafRefs(tx)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	return refs, err
}

func (m *Manager) gcBurst(t *gist.Tree, refs []gist.LeafRef) (int64, error) {
	tx, err := m.d.TM.Begin()
	if err != nil {
		return 0, err
	}
	before := t.Stats.GCEntries.Load()
	err = t.GCLeafRefs(tx, refs)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	n := t.Stats.GCEntries.Load() - before
	if n > 0 {
		m.gcReclaimed.Add(n)
	}
	m.gcBursts.Inc()
	return n, err
}
