// Package recovery implements ARIES-style restart (§9 of the paper):
// analysis over the log from the last checkpoint, page-oriented redo that
// repeats history, and undo of loser transactions with logical undo for
// leaf-entry operations and compensation log records throughout.
//
// Structure modifications that completed before the crash are protected by
// their dummy CLRs and are never undone; one that was interrupted mid-
// flight is rolled back page-oriented through the same undo handlers used
// at runtime. Per §9.2, the logical undo of leaf operations performs no
// structure modifications of its own.
//
// Restart is parallel: a single forward scan (batched, lock-free via
// wal.Log.SnapshotScan) fuses analysis and allocation replay while routing
// every page-modifying record into a per-page redo queue; the queues drain
// on Workers goroutines (redo is page-independent, so per-queue LSN order is
// the only order that matters), with a DPT-driven prefetcher warming the
// pool ahead of the drain; losers are then undone in one pass in descending
// LSN order over all of them. Workers=1 reproduces the serial restart
// exactly — record at a time in global LSN order — which is the
// determinism gate the crashfuzz repro workflow and the equivalence tests
// rely on.
package recovery

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/shards"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Recovery drives a restart over an existing (survived) log and disk with a
// fresh buffer pool and transaction manager.
type Recovery struct {
	Log  *wal.Log
	Pool *buffer.Pool
	Disk storage.Manager
	TM   *txn.Manager

	// Workers is the fan-out of the redo drain. Zero means
	// shards.Workers() (GOMAXPROCS, clamped); 1 forces the serial
	// single-goroutine order.
	Workers int

	// heapPages lists the pages the retained log's heap inserts wrote,
	// least recently first (see HeapPages).
	heapPages []page.PageID

	metricsOnce sync.Once
	reg         *stats.Registry
	workersUsed atomic.Int64

	restarts                               *stats.Counter
	scanNanos, redoNanos, undoNanos        *stats.Counter
	analyzed, redone, redoSkipped          *stats.Counter
	losers, undone                         *stats.Counter
	prefetchHits, prefetchMisses           *stats.Counter
	queuePages, queueMaxDepth, workerPages *stats.Counter
	redoDrainHist                          *stats.Histogram
}

// Analysis is the outcome of the analysis pass.
type Analysis struct {
	// Losers maps each in-flight transaction to its last log record.
	Losers map[page.TxnID]page.LSN
	// DPT is the reconstructed dirty page table (page -> recLSN).
	DPT map[page.PageID]page.LSN
	// RedoLSN is where the redo pass starts.
	RedoLSN page.LSN
}

// Stats reports what a restart did.
type Stats struct {
	Analyzed    int
	Redone      int
	RedoSkipped int
	Losers      int
	Undone      int
}

// redoPlan is the page-partitioned redo work gathered by the forward scan.
type redoPlan struct {
	// flat holds every page-modifying record in LSN order (the serial
	// drain order; also the source the queues were split from).
	flat []*wal.Record
	// order is the first-touch order of pages, the deterministic basis for
	// worker assignment.
	order  []page.PageID
	byPage map[page.PageID][]*wal.Record
	// dealloc marks pages whose queue returns them to the free pool
	// (Free-Page, or a compensated Get-Page); the prefetcher must not
	// touch those — its transient pin could collide with the drain's
	// Pool.Deallocate.
	dealloc map[page.PageID]bool
	// heapLast maps each page a heap insert wrote to its last such LSN.
	heapLast map[page.PageID]page.LSN
}

func (r *Recovery) initMetrics() {
	r.metricsOnce.Do(func() {
		reg := stats.NewRegistry()
		r.restarts = reg.Counter("recovery.restarts")
		r.scanNanos = reg.Counter("recovery.scan_nanos")
		r.redoNanos = reg.Counter("recovery.redo_nanos")
		r.undoNanos = reg.Counter("recovery.undo_nanos")
		r.analyzed = reg.Counter("recovery.analyzed")
		r.redone = reg.Counter("recovery.redone")
		r.redoSkipped = reg.Counter("recovery.redo_skipped")
		r.losers = reg.Counter("recovery.losers")
		r.undone = reg.Counter("recovery.undone")
		r.prefetchHits = reg.Counter("recovery.prefetch_hits")
		r.prefetchMisses = reg.Counter("recovery.prefetch_misses")
		r.queuePages = reg.Counter("recovery.redo_queue_pages")
		r.queueMaxDepth = reg.Counter("recovery.redo_queue_max_depth")
		r.workerPages = reg.Counter("recovery.worker_pages_max")
		// One observation per redo-queue drain: the whole pass at restart,
		// one batch on a streaming replica.
		r.redoDrainHist = reg.Histogram("recovery.redo_drain")
		reg.Gauge("recovery.workers", func() int64 { return r.workersUsed.Load() })
		r.reg = reg
	})
}

// Metrics exposes the restart's counter registry (scan/redo/undo phase
// nanos, queue shape, prefetch effectiveness), for merging into the
// engine-wide registry.
func (r *Recovery) Metrics() *stats.Registry {
	r.initMetrics()
	return r.reg
}

// workers resolves the configured fan-out.
func (r *Recovery) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return shards.Workers()
}

// Run performs the full restart. register is called between redo and undo:
// it must open the trees (which installs their undo handlers on the
// transaction manager) and may return them for the caller's use.
func (r *Recovery) Run(register func() error) (*Stats, error) {
	r.initMetrics()
	r.restarts.Inc()
	workers := r.workers()
	r.workersUsed.Store(int64(workers))

	t0 := time.Now()
	a, n, plan, err := r.scan()
	r.scanNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return &Stats{}, fmt.Errorf("recovery: %w", err)
	}
	st := &Stats{Analyzed: n, Losers: len(a.Losers)}
	r.heapPages = plan.heapPages()
	r.analyzed.Add(int64(n))
	r.losers.Add(int64(len(a.Losers)))

	t0 = time.Now()
	err = r.redo(a, plan, st, workers)
	redoElapsed := time.Since(t0).Nanoseconds()
	r.redoNanos.Add(redoElapsed)
	r.redoDrainHist.Observe(redoElapsed)
	r.redone.Add(int64(st.Redone))
	r.redoSkipped.Add(int64(st.RedoSkipped))
	if err != nil {
		return st, fmt.Errorf("recovery: redo: %w", err)
	}

	if register != nil {
		if err := register(); err != nil {
			return st, fmt.Errorf("recovery: register: %w", err)
		}
	}

	t0 = time.Now()
	err = r.undo(a, st)
	r.undoNanos.Add(time.Since(t0).Nanoseconds())
	r.undone.Add(int64(st.Undone))
	if err != nil {
		return st, fmt.Errorf("recovery: undo: %w", err)
	}

	if err := r.Log.FlushAll(); err != nil {
		return st, fmt.Errorf("recovery: final log flush: %w", err)
	}
	if err := r.Pool.FlushAll(); err != nil {
		return st, fmt.Errorf("recovery: final page flush: %w", err)
	}
	return st, nil
}

// scan is the single forward pass over the retained log. It fuses what used
// to be three scans: allocation replay (every record — the allocation
// metadata is durable only as of the last completed Sync, while page images
// flush continuously under WAL protection, so the disk's allocation state is
// rebuilt from the log directly; the head is only truncated after a
// completed Sync, so everything the metadata does not cover is still here,
// and replaying the overlap in LSN order is idempotent), ATT/DPT analysis
// (records from the checkpoint-derived start), and redo-queue routing (every
// page-modifying record, partitioned by touchedPages).
func (r *Recovery) scan() (*Analysis, int, *redoPlan, error) {
	a := &Analysis{
		Losers: make(map[page.TxnID]page.LSN),
		DPT:    make(map[page.PageID]page.LSN),
	}
	start := page.LSN(1)
	if ck := r.Log.MasterCheckpoint(); ck != 0 {
		start = ck
		rec, err := r.Log.Get(ck)
		switch {
		case err == nil:
			// The checkpoint is fuzzy: with the pipelined log, records
			// can be reserved below the checkpoint's own LSN yet land
			// after its snapshot was gathered — a Commit squeezing in
			// under the checkpoint, a page's first dirtying still in
			// flight. Scanning only from the checkpoint record would
			// miss them and undo committed transactions, so the scan
			// starts at the snapshot anchor (PrevLSN, the reservation
			// head when the snapshot began) and at or below every
			// snapshot transaction's last LSN — a stale table read can
			// trail its transaction's true last record by at most one,
			// so scanning from the stale value re-observes it.
			if rec.PrevLSN != 0 && rec.PrevLSN+1 < start {
				start = rec.PrevLSN + 1
			}
			for _, ts := range rec.ATT {
				a.Losers[ts.ID] = ts.LastLSN
				if ts.LastLSN != 0 && ts.LastLSN < start {
					start = ts.LastLSN
				}
			}
			for _, dp := range rec.DPT {
				a.DPT[dp.ID] = dp.RecLSN
			}
		case r.Log.Base() == 0:
			// The checkpoint record is unreadable but the full log
			// is still here: rebuild the ATT and DPT by scanning
			// from LSN 1 instead of silently starting empty (which
			// would miss losers whose last record predates the
			// checkpoint).
			start = 1
		default:
			// The head before the checkpoint is truncated; without
			// the checkpoint's ATT/DPT the restart cannot be
			// trusted. Fail loudly rather than lose losers.
			return nil, 0, nil, fmt.Errorf("analysis: checkpoint record %d unreadable past truncated head (base %d): %w",
				ck, r.Log.Base(), err)
		}
	}
	plan := &redoPlan{
		byPage:   make(map[page.PageID][]*wal.Record),
		dealloc:  make(map[page.PageID]bool),
		heapLast: make(map[page.PageID]page.LSN),
	}
	n := 0
	var aerr error
	r.Log.SnapshotScan(r.Log.Base()+1, func(rec *wal.Record) bool {
		// Allocation-state replay, over the whole retained log.
		switch rec.Type.Base() {
		case wal.RecGetPage:
			if rec.Type.IsCLR() {
				aerr = r.Disk.EnsureDeallocated(rec.Pg)
			} else {
				aerr = r.Disk.EnsureAllocated(rec.Pg)
			}
		case wal.RecFreePage:
			if rec.Type.IsCLR() {
				aerr = r.Disk.EnsureAllocated(rec.Pg)
			} else {
				aerr = r.Disk.EnsureDeallocated(rec.Pg)
			}
		}
		if aerr != nil {
			return false
		}
		pgs := touchedPages(rec)
		// ATT/DPT analysis from the checkpoint-derived start. (The
		// snapshot scan begins at the log head; records below start
		// only contribute allocation state and redo queueing.)
		if rec.LSN >= start {
			n++
			if rec.Txn != 0 {
				switch rec.Type {
				case wal.RecEnd:
					delete(a.Losers, rec.Txn)
				case wal.RecCommit:
					// Committed but End not yet durable: the
					// transaction wins; nothing to undo.
					delete(a.Losers, rec.Txn)
				default:
					a.Losers[rec.Txn] = rec.LSN
				}
			}
			for _, pg := range pgs {
				if _, ok := a.DPT[pg]; !ok {
					a.DPT[pg] = rec.LSN
				}
			}
		}
		// Redo routing: per-page queues in LSN order. Records below the
		// redo point (known only once the scan completes) are trimmed at
		// drain time.
		if len(pgs) > 0 {
			plan.flat = append(plan.flat, rec)
			for _, pg := range pgs {
				if _, ok := plan.byPage[pg]; !ok {
					plan.order = append(plan.order, pg)
				}
				plan.byPage[pg] = append(plan.byPage[pg], rec)
			}
			switch base, clr := rec.Type.Base(), rec.Type.IsCLR(); {
			case base == wal.RecFreePage && !clr, base == wal.RecGetPage && clr:
				plan.dealloc[rec.Pg] = true
			case rec.Type == wal.RecHeapInsert:
				plan.heapLast[rec.Pg] = rec.LSN
			}
		}
		return true
	})
	if aerr != nil {
		return nil, n, nil, fmt.Errorf("allocation replay: %w", aerr)
	}
	a.RedoLSN = page.LSN(1)
	if len(a.DPT) > 0 {
		min := page.MaxLSN
		for _, l := range a.DPT {
			if l != 0 && l < min {
				min = l
			}
		}
		if min != page.MaxLSN {
			a.RedoLSN = min
		}
	} else if ck := r.Log.MasterCheckpoint(); ck != 0 {
		a.RedoLSN = ck
	}
	// Clamp to the log head: the checkpoint's DPT is logged before the
	// checkpoint's own FlushAll, so its recLSNs may predate the
	// DiscardBefore truncation point. Those pages were flushed before the
	// head was cut, so redo from just past the head is sufficient.
	if base := r.Log.Base(); a.RedoLSN <= base {
		a.RedoLSN = base + 1
	}
	return a, n, plan, nil
}

// HeapPages returns the pages heap inserts wrote in the retained log, as
// the last Run found them, least recently written first; the last one is
// the page the heap was filling when the log ends. Collected by the
// analysis scan, it costs no page read.
func (r *Recovery) HeapPages() []page.PageID { return r.heapPages }

// heapPages returns the pages heap inserts wrote, least recently first.
func (p *redoPlan) heapPages() []page.PageID {
	pgs := make([]page.PageID, 0, len(p.heapLast))
	for pg := range p.heapLast {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return p.heapLast[pgs[i]] < p.heapLast[pgs[j]] })
	return pgs
}

// touchedPages lists the pages whose images a record's redo modifies.
func touchedPages(rec *wal.Record) []page.PageID {
	base := rec.Type.Base()
	switch base {
	case wal.RecSplit:
		if rec.Type.IsCLR() {
			return []page.PageID{rec.Pg}
		}
		return []page.PageID{rec.Pg, rec.Pg2}
	case wal.RecParentEntryUpdate, wal.RecInternalEntryAdd, wal.RecInternalEntryUpdate,
		wal.RecInternalEntryDelete, wal.RecAddLeafEntry, wal.RecMarkLeafEntry,
		wal.RecGarbageCollection, wal.RecGetPage, wal.RecFreePage, wal.RecRootChange,
		wal.RecHeapInsert, wal.RecHeapDelete:
		return []page.PageID{rec.Pg}
	default:
		return nil
	}
}

// redo repeats history from the redo point. Redo is page-independent — a
// record applies to a page iff the pageLSN predates it, regardless of what
// happened to other pages in between — so with workers > 1 the per-page
// queues drain concurrently, each queue in LSN order. workers <= 1 replays
// the flat record sequence in global LSN order, byte-identical to the
// historical serial restart.
func (r *Recovery) redo(a *Analysis, plan *redoPlan, st *Stats, workers int) error {
	if workers <= 1 {
		for _, rec := range plan.flat {
			if rec.LSN < a.RedoLSN {
				continue
			}
			if err := r.redoRecord(rec, st); err != nil {
				return fmt.Errorf("redo of %v: %w", rec, err)
			}
		}
		return nil
	}

	// Trim each queue to the redo point and drop the emptied ones.
	type queue struct {
		pg   page.PageID
		recs []*wal.Record
	}
	queues := make([]queue, 0, len(plan.order))
	maxDepth := 0
	for _, pg := range plan.order {
		recs := plan.byPage[pg]
		i := 0
		for i < len(recs) && recs[i].LSN < a.RedoLSN {
			i++
		}
		if i == len(recs) {
			continue
		}
		queues = append(queues, queue{pg, recs[i:]})
		if d := len(recs) - i; d > maxDepth {
			maxDepth = d
		}
	}
	r.queuePages.Store(int64(len(queues)))
	r.queueMaxDepth.Store(int64(maxDepth))
	if len(queues) == 0 {
		return nil
	}
	if workers > len(queues) {
		workers = len(queues)
	}

	// DPT-driven prefetch: warm the pool with the dirty pages the drain is
	// about to fetch, on the same fan-out, skipping pages whose queue
	// deallocates them. Misses are harmless — the drain re-fetches and
	// reports errors properly.
	prefetch := make([]page.PageID, 0, len(queues))
	for _, q := range queues {
		if _, ok := a.DPT[q.pg]; ok && !plan.dealloc[q.pg] {
			prefetch = append(prefetch, q.pg)
		}
	}
	var pwg sync.WaitGroup
	var pidx atomic.Int64
	for w := 0; w < workers && w < len(prefetch); w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				i := int(pidx.Add(1)) - 1
				if i >= len(prefetch) {
					return
				}
				if f, err := r.Pool.Fetch(prefetch[i]); err == nil {
					r.Pool.Unpin(f, false, 0)
					r.prefetchHits.Inc()
				} else {
					r.prefetchMisses.Inc()
				}
			}
		}()
	}
	defer pwg.Wait()

	// Deterministic round-robin assignment over the first-touch order:
	// queue i belongs to worker i%workers. Per-worker stats merge into
	// order-independent totals.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	partial := make([]Stats, workers)
	pages := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queues); i += workers {
				q := queues[i]
				for _, rec := range q.recs {
					if err := r.redoOnPage(rec, q.pg, &partial[w]); err != nil {
						errs[w] = fmt.Errorf("redo of %v on page %d: %w", rec, q.pg, err)
						return
					}
				}
				pages[w]++
			}
		}(w)
	}
	wg.Wait()
	var maxPages int64
	for w := range partial {
		st.Redone += partial[w].Redone
		st.RedoSkipped += partial[w].RedoSkipped
		if pages[w] > maxPages {
			maxPages = pages[w]
		}
	}
	r.workerPages.Store(maxPages)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// redoRecord applies one record to every page it touches, in touched-page
// order — the serial drain unit, identical to one step of the historical
// single-goroutine restart.
func (r *Recovery) redoRecord(rec *wal.Record, st *Stats) error {
	for _, pg := range touchedPages(rec) {
		if err := r.redoOnPage(rec, pg, st); err != nil {
			return err
		}
	}
	return nil
}

// redoOnPage applies one record to one of its pages. For a Split the record
// sits in both sides' queues and is applied to each independently
// (gist.Redo dispatches on the page id); the allocation-state side effects
// (Table 1: Get-Page marks the page unavailable for allocation, Free-Page
// marks it available) run only from the record's primary page so they
// happen exactly once.
func (r *Recovery) redoOnPage(rec *wal.Record, pg page.PageID, st *Stats) error {
	base := rec.Type.Base()
	clr := rec.Type.IsCLR()
	if pg == rec.Pg {
		if base == wal.RecGetPage && !clr {
			if err := r.Disk.EnsureAllocated(rec.Pg); err != nil {
				return err
			}
		}
		if base == wal.RecFreePage && !clr {
			// Apply the content flag (gist.Redo) if the page still
			// exists, then free. Count the record as redone only if it
			// changed something: the flag was stamped, or the allocation
			// state transitioned.
			applied := false
			f, err := r.Pool.Fetch(rec.Pg)
			switch {
			case err == nil:
				f.Latch.Acquire(latch.X)
				applied = f.Page.LSN() < rec.LSN && gist.Redo(rec, &f.Page, rec.Pg) == nil
				f.Latch.Release(latch.X)
				r.Pool.Unpin(f, applied, rec.LSN)
			case errors.Is(err, storage.ErrNoSuchPage):
				// Already gone from the allocation state; nothing to
				// stamp.
			default:
				// A real I/O or pool failure: fail the restart rather
				// than free a page whose image was never stamped.
				return fmt.Errorf("free-page fetch: %w", err)
			}
			switch err := r.deallocate(rec.Pg); {
			case err == nil:
				applied = true
			case !errors.Is(err, storage.ErrNoSuchPage):
				return err
			}
			if applied {
				st.Redone++
			} else {
				st.RedoSkipped++
			}
			return nil
		}
		if base == wal.RecGetPage && clr {
			// Compensated allocation: the page goes back to the free pool.
			switch err := r.deallocate(rec.Pg); {
			case err == nil:
				st.Redone++
			case errors.Is(err, storage.ErrNoSuchPage):
				st.RedoSkipped++
			default:
				return err
			}
			return nil
		}
		if base == wal.RecFreePage && clr {
			if err := r.Disk.EnsureAllocated(rec.Pg); err != nil {
				return err
			}
		}
	}

	f, err := r.Pool.Fetch(pg)
	if errors.Is(err, storage.ErrNoSuchPage) {
		// Allocation state lagged the log (meta not synced at
		// crash); adopt the page and redo onto a fresh image.
		if aerr := r.Disk.EnsureAllocated(pg); aerr != nil {
			return aerr
		}
		f, err = r.Pool.Fetch(pg)
	}
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if f.Page.LSN() >= rec.LSN {
		f.Latch.Release(latch.X)
		r.Pool.Unpin(f, false, 0)
		st.RedoSkipped++
		return nil
	}
	switch base {
	case wal.RecHeapInsert, wal.RecHeapDelete:
		err = heap.Redo(rec, &f.Page)
	default:
		err = redoTreeOnPage(rec, &f.Page, pg)
	}
	f.Latch.Release(latch.X)
	r.Pool.Unpin(f, err == nil, rec.LSN)
	if err != nil {
		return err
	}
	st.Redone++
	return nil
}

// deallocate returns a page to the free pool, waiting out the transient
// window in which a concurrent eviction write-back holds the frame pinned
// around its I/O (possible only under parallel redo — the page's own queue
// holds no pin here, and the prefetcher skips deallocating pages). A pin
// that never drains still surfaces as the underlying error.
func (r *Recovery) deallocate(pg page.PageID) error {
	for spins := 0; ; spins++ {
		err := r.Pool.Deallocate(pg)
		if err == nil || !errors.Is(err, buffer.ErrPinned) || spins > 1<<20 {
			return err
		}
		runtime.Gosched()
	}
}

// redoTreeOnPage applies a tree record to one of its pages. For a Split the
// same record is applied separately to each side; gist.Redo dispatches on
// the page id.
func redoTreeOnPage(rec *wal.Record, p *page.Page, pg page.PageID) error {
	if !gist.TouchesPage(rec, pg) {
		return nil
	}
	return gist.Redo(rec, p, pg)
}

// undo rolls back every loser transaction through the registered undo
// handlers, exactly as a runtime abort would, writing CLRs so that a crash
// during restart resumes correctly. The losers' records are undone in one
// pass in descending LSN order over all of them (txn.Rollback): a loser's
// interrupted structure modification can have moved another loser's
// earlier entry, so the backchains are not independent. Losers are adopted
// in descending lastLSN order (ties by id), so their Abort records, and
// with them the whole restart, are identical on every run from the same
// survivor state; the historical map iteration made crashfuzz repros
// differ run to run.
func (r *Recovery) undo(a *Analysis, st *Stats) error {
	if len(a.Losers) == 0 {
		return nil
	}
	type loser struct {
		id      page.TxnID
		lastLSN page.LSN
	}
	losers := make([]loser, 0, len(a.Losers))
	for id, lastLSN := range a.Losers {
		losers = append(losers, loser{id, lastLSN})
	}
	sort.Slice(losers, func(i, j int) bool {
		if losers[i].lastLSN != losers[j].lastLSN {
			return losers[i].lastLSN > losers[j].lastLSN
		}
		return losers[i].id > losers[j].id
	})
	txs := make([]*txn.Txn, len(losers))
	for i, lo := range losers {
		tx, err := r.TM.AdoptLoser(lo.id, lo.lastLSN)
		if err != nil {
			return err
		}
		txs[i] = tx
	}
	if err := txn.Rollback(txs...); err != nil {
		return err
	}
	st.Undone = len(txs)
	return nil
}

// Checkpoint takes a fuzzy checkpoint: it logs the ATT and DPT, flushes the
// log, flushes all dirty pages, syncs the disk, and truncates the log head
// up to the earliest point a restart could still need — the minimum of the
// checkpoint itself and the first LSN of any live transaction (whose
// backchain rollback must be able to walk).
func Checkpoint(tm *txn.Manager, pool *buffer.Pool, disk storage.Manager) (page.LSN, error) {
	return CheckpointBounded(tm, pool, disk, page.MaxLSN)
}

// CheckpointBounded is Checkpoint with an external retention clamp: the log
// head never advances past clamp even when restart no longer needs the
// records. Log shipping uses this — a connected replica that has not acked
// past clamp must still be able to resume its stream after a reconnect.
func CheckpointBounded(tm *txn.Manager, pool *buffer.Pool, disk storage.Manager, clamp page.LSN) (page.LSN, error) {
	lsn, err := tm.Checkpoint(pool.DirtyPages)
	if err != nil {
		return 0, err
	}
	if err := pool.FlushAll(); err != nil {
		return 0, err
	}
	if err := disk.Sync(); err != nil {
		return 0, err
	}
	bound := lsn
	if m := tm.MinActiveFirstLSN(); m != 0 && m < bound {
		bound = m
	}
	if clamp < bound {
		bound = clamp
	}
	if _, err := tm.Log().DiscardBefore(bound); err != nil {
		return 0, err
	}
	return lsn, nil
}
