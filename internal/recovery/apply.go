package recovery

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Applier is restart's redo machinery run as a long-lived loop: the engine
// of a streaming replica. Where Recovery performs one bounded pass over a
// survived log, an Applier accepts the log incrementally — batch after
// batch of shipped records, already appended to the replica's own log — and
// repeats history on the replica's buffer pool exactly as restart redo
// would: allocation replay inline, per-page queues drained on Workers
// goroutines, pageLSN-gated so re-application after a reconnect replay is
// idempotent. Between batches the pool holds a state identical to what a
// restart over the received log prefix would produce, which is what makes
// read service and promotion sound.
//
// The Applier also carries analysis forward continuously: the in-flight
// transaction table (losers) and the transaction-id high-water mark are
// maintained per record, so Promote never rescans the shipped log — the
// surviving ATT is already in hand.
//
// ApplyBatch is not reentrant; callers serialize it (the replication
// receiver applies under its reader/writer gate).
type Applier struct {
	r *Recovery

	losers  map[page.TxnID]page.LSN
	maxTxn  uint64        // high-water of transaction ids seen in the stream
	applied atomic.Uint64 // LSN through which history has been repeated
}

// NewApplier builds an applier over a replica's log, pool, disk, and
// transaction manager. workers is the redo fan-out (0 = GOMAXPROCS-derived,
// 1 = serial global-LSN order, the determinism gate).
func NewApplier(log *wal.Log, pool *buffer.Pool, disk storage.Manager, tm *txn.Manager, workers int) *Applier {
	ap := &Applier{
		r:      &Recovery{Log: log, Pool: pool, Disk: disk, TM: tm, Workers: workers},
		losers: make(map[page.TxnID]page.LSN),
	}
	ap.r.initMetrics()
	return ap
}

// Metrics exposes the applier's recovery-counter registry (redo volume,
// queue shape, the recovery.redo_drain per-batch latency histogram), for
// merging into a replica's engine-wide snapshot.
func (ap *Applier) Metrics() *stats.Registry { return ap.r.Metrics() }

// ApplyBatch repeats history for one contiguous batch of records, which the
// caller has already appended to the replica log (AppendShipped). It fuses
// the restart scan's per-record work — allocation replay, ATT maintenance,
// redo routing — and then drains the batch's per-page queues.
func (ap *Applier) ApplyBatch(recs []*wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	plan := &redoPlan{
		byPage:  make(map[page.PageID][]*wal.Record),
		dealloc: make(map[page.PageID]bool),
	}
	for _, rec := range recs {
		// Allocation replay happens inside the redo drain (redoOnPage runs
		// the Table 1 side effects from each record's primary page, in
		// per-page LSN order). Restart replays allocation inline during its
		// scan only because its queues are trimmed at the redo point; the
		// applier never trims — every record in the batch drains.
		if rec.Txn != 0 {
			if uint64(rec.Txn) > ap.maxTxn {
				ap.maxTxn = uint64(rec.Txn)
			}
			switch rec.Type {
			case wal.RecEnd, wal.RecCommit:
				delete(ap.losers, rec.Txn)
			default:
				ap.losers[rec.Txn] = rec.LSN
			}
		}
		if pgs := touchedPages(rec); len(pgs) > 0 {
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
			}
		}
	}
	a := &Analysis{RedoLSN: recs[0].LSN, DPT: map[page.PageID]page.LSN{}}
	var st Stats
	var t0 time.Time
	if stats.Enabled {
		t0 = time.Now()
	}
	if err := ap.r.redo(a, plan, &st, ap.r.workers()); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if stats.Enabled {
		drain := time.Since(t0).Nanoseconds()
		ap.r.redoNanos.Add(drain)
		ap.r.redoDrainHist.Observe(drain)
	}
	ap.r.redone.Add(int64(st.Redone))
	ap.r.redoSkipped.Add(int64(st.RedoSkipped))
	ap.applied.Store(uint64(recs[len(recs)-1].LSN))
	return nil
}

// AppliedLSN is the LSN through which history has been repeated (lock-free;
// the apply-lag gauge reads it concurrently with ApplyBatch).
func (ap *Applier) AppliedLSN() page.LSN { return page.LSN(ap.applied.Load()) }

// SetApplied seeds the applied watermark (snapshot bootstrap: the snapshot
// base is "applied" by construction).
func (ap *Applier) SetApplied(lsn page.LSN) { ap.applied.Store(uint64(lsn)) }

// Losers returns a copy of the in-flight transaction table as of the last
// applied batch: the surviving ATT that promotion must undo.
func (ap *Applier) Losers() map[page.TxnID]page.LSN {
	out := make(map[page.TxnID]page.LSN, len(ap.losers))
	for id, lsn := range ap.losers {
		out[id] = lsn
	}
	return out
}

// MaxTxnID is the highest transaction id observed in the stream. Promotion
// advances the new primary's id counter past it so fresh transactions never
// reuse an id whose locks/records the shipped history already attributes to
// someone else.
func (ap *Applier) MaxTxnID() page.TxnID { return page.TxnID(ap.maxTxn) }

// UndoLosers is promotion's undo pass: abort every transaction that was
// in flight at the end of the stream, through the undo handlers registered
// on the transaction manager, writing CLRs to the (now read-write) replica
// log. It is Recovery.Run's undo phase — one pass in descending LSN order
// over every loser — and returns the number undone.
func (ap *Applier) UndoLosers() (int, error) {
	a := &Analysis{Losers: ap.losers}
	var st Stats
	if err := ap.r.undo(a, &st); err != nil {
		return st.Undone, err
	}
	ap.losers = make(map[page.TxnID]page.LSN)
	return st.Undone, nil
}

// Pool and Disk expose the applier's dependencies for the promotion
// assembly path.
func (ap *Applier) Pool() *buffer.Pool    { return ap.r.Pool }
func (ap *Applier) Disk() storage.Manager { return ap.r.Disk }
