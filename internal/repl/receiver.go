package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ReceiverDeps is the replica-side engine the receiver feeds: an in-memory
// replica log (wal.NewReplicaLog), a fresh pool/disk, and a transaction
// manager that serves read-only transactions until promotion (and losers'
// aborts at promotion).
type ReceiverDeps struct {
	Log  *wal.Log
	Pool *buffer.Pool
	Disk storage.Manager
	TM   *txn.Manager
}

// ErrPromoted is returned by replica operations after Promote.
var ErrPromoted = errors.New("repl: replica promoted")

// Receiver is a replica's streaming end: it dials the primary, resumes the
// stream at its own log's last LSN + 1, appends each shipped batch to the
// replica log verbatim, and repeats history through a continuous
// recovery.Applier. A reader/writer gate serializes batch application
// against read traffic: reads hold the gate shared, each batch holds it
// exclusive, so every read observes a state some crash-restart of the
// primary could have produced (an exact log-prefix state).
//
// The receiver survives connection loss: it redials with backoff and
// resumes from its own position — re-shipped records are deduplicated by
// LSN before append, and redo's pageLSN gate makes any overlap idempotent.
type Receiver struct {
	deps ReceiverDeps
	dial func() (io.ReadWriteCloser, error)
	ap   *recovery.Applier

	// gate is the apply-vs-read gate. Exposed through RLock/RUnlock for
	// the facade's read path.
	gate sync.RWMutex

	mu      sync.Mutex
	conn    io.ReadWriteCloser
	stopped bool
	err     error // terminal stream error (resync required, bad frame)
	stop    chan struct{}
	wg      sync.WaitGroup

	// Apply-progress broadcast: applyCh is closed and replaced on every
	// advance; WaitApplied parks on it.
	applyMu sync.Mutex
	applyCh chan struct{}

	// pending maps data RIDs inserted by transactions whose commit has
	// not yet been shipped; the read path filters them out so replica
	// reads are dirty-read-free for inserts. (Uncommitted deletes are
	// visible early — the mark is applied by redo — which is the
	// documented anomaly of serving reads from repeated history.)
	pendMu  sync.Mutex
	pending map[page.RID]page.TxnID
	byTxn   map[page.TxnID]map[page.RID]struct{}

	primaryFlushed atomic.Uint64

	// readyLSN is the read-service gate for a snapshot-seeded replica: the
	// seed's page images are fuzzy (each copied at a different moment), so
	// until apply reaches the newest image pageLSN the pool is not at any
	// single log-prefix state. Zero for a stream-from-scratch replica.
	readyLSN atomic.Uint64

	reg        *stats.Registry
	batches    *stats.Counter
	records    *stats.Counter
	reconnects *stats.Counter
	snapLoads  *stats.Counter
	lagHist    *stats.Histogram
	promoted   atomic.Bool
}

// NewReceiver builds a receiver over a replica's parts. dial opens a new
// transport to the primary's shipper; it is called once per (re)connect.
func NewReceiver(d ReceiverDeps, dial func() (io.ReadWriteCloser, error)) *Receiver {
	r := &Receiver{
		deps:    d,
		dial:    dial,
		ap:      recovery.NewApplier(d.Log, d.Pool, d.Disk, d.TM, 0),
		stop:    make(chan struct{}),
		applyCh: make(chan struct{}),
		pending: make(map[page.RID]page.TxnID),
		byTxn:   make(map[page.TxnID]map[page.RID]struct{}),
	}
	r.reg = stats.NewRegistry()
	r.batches = r.reg.Counter("repl.apply_batches")
	r.records = r.reg.Counter("repl.apply_records")
	r.reconnects = r.reg.Counter("repl.reconnects")
	r.snapLoads = r.reg.Counter("repl.snapshot_loads")
	// Sampled after every applied batch, in LSN units (records behind the
	// primary's flushed watermark), not nanoseconds: the distribution of
	// how far reads trail the primary.
	r.lagHist = r.reg.Histogram("repl.apply_lag")
	r.reg.Gauge("repl.applied_lsn", func() int64 { return int64(r.ap.AppliedLSN()) })
	r.reg.Gauge("repl.apply_lag_lsn", func() int64 {
		lag := int64(r.primaryFlushed.Load()) - int64(r.ap.AppliedLSN())
		if lag < 0 {
			lag = 0
		}
		return lag
	})
	return r
}

// Metrics exposes the receiver's counter registry.
func (r *Receiver) Metrics() *stats.Registry { return r.reg }

// ApplierMetrics exposes the continuous-redo engine's recovery registry
// (recovery.redo_drain and friends), for the replica facade's snapshot.
func (r *Receiver) ApplierMetrics() *stats.Registry { return r.ap.Metrics() }

// AppliedLSN is the LSN through which the replica has repeated history.
func (r *Receiver) AppliedLSN() page.LSN { return r.ap.AppliedLSN() }

// Lag is the last observed primary flushed watermark minus the applied LSN.
func (r *Receiver) Lag() page.LSN {
	pf := page.LSN(r.primaryFlushed.Load())
	if a := r.ap.AppliedLSN(); pf > a {
		return pf - a
	}
	return 0
}

// RLock/RUnlock bracket a read against the apply gate: between them the
// replica's pool holds a frozen log-prefix state. After a snapshot load
// RLock additionally blocks until apply has caught up past the newest
// shipped image pageLSN — the seed images are fuzzy, and serving them
// before that point would expose a state no crash-restart of the primary
// could produce. The wait is short (the shipper forced the log through
// every image before shipping, so the records are already in flight) and
// is abandoned if the stream stops or dies first: a dead snapshot-seeded
// replica serves its best available state and reports the error via Err.
func (r *Receiver) RLock() {
	for {
		r.gate.RLock()
		ready := page.LSN(r.readyLSN.Load())
		if r.ap.AppliedLSN() >= ready || r.streamDown() {
			return
		}
		r.gate.RUnlock()
		r.applyMu.Lock()
		ch := r.applyCh
		r.applyMu.Unlock()
		if r.ap.AppliedLSN() >= page.LSN(r.readyLSN.Load()) || r.streamDown() {
			continue
		}
		select {
		case <-ch:
		case <-r.stop:
		}
	}
}
func (r *Receiver) RUnlock() { r.gate.RUnlock() }

// streamDown reports whether the stream can make no further progress
// (stopped or dead with a terminal error).
func (r *Receiver) streamDown() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped || r.err != nil
}

// Visible reports whether a data RID is committed as of the shipped
// history (the read path's dirty-insert filter). Call under RLock.
func (r *Receiver) Visible(rid page.RID) bool {
	r.pendMu.Lock()
	_, dirty := r.pending[rid]
	r.pendMu.Unlock()
	return !dirty
}

// Start launches the streaming loop.
func (r *Receiver) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.run()
	}()
}

// Err returns the terminal stream error, if any (e.g. ErrResyncRequired).
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// run is the dial/stream/redial loop.
func (r *Receiver) run() {
	backoff := time.Millisecond
	for first := true; ; first = false {
		select {
		case <-r.stop:
			return
		default:
		}
		if !first {
			select {
			case <-r.stop:
				return
			case <-time.After(backoff):
			}
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			r.reconnects.Inc()
		}
		conn, err := r.dial()
		if err != nil {
			continue
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conn = conn
		r.mu.Unlock()
		progressBefore := r.records.Load() + r.snapLoads.Load()
		err = r.stream(conn)
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		conn.Close()
		if err != nil && isTerminal(err) {
			r.mu.Lock()
			r.err = err
			r.mu.Unlock()
			// Wake WaitApplied parkers so they observe the terminal error
			// instead of sleeping to their deadline.
			r.advanceApplied()
			return
		}
		// Reset backoff only when the connection made progress (records
		// applied or a snapshot loaded): stream() also returns nil for
		// transport-level failures, and a primary that accepts dials but
		// immediately breaks the stream must not induce a busy redial loop.
		if r.records.Load()+r.snapLoads.Load() > progressBefore {
			backoff = time.Millisecond
		}
	}
}

// isTerminal classifies stream errors that redialing cannot fix.
func isTerminal(err error) bool {
	return errors.Is(err, ErrResyncRequired) || errors.Is(err, errSnapNotFresh)
}

var errSnapNotFresh = errors.New("repl: snapshot offered to a non-fresh replica")

// stream runs one connection: hello, then batches until the transport
// breaks or the receiver stops.
func (r *Receiver) stream(conn io.ReadWriteCloser) error {
	if err := writeFrame(conn, encodeHello(r.deps.Log.LastLSN()+1)); err != nil {
		return nil // transport-level: redial
	}
	for {
		select {
		case <-r.stop:
			return nil
		default:
		}
		payload, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				return err
			}
			return nil // transport-level: redial
		}
		switch payload[0] {
		case msgRecords:
			flushed, recs, err := decodeRecords(payload)
			if err != nil {
				return err
			}
			r.primaryFlushed.Store(uint64(flushed))
			if err := r.applyBatch(recs); err != nil {
				return fmt.Errorf("%w: %v", ErrResyncRequired, err)
			}
			if err := writeFrame(conn, encodeAck(r.ap.AppliedLSN())); err != nil {
				return nil
			}
		case msgSnap:
			if err := r.loadSnapshot(payload); err != nil {
				return err
			}
		case msgErr:
			return fmt.Errorf("%w: primary: %s", ErrResyncRequired, payload[1:])
		default:
			return fmt.Errorf("%w: message type %d", ErrBadFrame, payload[0])
		}
	}
}

// applyBatch appends and applies one shipped batch under the write gate.
// Records at or below the replica's last LSN (overlap from a resume) are
// dropped before append; redo's pageLSN gate would skip them anyway.
func (r *Receiver) applyBatch(recs []*wal.Record) error {
	last := r.deps.Log.LastLSN()
	for len(recs) > 0 && recs[0].LSN <= last {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return nil
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	if r.promoted.Load() {
		return ErrPromoted
	}
	for _, rec := range recs {
		if err := r.deps.Log.AppendShipped(rec); err != nil {
			return err
		}
	}
	if err := r.ap.ApplyBatch(recs); err != nil {
		return err
	}
	r.trackPending(recs)
	r.batches.Inc()
	r.records.Add(int64(len(recs)))
	if lag := int64(r.primaryFlushed.Load()) - int64(r.ap.AppliedLSN()); lag > 0 {
		r.lagHist.Observe(lag)
	} else {
		r.lagHist.Observe(0)
	}
	r.advanceApplied()
	return nil
}

// trackPending maintains the dirty-insert filter from the shipped records.
func (r *Receiver) trackPending(recs []*wal.Record) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	for _, rec := range recs {
		switch {
		case rec.Type == wal.RecAddLeafEntry: // non-CLR: a fresh insert
			if e, err := page.DecodeEntry(rec.Body, true); err == nil {
				r.pending[e.RID] = rec.Txn
				set := r.byTxn[rec.Txn]
				if set == nil {
					set = make(map[page.RID]struct{})
					r.byTxn[rec.Txn] = set
				}
				set[e.RID] = struct{}{}
			}
		case rec.Type == wal.RecHeapInsert:
			r.pending[rec.RID] = rec.Txn
			set := r.byTxn[rec.Txn]
			if set == nil {
				set = make(map[page.RID]struct{})
				r.byTxn[rec.Txn] = set
			}
			set[rec.RID] = struct{}{}
		case rec.Type == wal.RecCommit || rec.Type == wal.RecEnd:
			// Commit makes the inserts visible; End after an abort means
			// the CLRs that physically removed them have all been applied.
			for rid := range r.byTxn[rec.Txn] {
				delete(r.pending, rid)
			}
			delete(r.byTxn, rec.Txn)
		}
	}
}

// advanceApplied wakes WaitApplied parkers.
func (r *Receiver) advanceApplied() {
	r.applyMu.Lock()
	close(r.applyCh)
	r.applyCh = make(chan struct{})
	r.applyMu.Unlock()
}

// WaitApplied blocks until the replica has applied through lsn (or ctx
// fires, or the stream dies with a terminal error).
func (r *Receiver) WaitApplied(ctx context.Context, lsn page.LSN) error {
	for {
		if r.ap.AppliedLSN() >= lsn {
			return nil
		}
		if err := r.Err(); err != nil {
			return err
		}
		r.applyMu.Lock()
		ch := r.applyCh
		r.applyMu.Unlock()
		if r.ap.AppliedLSN() >= lsn {
			return nil
		}
		if err := r.Err(); err != nil {
			return err
		}
		if ctx == nil {
			select {
			case <-ch:
			case <-r.stop:
				if r.ap.AppliedLSN() >= lsn {
					return nil
				}
				return errors.New("repl: receiver stopped")
			}
			continue
		}
		select {
		case <-ch:
		case <-r.stop:
			if r.ap.AppliedLSN() >= lsn {
				return nil
			}
			return errors.New("repl: receiver stopped")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// loadSnapshot installs a full-resync seed. Only a fresh replica (empty
// log, nothing applied) may accept one; anything else must be rebuilt.
//
// The log is rebased to start-1, not base: the stream resumes at start =
// min(base+1, oldest in-flight transaction's first record), and the
// shipped [start, base] prefix must land in the replica log so the
// applier's ATT and the dirty-insert filter see the in-flight
// transactions a later Promote has to undo. Redo of that prefix over the
// seed images is a no-op under the pageLSN gate. Reads stay gated (RLock)
// until apply reaches imgMax, the newest image pageLSN — before that the
// fuzzy images are not a single log-prefix state.
func (r *Receiver) loadSnapshot(payload []byte) error {
	base, start, imgMax, pages, err := decodeSnap(payload)
	if err != nil {
		return err
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	if r.deps.Log.LastLSN() != 0 || r.deps.Log.Base() != 0 {
		return errSnapNotFresh
	}
	for _, p := range pages {
		if err := r.deps.Disk.EnsureAllocated(p.id); err != nil {
			return err
		}
		if err := r.deps.Disk.WritePage(p.id, p.img); err != nil {
			return err
		}
	}
	if err := r.deps.Log.RebaseShipped(start - 1); err != nil {
		return err
	}
	r.ap.SetApplied(start - 1)
	r.readyLSN.Store(uint64(imgMax))
	r.primaryFlushed.Store(uint64(base))
	r.snapLoads.Inc()
	r.advanceApplied()
	return nil
}

// Stop halts streaming (idempotent): closes the live connection and waits
// for the loop to exit. The replica keeps serving reads at its last
// applied state.
func (r *Receiver) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
}

// Promote flips the replica into a primary: the stream is drained and
// stopped, register runs (it must install the undo handlers for the
// replica's trees on the transaction manager), and the surviving in-flight
// transactions — exactly restart's losers — are aborted through those
// handlers, writing CLRs to the replica log, which is a normal read-write
// log from here on. Returns the number of losers undone.
//
// After Promote the receiver is inert; the caller owns the engine parts.
func (r *Receiver) Promote(register func() error) (int, error) {
	r.Stop()
	r.gate.Lock()
	defer r.gate.Unlock()
	if r.promoted.Swap(true) {
		return 0, ErrPromoted
	}
	if ready := page.LSN(r.readyLSN.Load()); r.ap.AppliedLSN() < ready {
		// A snapshot-seeded replica whose apply never caught up past the
		// newest image pageLSN holds a fuzzy state no log prefix describes;
		// undo over it would be unsound. The replica must be rebuilt.
		return 0, fmt.Errorf("%w: promote at applied %d before snapshot readiness %d",
			ErrResyncRequired, r.ap.AppliedLSN(), ready)
	}
	// Fresh transactions must never reuse an id the shipped history
	// already attributed to someone else (their locks and backchains
	// would collide), so advance the id counter past everything seen.
	r.deps.TM.AdvanceTxnID(r.ap.MaxTxnID())
	if register != nil {
		if err := register(); err != nil {
			return 0, err
		}
	}
	return r.ap.UndoLosers()
}

// Losers exposes the surviving ATT (diagnostics and tests).
func (r *Receiver) Losers() map[page.TxnID]page.LSN {
	r.gate.Lock()
	defer r.gate.Unlock()
	return r.ap.Losers()
}
