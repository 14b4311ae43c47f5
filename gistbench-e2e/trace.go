package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"
	"unsafe"

	"repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

// The traced run wraps the extension methods the benchmark hands to
// CreateIndex/OpenIndex. The untraced run passes btree.Ops and rtree.Ops
// unwrapped, so it pays none of this.

// extSampleMask times one callback in 16; the rest are only counted, since
// a clock read costs more than most callbacks.
const extSampleMask = 15

// extShards spreads each class's counters over cache lines, so the two
// clients do not bounce one line between cores on every callback. A call
// picks its shard from the address of its argument, which is the same for
// all the callbacks of one tree operation and differs between clients.
const extShards = 8

// extCounter counts one class of callback and times a sample of it.
type extCounter struct {
	calls   atomic.Int64
	sampled atomic.Int64
	nanos   atomic.Int64
	_       [40]byte
}

// Callback classes. Consistent calls are split by the query they answer: a
// btree point query, a btree interval (a scan), or an rtree window.
const (
	extPoint = iota
	extInterval
	extWindow
	extUnion
	extPenalty
	extSplit
	numExt
)

// extStats are the callback counters of one traced instance.
type extStats [numExt][extShards]extCounter

// counter returns the shard of class cl that a call with argument b uses.
func (s *extStats) counter(cl int, b []byte) *extCounter {
	p := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b))))
	return &s[cl][(p*0x9E3779B97F4A7C15)>>61]
}

// clockCost is the cost of the two clock reads around a timed callback,
// measured once at start-up and taken off every timed sample.
var clockCost = func() int64 {
	var best int64 = math.MaxInt64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}()

// start counts a call and reports whether to time it, one in
// extSampleMask+1; stop books a timed call.
func (c *extCounter) start() (t0 time.Time, timed bool) {
	if c.calls.Add(1)&extSampleMask != 0 {
		return t0, false
	}
	return time.Now(), true
}

func (c *extCounter) stop(t0 time.Time) {
	c.nanos.Add(max(0, time.Since(t0).Nanoseconds()-clockCost))
	c.sampled.Add(1)
}

// extCount is a snapshot of one class.
type extCount struct {
	calls, sampled, nanos int64
}

// estNanos extrapolates the sampled time to every call.
func (c extCount) estNanos() float64 {
	if c.sampled == 0 {
		return 0
	}
	return float64(c.nanos) / float64(c.sampled) * float64(c.calls)
}

// extSnap is a snapshot of every class.
type extSnap [numExt]extCount

func (s *extStats) snap() extSnap {
	var out extSnap
	for cl := range s {
		for i := range s[cl] {
			c := &s[cl][i]
			out[cl].calls += c.calls.Load()
			out[cl].sampled += c.sampled.Load()
			out[cl].nanos += c.nanos.Load()
		}
	}
	return out
}

// plus returns s + sign*o, class by class.
func (s extSnap) plus(o extSnap, sign int64) extSnap {
	for i := range s {
		s[i].calls += sign * o[i].calls
		s[i].sampled += sign * o[i].sampled
		s[i].nanos += sign * o[i].nanos
	}
	return s
}

// tracedOps wraps an extension, counting and sample-timing its callbacks.
type tracedOps struct {
	inner gistdb.Ops
	s     *extStats
	isB   bool // btree: classify Consistent by query shape
}

func (o tracedOps) Consistent(pred, query []byte) bool {
	cl := extWindow
	if o.isB {
		cl = extInterval
		if len(query) == 16 && string(query[:8]) == string(query[8:]) {
			cl = extPoint
		}
	}
	c := o.s.counter(cl, query)
	t0, timed := c.start()
	r := o.inner.Consistent(pred, query)
	if timed {
		c.stop(t0)
	}
	return r
}

func (o tracedOps) Union(a, b []byte) []byte {
	c := o.s.counter(extUnion, b)
	t0, timed := c.start()
	r := o.inner.Union(a, b)
	if timed {
		c.stop(t0)
	}
	return r
}

func (o tracedOps) Penalty(bp, key []byte) float64 {
	c := o.s.counter(extPenalty, key)
	t0, timed := c.start()
	r := o.inner.Penalty(bp, key)
	if timed {
		c.stop(t0)
	}
	return r
}

func (o tracedOps) PickSplit(preds [][]byte) []int {
	var first []byte
	if len(preds) > 0 {
		first = preds[0]
	}
	c := o.s.counter(extSplit, first)
	t0, timed := c.start()
	r := o.inner.PickSplit(preds)
	if timed {
		c.stop(t0)
	}
	return r
}

func (o tracedOps) KeyQuery(key []byte) []byte { return o.inner.KeyQuery(key) }

// extOps hands out the extensions of one DB instance: raw, or wrapped into
// the run's counters.
type extOps struct {
	s *extStats // nil: untraced
}

func (e extOps) btree() gistdb.Ops {
	if e.s == nil {
		return btree.Ops{}
	}
	return tracedOps{inner: btree.Ops{}, s: e.s, isB: true}
}

func (e extOps) rtree() gistdb.Ops {
	if e.s == nil {
		return rtree.Ops{}
	}
	return tracedOps{inner: rtree.Ops{}, s: e.s}
}

// recentOpsTraced sizes the engine's flight-recorder ring in traced runs so
// that it keeps every operation of the traced window; untraced runs keep
// the engine's default.
const recentOpsTraced = 1 << 20

// traceWindow is what a traced window collected, for layerMetrics.
type traceWindow struct {
	calls    phase              // facade calls of the traced window
	delta    map[string]int64   // DB.Metrics() counters, after − before
	after    map[string]int64   // DB.Metrics() at the end (histogram quantiles)
	traces   []gistdb.OpTrace   // flight-recorder traces started in the window
	ext      extSnap            // callback counters, after − before
	recovery []map[string]int64 // DB.Metrics() right after each restart
	tpsOff   float64            // txn_per_s of the untraced window
	userB    int64              // key+record bytes inserted in the window
}

// metricsDelta is after − before for every counter present in both. Derived
// histogram keys are not differences; layerMetrics reads them from after.
func metricsDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// addInto adds d into acc.
func addInto(acc, d map[string]int64) {
	for k, v := range d {
		acc[k] += v
	}
}

// add folds another traced window into w (the restart workload traces one
// window per restart).
func (w *traceWindow) add(o traceWindow) {
	w.calls = merge(w.calls, o.calls)
	addInto(w.delta, o.delta)
	w.after = o.after
	w.traces = append(w.traces, o.traces...)
	w.ext = w.ext.plus(o.ext, 1)
	w.userB += o.userB
}

// inWindow keeps the traces that started at or after t0.
func inWindow(ts []gistdb.OpTrace, t0 time.Time) []gistdb.OpTrace {
	from := t0.UnixNano()
	var out []gistdb.OpTrace
	for _, t := range ts {
		if t.Start >= from {
			out = append(out, t)
		}
	}
	return out
}

// budgetRow is the per-call budget of one facade call kind.
type budgetRow struct {
	n                  int64
	span, child, waits float64 // nanoseconds, summed over calls
}

func (r budgetRow) unattributed() float64 {
	u := r.span - r.child - r.waits
	if u < 0 {
		return 0
	}
	return u
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json.
var perLayer = []struct{ name, unit string }{
	{"gist.point_self_us", "us"},
	{"gist.scan_next_us", "us"},
	{"gist.visits_per_point", "count"},
	{"gist.visits_per_insert", "count"},
	{"gist.opt_restart_ratio", "ratio"},
	{"gist.opt_fallback_ratio", "ratio"},
	{"ext.consistent_calls_per_point", "count"},
	{"ext.consistent_us_per_point", "us"},
	{"ext.consistent_calls_per_window", "count"},
	{"ext.union_calls_per_insert", "count"},
	{"ext.penalty_calls_per_insert", "count"},
	{"ext.picksplit_per_1k_inserts", "count"},
	{"latch.s_acquires_per_op", "count"},
	{"latch.x_wait_p99_us", "us"},
	{"latch.x_hold_p99_us", "us"},
	{"lock.acquisitions_per_txn", "count"},
	{"lock.waits_per_1k_txn", "count"},
	{"lock.wait_us_per_txn", "us"},
	{"lock.deadlocks_per_1k_txn", "count"},
	{"predicate.checks_per_insert", "count"},
	{"predicate.examined_per_check", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.misses_per_op", "count"},
	{"buffer.load_p50_us", "us"},
	{"buffer.load_wait_us_per_op", "us"},
	{"buffer.evictions_per_op", "count"},
	{"buffer.steals_per_op", "count"},
	{"disk.reads_per_op", "count"},
	{"disk.writes_per_txn", "count"},
	{"wal.syncs_per_txn", "count"},
	{"wal.syncs_per_commit", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.records_per_write_txn", "count"},
	{"wal.stage_stalls_per_1k_txn", "count"},
	{"txn.begin_us", "us"},
	{"txn.commit_flush_p50_us", "us"},
	{"txn.abort_ratio", "ratio"},
	{"heap.fetch_us", "us"},
	{"maint.checkpoints", "count"},
	{"maint.flush_pages_per_1k_txn", "count"},
	{"maint.gc_reclaimed_per_delete", "count"},
	{"maint.backpressure_pauses", "count"},
	{"recovery.scan_ms", "ms"},
	{"recovery.redo_ms", "ms"},
	{"recovery.undo_ms", "ms"},
	{"recovery.redone", "count"},
	{"recovery.redo_skipped", "count"},
	{"recovery.undone", "count"},
	{"recovery.prefetch_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"budget.unattributed_pct", "%"},
}

// layerMetrics turns a traced window into the per-layer metrics.
func layerMetrics(w traceWindow) map[string]float64 {
	c := w.calls
	d := func(k string) float64 { return float64(w.delta[k]) }
	n := func(o op) float64 { return float64(c.count(o)) }
	txns := float64(c.txns())
	ops := n(opPoint) + n(opFetch) + n(opScan) + n(opWindow) + n(opInsert) + n(opDelete)

	// Flight-recorder traces, attributed to the facade call that caused them.
	kinds := c.kinds()
	type traceSum struct {
		n             int64
		waits, visits float64
		flush         []int64
	}
	var tr [numOps]traceSum
	for _, t := range w.traces {
		var o op
		switch t.Op {
		case "search":
			o = opPoint
			if kinds[t.Txn] == txnWindow {
				o = opWindow
			}
		case "cursor":
			o = opScan
		case "insert":
			o = opInsert
		case "delete":
			o = opDelete
		case "commit":
			o = opCommit
		default:
			continue
		}
		s := &tr[o]
		s.n++
		s.waits += float64(t.LatchWait + t.LockWait + t.BufLoad + t.FlushWait)
		s.visits += float64(t.NodeVisits)
		if o == opCommit {
			s.flush = append(s.flush, t.FlushWait)
		}
	}

	// Budget: span time not covered by callback time or a counted wait.
	x := w.ext
	child := [numOps]float64{
		opPoint:  x[extPoint].estNanos(),
		opScan:   x[extInterval].estNanos(),
		opWindow: x[extWindow].estNanos(),
		opInsert: x[extUnion].estNanos() + x[extPenalty].estNanos() + x[extSplit].estNanos(),
	}
	var rows [numOps]budgetRow
	var spanAll, unattrAll float64
	for o := op(0); o < numOps; o++ {
		if o == opNext || o == opRestart || o == opCheckpoint || o == opCheck {
			continue // Next is inside scan; the others are not in the window
		}
		rows[o] = budgetRow{n: c.count(o), span: float64(c.sum(o)), child: child[o], waits: tr[o].waits}
		spanAll += rows[o].span
		unattrAll += rows[o].unattributed()
	}
	printBudget(rows)

	var rec struct{ scan, redo, undo, redone, skipped, undone, prefetch []float64 }
	for _, m := range w.recovery {
		rec.scan = append(rec.scan, float64(m["recovery.scan_nanos"])/1e6)
		rec.redo = append(rec.redo, float64(m["recovery.redo_nanos"])/1e6)
		rec.undo = append(rec.undo, float64(m["recovery.undo_nanos"])/1e6)
		rec.redone = append(rec.redone, float64(m["recovery.redone"]))
		rec.skipped = append(rec.skipped, float64(m["recovery.redo_skipped"]))
		rec.undone = append(rec.undone, float64(m["recovery.undone"]))
		h, mi := float64(m["recovery.prefetch_hits"]), float64(m["recovery.prefetch_misses"])
		rec.prefetch = append(rec.prefetch, ratio(h, h+mi))
	}

	hits, misses := d("buffer.hits"), d("buffer.misses")
	// The buffer registry cannot be reset through the facade; it is fresh
	// from the reopen before the window but also holds the warm-up's loads,
	// so it is read only when the window itself missed.
	var loadP50 float64
	if misses > 0 {
		loadP50 = float64(w.after["buffer.load_p50"]) / 1e3
	}
	return map[string]float64{
		"gist.point_self_us":      ratio(rows[opPoint].unattributed(), n(opPoint)) / 1e3,
		"gist.scan_next_us":       ratio(float64(c.sum(opNext)), n(opNext)) / 1e3,
		"gist.visits_per_point":   ratio(tr[opPoint].visits, float64(tr[opPoint].n)),
		"gist.visits_per_insert":  ratio(tr[opInsert].visits, float64(tr[opInsert].n)),
		"gist.opt_restart_ratio":  ratio(d("latch.opt_restarts"), d("latch.opt_reads")),
		"gist.opt_fallback_ratio": ratio(d("latch.opt_fallbacks"), d("latch.opt_reads")),

		"ext.consistent_calls_per_point":  ratio(float64(x[extPoint].calls), n(opPoint)),
		"ext.consistent_us_per_point":     ratio(x[extPoint].estNanos(), n(opPoint)) / 1e3,
		"ext.consistent_calls_per_window": ratio(float64(x[extWindow].calls), n(opWindow)),
		"ext.union_calls_per_insert":      ratio(float64(x[extUnion].calls), n(opInsert)),
		"ext.penalty_calls_per_insert":    ratio(float64(x[extPenalty].calls), n(opInsert)),
		"ext.picksplit_per_1k_inserts":    1e3 * ratio(float64(x[extSplit].calls), n(opInsert)),

		"latch.s_acquires_per_op": ratio(d("latch.s_acquires"), ops),
		"latch.x_wait_p99_us":     float64(w.after["latch.x_wait_p99"]) / 1e3,
		"latch.x_hold_p99_us":     float64(w.after["latch.x_hold_p99"]) / 1e3,

		"lock.acquisitions_per_txn": ratio(d("lock.acquisitions"), txns),
		"lock.waits_per_1k_txn":     1e3 * ratio(d("lock.waits"), txns),
		"lock.wait_us_per_txn":      ratio(d("lock.wait_nanos"), txns) / 1e3,
		"lock.deadlocks_per_1k_txn": 1e3 * ratio(d("lock.deadlocks"), txns),

		"predicate.checks_per_insert":  ratio(d("predicate.checks"), n(opInsert)),
		"predicate.examined_per_check": ratio(d("predicate.preds_examined"), d("predicate.checks")),

		"buffer.hit_ratio":           ratio(hits, hits+misses),
		"buffer.misses_per_op":       ratio(misses, ops),
		"buffer.load_p50_us":         loadP50,
		"buffer.load_wait_us_per_op": ratio(d("buffer.load_wait_nanos"), ops) / 1e3,
		"buffer.evictions_per_op":    ratio(d("buffer.evictions"), ops),
		"buffer.steals_per_op":       ratio(d("buffer.frame_steals"), ops),

		"disk.reads_per_op":   ratio(d("disk.reads"), ops),
		"disk.writes_per_txn": ratio(d("disk.writes"), txns),

		"wal.syncs_per_txn":           ratio(d("wal.syncs"), txns),
		"wal.syncs_per_commit":        ratio(d("wal.syncs"), d("txn.commit_forces")),
		"wal.fsync_p50_us":            float64(w.after["wal.fsync_p50"]) / 1e3,
		"wal.bytes_per_user_byte":     ratio(d("wal.appended_bytes"), float64(w.userB)),
		"wal.records_per_write_txn":   ratio(d("wal.appends"), n(opCommit)),
		"wal.stage_stalls_per_1k_txn": 1e3 * ratio(d("wal.stage_stalls"), txns),

		"txn.begin_us":            ratio(float64(c.sum(opBegin)), n(opBegin)) / 1e3,
		"txn.commit_flush_p50_us": quantile(tr[opCommit].flush, 0.5),
		"txn.abort_ratio":         ratio(d("txn.aborts"), d("txn.commits")+d("txn.aborts")),

		"heap.fetch_us": ratio(float64(c.sum(opFetch)), n(opFetch)) / 1e3,

		"maint.checkpoints":             d("maint.checkpoints"),
		"maint.flush_pages_per_1k_txn":  1e3 * ratio(d("maint.flush_pages"), txns),
		"maint.gc_reclaimed_per_delete": ratio(d("maint.gc_reclaimed"), n(opDelete)),
		"maint.backpressure_pauses":     d("maint.backpressure_pauses"),

		"recovery.scan_ms":            median(rec.scan),
		"recovery.redo_ms":            median(rec.redo),
		"recovery.undo_ms":            median(rec.undo),
		"recovery.redone":             median(rec.redone),
		"recovery.redo_skipped":       median(rec.skipped),
		"recovery.undone":             median(rec.undone),
		"recovery.prefetch_hit_ratio": median(rec.prefetch),

		"trace.overhead_pct":      100 * ratio(w.tpsOff-c.tps(), w.tpsOff),
		"budget.unattributed_pct": 100 * ratio(unattrAll, spanAll),
	}
}

// printBudget writes the per-call budget table to stderr.
func printBudget(rows [numOps]budgetRow) {
	fmt.Fprintf(os.Stderr, "%-10s %9s %10s %10s %10s %12s\n", "call", "n", "span_us", "ext_us", "waits_us", "unattrib_us")
	for o := op(0); o < numOps; o++ {
		r := rows[o]
		if r.n == 0 {
			continue
		}
		k := float64(r.n) * 1e3
		fmt.Fprintf(os.Stderr, "%-10s %9d %10.2f %10.2f %10.2f %12.2f\n",
			opNames[o], r.n, r.span/k, r.child/k, r.waits/k, r.unattributed()/k)
	}
}
