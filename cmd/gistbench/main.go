// Command gistbench regenerates the experiments of EXPERIMENTS.md: the
// scenario reproductions of the paper's figures, the Table 1 crash matrix,
// and the quantitative experiments validating the paper's qualitative
// claims (link protocol superiority, hybrid predicate locking efficiency,
// no latches across I/O).
//
// Usage:
//
//	gistbench -exp all
//	gistbench -exp figure2|table1|throughput|predicates|latchio|nsn|gc
//	gistbench -threads 1,2,4,8,16 -keys 20000 -iolat 100us
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gistdb "repro"
	"repro/internal/baseline"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/crashfuzz"
	"repro/internal/predicate"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

var (
	expFlag     = flag.String("exp", "all", "experiment: figure2, table1, throughput, predicates, latchio, nsn, gc, isolation, metrics, crashfuzz, maint, cancel, readscale, restart, repl, all")
	threadsFlag = flag.String("threads", "1,2,4,8,16", "goroutine counts for throughput experiments")
	keysFlag    = flag.Int("keys", 20000, "working-set size for throughput experiments")
	durFlag     = flag.Duration("dur", 2*time.Second, "measurement duration per throughput cell")
	iolatFlag   = flag.Duration("iolat", 200*time.Microsecond, "simulated I/O latency per page access")
	poolFlag    = flag.Int("pool", 64, "buffer pool pages for the protocol comparison")
	jsonFlag    = flag.Bool("json", false, "emit machine-readable JSON (metrics experiment only)")
	seedsFlag   = flag.Int64("seeds", 60, "crashfuzz: number of randomized crash-point seeds to run")
	seedFlag    = flag.Int64("seed", 0, "crashfuzz: replay one seed (as printed by a failure's repro line)")
)

func main() {
	flag.Parse()
	run := func(name string, fn func()) {
		if *expFlag == "all" || *expFlag == name {
			if !*jsonFlag {
				fmt.Printf("\n================ experiment: %s ================\n", name)
			}
			fn()
		}
	}
	run("figure2", expFigure2)
	run("table1", expTable1)
	run("throughput", expThroughput)
	run("predicates", expPredicates)
	run("latchio", expLatchIO)
	run("nsn", expNSN)
	run("gc", expGC)
	run("isolation", expIsolation)
	run("metrics", expMetrics)
	run("crashfuzz", expCrashFuzz)
	run("maint", expMaint)
	run("cancel", expCancel)
	run("readscale", expReadscale)
	run("restart", expRestart)
	run("repl", expRepl)
}

// maintCell is one soak measurement: an insert/delete churn workload run
// for -dur with the background maintenance daemons either off (Manual mode:
// the manager exists for its gauges but nothing ticks) or on with
// aggressive pacing. The contrast is the experiment: with daemons off the
// log and the dead-entry population grow without bound; with daemons on the
// checkpointer + truncator hold the log bounded and the GC sweeper holds
// dead entries bounded, at a measurable (small) foreground latency cost.
type maintCell struct {
	Daemons        bool    `json:"daemons"`
	Ops            int64   `json:"ops"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P99Micros      float64 `json:"p99_us"`
	MaxLogRecords  int64   `json:"max_log_records"`
	EndLogRecords  int64   `json:"end_log_records"`
	MaxDirtyPages  int64   `json:"max_dirty_pages"`
	MaxDeadEntries int64   `json:"max_dead_entries"`
	EndDeadEntries int64   `json:"end_dead_entries"`
	LogBase        int64   `json:"log_base"`
	Checkpoints    int64   `json:"checkpoints"`
	Truncations    int64   `json:"truncations"`
	TruncatedBytes int64   `json:"truncated_bytes"`
	FlushPages     int64   `json:"flush_pages"`
	GCReclaimed    int64   `json:"gc_reclaimed"`
}

func expMaint() {
	off := maintSoak(false)
	on := maintSoak(true)
	if *jsonFlag {
		out, err := json.MarshalIndent(map[string]maintCell{
			"daemons_off": off, "daemons_on": on,
		}, "", "  ")
		must(err)
		fmt.Println(string(out))
	} else {
		fmt.Printf("%-22s %14s %14s\n", "", "daemons off", "daemons on")
		row := func(name string, a, b int64) { fmt.Printf("%-22s %14d %14d\n", name, a, b) }
		rowF := func(name string, a, b float64) { fmt.Printf("%-22s %14.1f %14.1f\n", name, a, b) }
		rowF("ops/sec", off.OpsPerSec, on.OpsPerSec)
		rowF("p50 latency (us)", off.P50Micros, on.P50Micros)
		rowF("p99 latency (us)", off.P99Micros, on.P99Micros)
		row("max log records", off.MaxLogRecords, on.MaxLogRecords)
		row("end log records", off.EndLogRecords, on.EndLogRecords)
		row("log base (head)", off.LogBase, on.LogBase)
		row("max dirty pages", off.MaxDirtyPages, on.MaxDirtyPages)
		row("max dead entries", off.MaxDeadEntries, on.MaxDeadEntries)
		row("end dead entries", off.EndDeadEntries, on.EndDeadEntries)
		row("checkpoints", off.Checkpoints, on.Checkpoints)
		row("truncations", off.Truncations, on.Truncations)
		row("truncated bytes", off.TruncatedBytes, on.TruncatedBytes)
		row("write-behind flushes", off.FlushPages, on.FlushPages)
		row("GC entries reclaimed", off.GCReclaimed, on.GCReclaimed)
	}
	// The soak's acceptance criteria: with the daemons on, the log head must
	// actually advance, GC must actually reclaim, and the retained log must
	// be meaningfully smaller than the unmaintained run's.
	var bad []string
	if on.LogBase == 0 {
		bad = append(bad, "log head never advanced")
	}
	if on.Checkpoints == 0 {
		bad = append(bad, "checkpointer never fired")
	}
	if on.GCReclaimed == 0 {
		bad = append(bad, "GC sweeper reclaimed nothing")
	}
	if on.EndLogRecords >= off.EndLogRecords {
		bad = append(bad, fmt.Sprintf("retained log not bounded (on=%d off=%d records)",
			on.EndLogRecords, off.EndLogRecords))
	}
	if len(bad) > 0 {
		writeSlowOpsDump()
		fmt.Fprintf(os.Stderr, "gistbench: maint soak FAILED: %s\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
	if !*jsonFlag {
		fmt.Println("RESULT: daemons held log and dead entries bounded while foreground work ran")
	}
}

func maintSoak(daemons bool) maintCell {
	mo := &gistdb.MaintenanceOptions{Manual: true}
	if daemons {
		mo = &gistdb.MaintenanceOptions{
			CheckpointBytes:    256 << 10,
			CheckpointInterval: 500 * time.Millisecond,
			CheckpointPoll:     10 * time.Millisecond,
			TruncateInterval:   20 * time.Millisecond,
			FlushInterval:      10 * time.Millisecond,
			FlushBatch:         64,
			FlushMinDirty:      16,
			GCInterval:         10 * time.Millisecond,
			GCDeadThreshold:    32,
			GCBurstLeaves:      32,
			GCSweepTicks:       32,
		}
	}
	// The pool is sized above the working set: the write-behind flusher can
	// then actually drain the DPT, which is what lets the truncation bound
	// (min dirty recLSN) track the append head.
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 16, PoolPages: 4096, Maintenance: mo, SlowOpThreshold: soakSlowOpThreshold})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("maint", btree.Ops{})
	must(err)

	cell := maintCell{Daemons: daemons}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Sampler: the bounded-ness claim is about the whole run, not just its
	// endpoint, so track the maxima of the maint gauges over time.
	var gaugeMu sync.Mutex
	maxGauge := map[string]int64{}
	sample := func() {
		m := db.Metrics()
		gaugeMu.Lock()
		for _, g := range []string{"maint.log_records", "maint.dirty_pages", "maint.dead_entries"} {
			if m[g] > maxGauge[g] {
				maxGauge[g] = m[g]
			}
		}
		gaugeMu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()

	// Churn writers: ~70% inserts, ~30% deletes of the writer's own earlier
	// keys — the delete marks are the GC sweeper's food.
	type kv struct {
		key int64
		rid gistdb.RID
	}
	const writers = 4
	latCh := make(chan []time.Duration, writers)
	var ops atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			next := seed * 10_000_000
			var mine []kv
			var lats []time.Duration
			for {
				select {
				case <-stop:
					latCh <- lats
					return
				default:
				}
				t0 := time.Now()
				tx, err := db.Begin()
				if err != nil {
					latCh <- lats
					return
				}
				if rng.Intn(10) < 3 && len(mine) > 0 {
					i := rng.Intn(len(mine))
					p := mine[i]
					if err := idx.Delete(tx, btree.EncodeKey(p.key), p.rid); err != nil {
						tx.Abort()
						continue
					}
					mine = append(mine[:i], mine[i+1:]...)
				} else {
					k := next
					next++
					rid, err := idx.Insert(tx, btree.EncodeKey(k), []byte("soak"))
					if err != nil {
						tx.Abort()
						continue
					}
					mine = append(mine, kv{k, rid})
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				lats = append(lats, time.Since(t0))
				ops.Add(1)
			}
		}(int64(w + 1))
	}
	time.Sleep(*durFlag)
	close(stop)
	wg.Wait()
	sample()

	var all []time.Duration
	for i := 0; i < writers; i++ {
		all = append(all, <-latCh...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Microseconds())
	}
	m := db.Metrics()
	cell.Ops = ops.Load()
	cell.OpsPerSec = float64(cell.Ops) / durFlag.Seconds()
	cell.P50Micros = pct(0.50)
	cell.P99Micros = pct(0.99)
	cell.MaxLogRecords = maxGauge["maint.log_records"]
	cell.EndLogRecords = m["maint.log_records"]
	cell.MaxDirtyPages = maxGauge["maint.dirty_pages"]
	cell.MaxDeadEntries = maxGauge["maint.dead_entries"]
	cell.EndDeadEntries = m["maint.dead_entries"]
	cell.LogBase = int64(db.WAL().Base())
	cell.Checkpoints = m["maint.checkpoints"]
	cell.Truncations = m["maint.truncations"]
	cell.TruncatedBytes = m["maint.truncated_bytes"]
	cell.FlushPages = m["maint.flush_pages"]
	cell.GCReclaimed = m["maint.gc_reclaimed"]
	captureSlowOps(db)
	return cell
}

// cancelCell is the cancel soak's measurement: a mixed read/write workload
// where half the operations carry a tight random deadline, run to a fixed
// duration and then audited. The experiment's claim is the tentpole's:
// cancellation lands only on safe points, so however many thousand
// statements die mid-flight, the tree stays structurally valid, no lock
// queue entry or buffer pin leaks, and the surviving entries are exactly
// the committed ones.
type cancelCell struct {
	Ops             int64   `json:"ops"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	StmtCancels     int64   `json:"stmt_cancels"`
	CommitCancels   int64   `json:"commit_cancels"`
	Committed       int64   `json:"committed"`
	Aborted         int64   `json:"aborted"`
	LockCancels     int64   `json:"lock_cancels"`
	LockWaitNanos   int64   `json:"lock_wait_nanos"`
	LoadWaitNanos   int64   `json:"load_wait_nanos"`
	QueueWaiters    int64   `json:"queue_waiters"`
	PinnedFrames    int64   `json:"pinned_frames"`
	PinnedBaseline  int64   `json:"pinned_baseline"`
	ActiveTxns      int64   `json:"active_txns"`
	LiveEntries     int64   `json:"live_entries"`
	ModelEntries    int64   `json:"model_entries"`
	CommitCoalesced int64   `json:"commit_coalesced"`
}

func expCancel() {
	// Small pool + simulated I/O latency: fetches actually wait, so tight
	// deadlines expire mid-traversal, not just at the first check.
	db, err := gistdb.Open(gistdb.Options{
		MaxEntries:      8,
		PoolPages:       128,
		IOLatency:       20 * time.Microsecond,
		SlowOpThreshold: soakSlowOpThreshold,
	})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("cancel", btree.Ops{})
	must(err)
	// Frames pinned by the open database itself (index anchor etc.) — the
	// leak assertion is against this baseline, not zero.
	baseline := db.Metrics()["buffer.pinned_frames"]

	cell := cancelCell{PinnedBaseline: baseline}
	type kv struct {
		key int64
		rid gistdb.RID
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops, stmtCancels, commitCancels, committed, aborted atomic.Int64
	model := make([]map[int64]gistdb.RID, 0)
	var modelMu sync.Mutex

	// sharedNext keys a hot band all workers insert into and scan under
	// RepeatableRead: the scanners' predicate locks are what inserters
	// block on (lock.ForTxn waits), giving the deadlines real lock queues
	// to cancel out of — not just fetch waits.
	var sharedNext atomic.Int64
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			next := seed * 10_000_000
			mine := map[int64]gistdb.RID{}
			var own []kv // committed inserts, for picking delete victims
			defer func() {
				modelMu.Lock()
				model = append(model, mine)
				modelMu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Half the operations carry a 0–500us deadline; the rest
				// run uncancellable as a control population.
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(2) == 0 {
					d := time.Duration(rng.Intn(500)) * time.Microsecond
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(d))
				}
				tx, err := db.Begin()
				if err != nil {
					cancel()
					return
				}
				// Deferred model mutation: applied only if this txn commits.
				var apply func()
				var stmtErr error
				var holdPredicates bool
				switch r := rng.Intn(10); {
				case r < 5: // insert: hot shared band or private keyspace
					var k int64
					if rng.Intn(3) == 0 {
						k = sharedNext.Add(1)
					} else {
						k = next
						next++
					}
					rid, err := idx.InsertCtx(ctx, tx, btree.EncodeKey(k), []byte("cancel-soak"))
					if err == nil {
						apply = func() {
							mine[k] = rid
							own = append(own, kv{k, rid})
						}
					}
					stmtErr = err
				case r < 7 && len(own) > 0: // delete one of our committed keys
					i := rng.Intn(len(own))
					p := own[i]
					err := idx.DeleteCtx(ctx, tx, btree.EncodeKey(p.key), p.rid)
					if err == nil {
						apply = func() {
							delete(mine, p.key)
							own = append(own[:i], own[i+1:]...)
						}
					}
					stmtErr = err
				default: // RepeatableRead scan of the hot band: its predicate
					// locks are held until commit, so inserters into the band
					// queue behind this txn — and their deadlines fire there.
					hi := sharedNext.Load() + 32
					lo := hi - 96
					if lo < 0 {
						lo = 0
					}
					_, err := idx.SearchCtx(ctx, tx, btree.EncodeRange(lo, hi), gistdb.RepeatableRead)
					holdPredicates = err == nil
					stmtErr = err
				}
				ops.Add(1)
				if stmtErr != nil {
					if isCancelErr(stmtErr) {
						stmtCancels.Add(1)
					}
					// Statement-level rollback already ran (CancelStatement
					// policy); the txn holds no effects worth keeping.
					tx.Abort()
					aborted.Add(1)
					cancel()
					continue
				}
				if holdPredicates {
					// Simulated think time with predicate locks held: the
					// window in which inserters block on this scanner.
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
				switch err := tx.CommitCtx(ctx); {
				case err == nil, err == gistdb.ErrCommitPending:
					committed.Add(1)
					if apply != nil {
						apply()
					}
				case isCancelErr(err):
					commitCancels.Add(1)
					tx.Abort()
					aborted.Add(1)
				default:
					tx.Abort()
					aborted.Add(1)
				}
				cancel()
			}
		}(int64(w + 1))
	}
	time.Sleep(*durFlag)
	close(stop)
	wg.Wait()

	// Pending group commits finish on a background goroutine; give the
	// txn table a moment to drain before auditing it.
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().ActiveTxns > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	m := db.Metrics()
	cell.Ops = ops.Load()
	cell.OpsPerSec = float64(cell.Ops) / durFlag.Seconds()
	cell.StmtCancels = stmtCancels.Load()
	cell.CommitCancels = commitCancels.Load()
	cell.Committed = committed.Load()
	cell.Aborted = aborted.Load()
	cell.LockCancels = m["lock.cancels"]
	cell.LockWaitNanos = m["lock.wait_nanos"]
	cell.LoadWaitNanos = m["buffer.load_wait_nanos"]
	cell.QueueWaiters = m["lock.queue_waiters"]
	cell.PinnedFrames = m["buffer.pinned_frames"]
	cell.ActiveTxns = int64(db.Stats().ActiveTxns)

	// The oracle: every structural invariant holds and the live entries are
	// exactly the union of the workers' committed models.
	rep, err := idx.Check()
	must(err)
	cell.LiveEntries = int64(len(rep.Live))
	want := map[int64]gistdb.RID{}
	for _, mdl := range model {
		for k, rid := range mdl {
			want[k] = rid
		}
	}
	cell.ModelEntries = int64(len(want))
	cell.CommitCoalesced = m["wal.commit_coalesced"]

	var bad []string
	if cell.StmtCancels+cell.CommitCancels == 0 {
		bad = append(bad, "no operation was ever cancelled (deadlines too loose?)")
	}
	if cell.QueueWaiters != 0 {
		bad = append(bad, fmt.Sprintf("lock.queue_waiters = %d after quiesce (orphan waiter)", cell.QueueWaiters))
	}
	if cell.PinnedFrames != cell.PinnedBaseline {
		bad = append(bad, fmt.Sprintf("buffer.pinned_frames = %d, want baseline %d (leaked pin)",
			cell.PinnedFrames, cell.PinnedBaseline))
	}
	if cell.ActiveTxns != 0 {
		bad = append(bad, fmt.Sprintf("%d transactions still active after quiesce", cell.ActiveTxns))
	}
	if cell.LiveEntries != cell.ModelEntries {
		bad = append(bad, fmt.Sprintf("live entries = %d, committed model = %d", cell.LiveEntries, cell.ModelEntries))
	} else {
		for k, rid := range want {
			key, ok := rep.Live[rid]
			if !ok || btree.DecodeKey(key) != k {
				bad = append(bad, fmt.Sprintf("committed key %d (rid %v) missing or wrong in tree", k, rid))
				break
			}
		}
	}

	if *jsonFlag {
		out, err := json.MarshalIndent(cell, "", "  ")
		must(err)
		fmt.Println(string(out))
	} else {
		fmt.Printf("%-24s %12d\n", "ops", cell.Ops)
		fmt.Printf("%-24s %12.0f\n", "ops/sec", cell.OpsPerSec)
		fmt.Printf("%-24s %12d\n", "statement cancels", cell.StmtCancels)
		fmt.Printf("%-24s %12d\n", "commit cancels", cell.CommitCancels)
		fmt.Printf("%-24s %12d\n", "committed txns", cell.Committed)
		fmt.Printf("%-24s %12d\n", "aborted txns", cell.Aborted)
		fmt.Printf("%-24s %12d\n", "lock.cancels", cell.LockCancels)
		fmt.Printf("%-24s %12.1f\n", "lock wait (ms)", float64(cell.LockWaitNanos)/1e6)
		fmt.Printf("%-24s %12.1f\n", "load wait (ms)", float64(cell.LoadWaitNanos)/1e6)
		fmt.Printf("%-24s %12d\n", "live entries", cell.LiveEntries)
		fmt.Printf("%-24s %12d\n", "wal.commit_coalesced", cell.CommitCoalesced)
	}
	if len(bad) > 0 {
		captureSlowOps(db)
		writeSlowOpsDump()
		fmt.Fprintf(os.Stderr, "gistbench: cancel soak FAILED: %s\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
	if !*jsonFlag {
		fmt.Println("RESULT: random cancellation left no orphan waiters, leaked pins, or structural damage")
	}
}

// isCancelErr reports whether err is a context cancellation or deadline.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// readscaleCell is one cell of the read-scaling soak (E19): th reader
// goroutines running range searches and cursor scans over a preloaded tree
// for -dur, against a light background inserter. The latch.* columns are
// deltas of the process-global latch registry measured around the cell.
type readscaleCell struct {
	Threads      int     `json:"threads"`
	Ops          int64   `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	OptReads     int64   `json:"opt_reads"`
	OptRestarts  int64   `json:"opt_restarts"`
	OptFallbacks int64   `json:"opt_fallbacks"`
	SAcquires    int64   `json:"s_acquires"`
	XAcquires    int64   `json:"x_acquires"`
}

func expReadscale() {
	cells := readscaleSoak()

	if *jsonFlag {
		out, err := json.MarshalIndent(map[string]any{"cells": cells}, "", "  ")
		must(err)
		fmt.Println(string(out))
	} else {
		fmt.Printf("%8s %10s %12s %12s %12s %12s %12s %12s\n",
			"threads", "ops", "ops/sec", "opt_reads", "restarts", "fallbacks", "s_acq", "x_acq")
		for _, c := range cells {
			fmt.Printf("%8d %10d %12.0f %12d %12d %12d %12d %12d\n",
				c.Threads, c.Ops, c.OpsPerSec,
				c.OptReads, c.OptRestarts, c.OptFallbacks, c.SAcquires, c.XAcquires)
		}
	}

	// Acceptance: every cell must actually exercise the latch-free node
	// views (opt_reads > 0), with the shared-latch fallback a rare event.
	var bad []string
	for _, c := range cells {
		if c.OptReads == 0 {
			bad = append(bad, fmt.Sprintf("cell threads=%d performed no optimistic reads", c.Threads))
		}
		if limit := max64(100, c.OptReads/20); c.OptFallbacks > limit {
			bad = append(bad, fmt.Sprintf(
				"cell threads=%d fell back %d times (opt_reads=%d, limit %d)",
				c.Threads, c.OptFallbacks, c.OptReads, limit))
		}
	}
	if len(bad) > 0 {
		writeSlowOpsDump()
		fmt.Fprintf(os.Stderr, "gistbench: readscale soak FAILED: %s\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
	if !*jsonFlag {
		fmt.Println("RESULT: latch-free node views carried the load with rare shared-latch fallbacks")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// readscaleSoak runs the cells across the -threads counts on a single
// preloaded database.
func readscaleSoak() []readscaleCell {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096, SlowOpThreshold: soakSlowOpThreshold})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("readscale", btree.Ops{})
	must(err)
	const keys = 10000
	for i := 0; i < keys; i++ {
		tx, err := db.Begin()
		must(err)
		_, err = idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("readscale"))
		must(err)
		must(tx.Commit())
	}

	var cells []readscaleCell
	for _, th := range parseThreads() {
		before := db.Metrics()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var ops atomic.Int64

		// Light background inserter into a disjoint keyspace: enough page
		// versions churn to exercise restarts and the fallback ladder
		// without perturbing the readers' expected result counts.
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := int64(10_000_000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.Begin()
				if err != nil {
					return
				}
				if _, err := idx.Insert(tx, btree.EncodeKey(next), []byte("churn")); err != nil {
					tx.Abort()
				} else {
					tx.Commit()
					next++
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		for r := 0; r < th; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					tx, err := db.Begin()
					if err != nil {
						return
					}
					if rng.Intn(5) < 4 { // batch range search, width 20
						lo := int64(rng.Intn(keys - 20))
						rs, err := idx.Search(tx, btree.EncodeRange(lo, lo+19), gistdb.ReadCommitted)
						if err != nil || len(rs) != 20 {
							captureSlowOps(db)
							writeSlowOpsDump()
							fmt.Fprintf(os.Stderr, "gistbench: readscale search: err=%v results=%d want 20\n", err, len(rs))
							os.Exit(1)
						}
					} else { // incremental cursor drain, width 100
						lo := int64(rng.Intn(keys - 100))
						c, err := idx.OpenCursor(tx, btree.EncodeRange(lo, lo+99), gistdb.ReadCommitted)
						must(err)
						n := 0
						for {
							_, ok, err := c.Next()
							must(err)
							if !ok {
								break
							}
							n++
						}
						c.Close()
						if n != 100 {
							captureSlowOps(db)
							writeSlowOpsDump()
							fmt.Fprintf(os.Stderr, "gistbench: readscale cursor drained %d entries, want 100\n", n)
							os.Exit(1)
						}
					}
					tx.Commit()
					ops.Add(1)
				}
			}(int64(th*100 + r + 1))
		}
		time.Sleep(*durFlag)
		close(stop)
		wg.Wait()

		m := db.Metrics()
		d := func(name string) int64 { return m[name] - before[name] }
		cells = append(cells, readscaleCell{
			Threads:      th,
			Ops:          ops.Load(),
			OpsPerSec:    float64(ops.Load()) / durFlag.Seconds(),
			OptReads:     d("latch.opt_reads"),
			OptRestarts:  d("latch.opt_restarts"),
			OptFallbacks: d("latch.opt_fallbacks"),
			SAcquires:    d("latch.s_acquires"),
			XAcquires:    d("latch.x_acquires"),
		})
		captureSlowOps(db)
	}
	return cells
}

// expCrashFuzz runs the randomized crash-point recovery harness over a
// range of seeds (or a single seed via -seed, for reproducing a failure).
// Each seed derives a full scenario — crash budget, optional mid-recovery
// second crash — deterministically, so a violation's repro line is just
// its seed number.
func expCrashFuzz() {
	base, err := os.MkdirTemp("", "crashfuzz-*")
	must(err)
	defer os.RemoveAll(base)

	calibDir := filepath.Join(base, "calib")
	must(os.MkdirAll(calibDir, 0o755))
	calib, err := crashfuzz.Calibrate(0, calibDir)
	must(err)

	var seeds []int64
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	} else {
		for s := int64(1); s <= *seedsFlag; s++ {
			seeds = append(seeds, s)
		}
	}
	fmt.Printf("calibrated workload: %d bytes; running %d seed(s)\n", calib, len(seeds))

	type outcome struct {
		res *crashfuzz.Result
		err error
	}
	results := make([]outcome, len(seeds))
	var next int64 = -1
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(seeds) {
					return
				}
				dir := filepath.Join(base, fmt.Sprintf("seed%d", seeds[i]))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					results[i] = outcome{nil, err}
					continue
				}
				res, rerr := crashfuzz.RunSeed(seeds[i], dir, calib)
				results[i] = outcome{res, rerr}
				os.RemoveAll(dir)
			}
		}()
	}
	wg.Wait()

	sites := map[string]int{}
	tails := map[string]int{}
	var second, restarts, violations int
	for i, o := range results {
		if o.err != nil {
			violations++
			fmt.Printf("\nVIOLATION seed %d: %v\n  repro: gistbench -exp crashfuzz -seed %d\n",
				seeds[i], o.err, seeds[i])
			continue
		}
		sites[o.res.CrashSite]++
		tails[o.res.TailType]++
		restarts += o.res.Restarts
		if o.res.SecondCrash {
			second++
		}
	}
	fmt.Printf("\ncrash sites:")
	for _, s := range []string{"wal", "walt", "pages", "dw", "explicit"} {
		fmt.Printf("  %s=%d", s, sites[s])
	}
	fmt.Printf("\nsurvivor-log tail types: %d distinct\n", len(tails))
	fmt.Printf("second crashes during recovery: %d\n", second)
	fmt.Printf("total restarts validated: %d\n", restarts)
	if violations > 0 {
		fmt.Printf("\n%d VIOLATION(S) — see repro lines above\n", violations)
		os.Exit(1)
	}
	fmt.Printf("all %d seeds recovered cleanly\n", len(seeds)-violations)
}

// expMetrics runs a small mixed workload and dumps the unified stats
// registry, cross-checking the legacy typed Stats view against the named
// counters so any divergence between the two read paths is visible.
func expMetrics() {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("metrics", btree.Ops{})
	must(err)

	for k := int64(1); k <= 200; k++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(k), []byte("v"))
		must(err)
		must(tx.Commit())
	}
	tx, _ := db.Begin()
	_, err = idx.Search(tx, btree.EncodeRange(1, 200), gistdb.RepeatableRead)
	must(err)
	must(tx.Commit())
	tx, _ = db.Begin()
	_, err = idx.Insert(tx, btree.EncodeKey(999), []byte("doomed"))
	must(err)
	must(tx.Abort())

	// Replica leg: stream a slice of the workload to a read replica so the
	// repl.apply_lag histogram and the applier's recovery.redo_drain see
	// real batches, then fold the replica-side keys into the snapshot.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go db.Shipper().ServeListener(ln)
	addr := ln.Addr().String()
	rep, err := gistdb.OpenReplica(gistdb.Options{}, func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", addr)
	})
	must(err)
	for k := int64(201); k <= 260; k++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(k), []byte("v"))
		must(err)
		must(tx.Commit())
	}
	must(quiesce(db, rep))

	m := db.Metrics()
	for name, v := range rep.Metrics() {
		if strings.HasPrefix(name, "repl.") || strings.HasPrefix(name, "recovery.") {
			m[name] = v
		}
	}
	must(rep.Close())
	if *jsonFlag {
		// Machine-readable path for CI trend tracking: just the merged
		// snapshot, keys sorted, nothing else on stdout.
		out, err := json.MarshalIndent(m, "", "  ")
		must(err)
		fmt.Println(string(out))
		return
	}
	fmt.Println("unified metrics snapshot (name = value):")
	for _, name := range stats.Names(m) {
		fmt.Printf("  %-28s %d\n", name, m[name])
	}

	s := db.Stats()
	check := func(name string, legacy int64) {
		status := "ok"
		if m[name] != legacy {
			status = fmt.Sprintf("MISMATCH (registry %d)", m[name])
		}
		fmt.Printf("  legacy %-22s %-8d %s\n", name, legacy, status)
	}
	fmt.Println("legacy Stats() cross-check:")
	check("txn.commits", s.Commits)
	check("txn.aborts", s.Aborts)
	check("lock.acquisitions", s.LockAcquisitions)
	check("lock.waits", s.LockWaits)
	check("lock.deadlocks", s.Deadlocks)
	check("predicate.checks", s.PredicateChecks)
	check("predicate.preds_examined", s.PredicatesExamined)
	check("buffer.hits", s.BufferHits)
	check("buffer.misses", s.BufferMisses)
	check("wal.appends", s.LogRecords)
	check("wal.syncs", s.LogFlushes)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gistbench:", err)
		os.Exit(1)
	}
}

// Slow-op evidence for failed soaks: each soak captures its database's
// flight-recorder rings before the instance goes away; a failed acceptance
// check then writes them to slowops.json, which CI uploads as an artifact.
var slowOpsDump []byte

func captureSlowOps(db *gistdb.DB) {
	out, err := json.MarshalIndent(map[string][]gistdb.OpTrace{
		"slow":   db.SlowOps(),
		"recent": db.RecentOps(),
	}, "", "  ")
	if err == nil {
		slowOpsDump = out
	}
}

func writeSlowOpsDump() {
	if slowOpsDump == nil {
		return
	}
	if err := os.WriteFile("slowops.json", slowOpsDump, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gistbench: slowops dump:", err)
	}
}

// soakSlowOpThreshold pins any soak operation slower than this into the
// recorder's slow ring.
const soakSlowOpThreshold = 20 * time.Millisecond

func parseThreads() []int {
	var out []int
	for _, s := range strings.Split(*threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		must(err)
		out = append(out, n)
	}
	return out
}

// expFigure2 reproduces Figures 1 and 2: a scan suspends at a leaf, the
// leaf splits underneath it, and the NSN protocol routes the resumed scan
// across the rightlink so nothing is lost.
func expFigure2() {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("fig2", btree.Ops{})
	must(err)

	for k := int64(100); k <= 105; k++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(k), []byte("x"))
		must(err)
		must(tx.Commit())
	}
	blocker, _ := db.Begin()
	_, err = idx.Insert(blocker, btree.EncodeKey(106), []byte("pending"))
	must(err)

	fmt.Println("scan of [100,110] starts; it blocks on the record lock of the uncommitted key 106")
	type scanOut struct {
		keys []int64
		err  error
	}
	done := make(chan scanOut, 1)
	go func() {
		tx, _ := db.Begin()
		rs, err := idx.Search(tx, btree.EncodeRange(100, 110), gistdb.RepeatableRead)
		tx.Commit()
		var ks []int64
		for _, r := range rs {
			ks = append(ks, btree.DecodeKey(r.Key))
		}
		done <- scanOut{keys: ks, err: err}
	}()
	time.Sleep(100 * time.Millisecond)

	before := idx.TreeStats()
	fmt.Println("while the scan sleeps, inserts of keys 1..6 split its leaf (in-range keys move right)")
	for k := int64(1); k <= 6; k++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(k), []byte("y"))
		must(err)
		must(tx.Commit())
	}
	must(blocker.Commit())
	out := <-done
	must(out.err)
	after := idx.TreeStats()

	fmt.Printf("scan resumed and returned %d keys: %v\n", len(out.keys), out.keys)
	fmt.Printf("splits while scan was blocked: %d; rightlink chases by the scan: %d\n",
		after.Splits-before.Splits, after.RightlinkChases-before.RightlinkChases)
	if len(out.keys) == 7 {
		fmt.Println("RESULT: no keys lost across the concurrent split (Figure 1's anomaly prevented; Figure 2's mechanism observed)")
	} else {
		fmt.Println("RESULT: FAILED — keys lost!")
	}
}

// expTable1 crashes immediately after the first durable occurrence of each
// Table 1 record type and verifies restart recovery, mirroring the
// TestTable1Matrix integration test but printing the paper's table rows.
func expTable1() {
	types := []wal.RecType{
		wal.RecParentEntryUpdate, wal.RecSplit, wal.RecGarbageCollection,
		wal.RecInternalEntryAdd, wal.RecInternalEntryUpdate, wal.RecInternalEntryDelete,
		wal.RecAddLeafEntry, wal.RecMarkLeafEntry, wal.RecGetPage, wal.RecFreePage,
		wal.RecRootChange,
	}
	fmt.Printf("%-24s %-10s %-12s %s\n", "log record (Table 1)", "crash-cut", "recovered", "post-recovery state")
	for _, typ := range types {
		ok, detail := table1Row(typ)
		status := "OK"
		if !ok {
			status = "FAILED"
		}
		fmt.Printf("%-24s %-10s %-12s %s\n", typ.String(), "after-1st", status, detail)
	}
}

func table1Row(typ wal.RecType) (bool, string) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 4})
	if err != nil {
		return false, err.Error()
	}
	idx, err := db.CreateIndex("t1", btree.Ops{})
	if err != nil {
		return false, err.Error()
	}
	var rids []gistdb.RID
	for i := 0; i < 40; i++ {
		tx, _ := db.Begin()
		rid, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("v"))
		if err != nil {
			return false, err.Error()
		}
		tx.Commit()
		rids = append(rids, rid)
	}
	tx, _ := db.Begin()
	for i := 0; i < 8; i++ {
		if err := idx.Delete(tx, btree.EncodeKey(int64(i)), rids[i]); err != nil {
			return false, err.Error()
		}
	}
	tx.Commit()
	gc, _ := db.Begin()
	if err := idx.GC(gc); err != nil {
		return false, err.Error()
	}
	gc.Commit()

	db2, committed, err := crashAfterFirst(db, typ)
	if err != nil {
		return false, err.Error()
	}
	idx2, err := db2.OpenIndex("t1", btree.Ops{})
	if err != nil {
		return false, "open: " + err.Error()
	}
	tx2, _ := db2.Begin()
	hits, err := idx2.Search(tx2, btree.EncodeRange(-100, 100000), gistdb.ReadCommitted)
	tx2.Commit()
	if err != nil {
		return false, "search: " + err.Error()
	}
	if len(hits) != committed {
		return false, fmt.Sprintf("%d keys, want %d", len(hits), committed)
	}
	if rep, err := idx2.Check(); err != nil {
		return false, "invariants: " + err.Error()
	} else if rep.Orphans != 0 {
		return false, "orphan nodes"
	}
	// Recovered engine accepts new work.
	tx3, _ := db2.Begin()
	if _, err := idx2.Insert(tx3, btree.EncodeKey(77777), []byte("post")); err != nil {
		return false, "post-insert: " + err.Error()
	}
	tx3.Commit()
	return true, fmt.Sprintf("%d committed keys intact, invariants hold, writable", committed)
}

// crashAfterFirst is implemented in harness.go: it truncates the log after
// the first occurrence of typ (past bootstrap) and restarts.

// expThroughput is E8: protocols x thread counts x workload mixes over a
// latency-bearing disk.
func expThroughput() {
	fmt.Printf("working set %d keys, I/O latency %v, pool %d pages, %v per cell\n",
		*keysFlag, *iolatFlag, *poolFlag, *durFlag)
	fmt.Printf("%-9s %-8s %-14s %12s %14s\n", "protocol", "threads", "mix", "ops/sec", "latched-I/Os")
	for _, mix := range []struct {
		name     string
		readFrac int // percent
	}{
		{"90r/10w", 90},
		{"50r/50w", 50},
	} {
		for _, proto := range []baseline.Protocol{baseline.Coarse, baseline.Coupling, baseline.Link} {
			for _, th := range parseThreads() {
				ops, latched := throughputCell(proto, th, mix.readFrac)
				fmt.Printf("%-9s %-8d %-14s %12.0f %14d\n", proto, th, mix.name, ops, latched)
			}
		}
	}
}

func throughputCell(proto baseline.Protocol, threads, readFrac int) (float64, int64) {
	disk := storage.NewSlowDisk(storage.NewMemDisk(), *iolatFlag)
	pool := buffer.New(disk, *poolFlag, nil)
	ix, err := baseline.New(pool, btree.Ops{}, proto, 64)
	must(err)
	n := *keysFlag
	for i := 0; i < n; i++ {
		must(ix.Insert(btree.EncodeKey(int64(i*2)), gistdb.RID{Page: 1, Slot: uint16(i % 60000)}))
	}
	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Intn(n * 2))
				if rng.Intn(100) < readFrac {
					if _, err := ix.Search(btree.EncodeRange(k, k+20)); err != nil {
						panic(err)
					}
				} else {
					if err := ix.Insert(btree.EncodeKey(k*2+1), gistdb.RID{Page: 2, Slot: uint16(k % 60000)}); err != nil {
						panic(err)
					}
				}
				ops.Add(1)
			}
		}(int64(t + 1))
	}
	time.Sleep(*durFlag)
	close(stop)
	wg.Wait()
	return float64(ops.Load()) / durFlag.Seconds(), ix.LatchedIOs.Load()
}

// expPredicates is E9: predicates examined per insert conflict check,
// hybrid node-attached vs tree-global, as live scanner count grows.
func expPredicates() {
	fmt.Printf("%-14s %18s %18s %8s\n", "live scanners", "hybrid preds/check", "global preds/check", "ratio")
	for _, scanners := range []int{1, 10, 100, 1000} {
		h, g := predicateCell(scanners)
		ratio := g / h
		fmt.Printf("%-14d %18.1f %18.1f %7.1fx\n", scanners, h, g, ratio)
	}
}

func predicateCell(scanners int) (hybrid, global float64) {
	// Build a predicate manager with `scanners` search predicates spread
	// over many leaves (as attached by real scans over disjoint ranges),
	// then measure both check disciplines for inserts on one leaf.
	pm := predicate.NewManager()
	leaves := 64
	for s := 0; s < scanners; s++ {
		lo := int64(s * 100)
		p := pm.New(gistdbTxn(s), predicate.Search, btree.EncodeRange(lo, lo+99))
		// Each scan touches root + one leaf (plus occasionally two).
		pm.Attach(p, 1, nil) // root
		pm.Attach(p, pageID(2+s%leaves), nil)
		if s%7 == 0 {
			pm.Attach(p, pageID(2+(s+1)%leaves), nil)
		}
	}
	ops := btree.Ops{}
	key := btree.EncodeKey(50)
	conflict := func(p *predicate.Predicate) bool { return ops.Consistent(key, p.Data) }

	const checks = 1000
	pm.ResetStats()
	for i := 0; i < checks; i++ {
		pm.Conflicting(pageID(2+i%leaves), 999999, conflict)
	}
	_, examined := pm.Stats()
	hybrid = float64(examined) / checks
	if hybrid == 0 {
		hybrid = 0.001 // avoid division artifacts in the ratio column
	}

	pm.ResetStats()
	for i := 0; i < checks; i++ {
		pm.ConflictingGlobal(999999, conflict)
	}
	_, examined = pm.Stats()
	global = float64(examined) / checks
	return hybrid, global
}

// expLatchIO is E10: I/Os performed while holding node latches, per
// protocol, with a pool far smaller than the tree.
func expLatchIO() {
	fmt.Printf("%-10s %14s %14s %10s\n", "protocol", "latched I/Os", "latchless I/Os", "share")
	for _, proto := range []baseline.Protocol{baseline.Coupling, baseline.Link} {
		pool := buffer.New(storage.NewMemDisk(), 16, nil)
		ix, err := baseline.New(pool, btree.Ops{}, proto, 16)
		must(err)
		for i := 0; i < 5000; i++ {
			must(ix.Insert(btree.EncodeKey(int64(i)), gistdb.RID{Page: 1, Slot: uint16(i % 60000)}))
		}
		for i := 0; i < 500; i++ {
			_, err := ix.Search(btree.EncodeRange(int64(i*7), int64(i*7+30)))
			must(err)
		}
		l, ll := ix.LatchedIOs.Load(), ix.LatchlessIOs.Load()
		share := float64(l) / float64(l+ll) * 100
		fmt.Printf("%-10s %14d %14d %9.1f%%\n", proto, l, ll, share)
	}
	fmt.Println("(the paper's protocol performs zero I/Os under latches; coupling cannot avoid them)")
}

// expNSN measures the §10.1 counter source: every traversal memorizes the
// tree-global counter, read from the log tail.
func expNSN() {
	fmt.Printf("%-28s %14s %14s %14s\n", "counter source", "inserts/sec", "searches/sec", "false chases")
	ins, srch, chases := nsnCell()
	fmt.Printf("%-28s %14.0f %14.0f %14d\n", "global counter (log tail)", ins, srch, chases)
}

func nsnCell() (insPerSec, searchPerSec float64, chases int64) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 64, PoolPages: 4096})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("nsn", btree.Ops{})
	must(err)

	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("v"))
		must(err)
		must(tx.Commit())
	}
	insPerSec = n / time.Since(start).Seconds()

	const q = 5000
	start = time.Now()
	for i := 0; i < q; i++ {
		tx, _ := db.Begin()
		_, err := idx.Search(tx, btree.EncodeRange(int64(i), int64(i+50)), gistdb.ReadCommitted)
		must(err)
		must(tx.Commit())
	}
	searchPerSec = q / time.Since(start).Seconds()
	return insPerSec, searchPerSec, idx.TreeStats().RightlinkChases
}

// expGC is E12: logical deletes leave marked entries; garbage collection
// reclaims them and unlinks emptied nodes.
func expGC() {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("gc", btree.Ops{})
	must(err)
	const n = 2000
	rids := make([]gistdb.RID, n)
	for i := 0; i < n; i++ {
		tx, _ := db.Begin()
		rid, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("v"))
		must(err)
		must(tx.Commit())
		rids[i] = rid
	}
	tx, _ := db.Begin()
	for i := 0; i < n/2; i++ {
		must(idx.Delete(tx, btree.EncodeKey(int64(i)), rids[i]))
	}
	must(tx.Commit())
	repBefore, err := idx.Check()
	must(err)

	gc, _ := db.Begin()
	must(idx.GC(gc))
	must(gc.Commit())
	repAfter, err := idx.Check()
	must(err)

	st := idx.TreeStats()
	fmt.Printf("%-22s %10s %10s\n", "", "before GC", "after GC")
	fmt.Printf("%-22s %10d %10d\n", "live entries", repBefore.Entries, repAfter.Entries)
	fmt.Printf("%-22s %10d %10d\n", "delete-marked entries", repBefore.Marked, repAfter.Marked)
	fmt.Printf("%-22s %10d %10d\n", "tree nodes", repBefore.Nodes, repAfter.Nodes)
	fmt.Printf("%-22s %10d %10d\n", "leaves", repBefore.Leaves, repAfter.Leaves)
	fmt.Printf("garbage collected %d entries in %d passes; %d nodes unlinked\n",
		st.GCEntries, st.GCRuns, st.NodeFrees)
}

// expIsolation quantifies the cost of Degree 3 isolation (§4.3): scans at
// RepeatableRead attach predicates to every visited node and hold record
// locks to end of transaction, while ReadCommitted scans do neither; writers
// into scanned ranges block on the predicates. The paper notes this
// non-gradual lock-range expansion as the hybrid scheme's retained drawback.
func expIsolation() {
	fmt.Printf("%-16s %14s %14s %16s\n", "isolation", "scans/sec", "inserts/sec", "pred. blocks")
	for _, iso := range []struct {
		name string
		lvl  gistdb.Isolation
	}{{"ReadCommitted", gistdb.ReadCommitted}, {"RepeatableRead", gistdb.RepeatableRead}} {
		scans, inserts, blocks := isolationCell(iso.lvl)
		fmt.Printf("%-16s %14.0f %14.0f %16d\n", iso.name, scans, inserts, blocks)
	}
}

func isolationCell(iso gistdb.Isolation) (scansPerSec, insertsPerSec float64, blocks int64) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 64, PoolPages: 4096})
	must(err)
	defer db.Close()
	idx, err := db.CreateIndex("iso", btree.Ops{})
	must(err)
	const n = 10000
	for i := 0; i < n; i++ {
		tx, _ := db.Begin()
		_, err := idx.Insert(tx, btree.EncodeKey(int64(i*2)), []byte("v"))
		must(err)
		must(tx.Commit())
	}
	var scanOps, insertOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// 4 scanners over random ranges.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := int64(rng.Intn(2 * n))
				tx, err := db.Begin()
				if err != nil {
					return
				}
				_, err = idx.Search(tx, btree.EncodeRange(lo, lo+100), iso)
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
				scanOps.Add(1)
			}
		}(int64(s + 1))
	}
	// 4 writers inserting odd keys (inside scanned ranges).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Intn(2*n))*2 + 1
				tx, err := db.Begin()
				if err != nil {
					return
				}
				if _, err := idx.Insert(tx, btree.EncodeKey(k), []byte("w")); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
				insertOps.Add(1)
			}
		}(int64(w + 1))
	}
	time.Sleep(*durFlag)
	close(stop)
	wg.Wait()
	secs := durFlag.Seconds()
	return float64(scanOps.Load()) / secs, float64(insertOps.Load()) / secs, idx.TreeStats().PredicateBlocks
}
