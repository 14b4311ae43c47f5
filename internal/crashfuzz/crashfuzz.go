// Package crashfuzz is a deterministic, seeded crash-point harness for the
// full recovery stack. One run builds a file-backed database (file WAL +
// its truncation journal + file page store with its double-write journal,
// all beneath one shared storage.CrashPoint), drives a mixed concurrent
// workload — inserts, deletes, splits, GC and node deletion, savepoints
// with partial rollback, deliberate aborts, and a mid-workload maintenance
// burst (fuzzy checkpoint plus crash-atomic log head truncation through the
// sidecar journal) — and kills the machine at an arbitrary byte offset of
// an arbitrary write: the admitted prefix of that write persists (a torn
// WAL frame, a torn page, or a torn truncation rewrite), everything after
// fails.
// The survivor files are reopened, ARIES restart runs (optionally torn by a
// second crash mid-recovery, then restarted again), and the result is
// validated three ways: structural invariants (internal/check), the
// committed-transaction oracle replayed from the survivor log
// (check.OracleFromLog — every committed entry present exactly once, every
// aborted or in-flight entry absent), and restart idempotence (one more
// restart must find zero losers and converge to the same state). The
// harness also cross-checks its own in-process model: every commit that was
// acknowledged before the crash must survive, every clean abort must not.
package crashfuzz

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/maintenance"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/shards"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

const (
	setupKeys     = 32 // committed before the crash point is armed
	workloadPool  = 48 // small pool: evictions write torn-page candidates
	recoveryPool  = 64
	maxEntries    = 4 // low fanout: plenty of splits and node deletions
	newWorkKeyLow = int64(1) << 45
)

// Config selects one crash scenario.
type Config struct {
	Seed int64
	Dir  string // working directory for wal.log, pages.db, pages.db.dw
	// Budget is the number of bytes (across WAL, page file and journal)
	// the workload may write after setup before the crossing write is
	// torn. Negative runs the workload to completion with no crash and
	// reports TotalBytes (calibration).
	Budget int64
	// RecoveryBudget, if positive, arms a second crash with this byte
	// budget during the first restart; the harness then restarts again
	// from whatever the torn recovery left behind.
	RecoveryBudget int64
	// AtTruncate runs one writer and counts Budget from the start of its
	// mid-workload head truncation instead of from the end of setup, so
	// the crash lands inside the truncation whatever the schedule.
	AtTruncate bool
}

// Result describes what one scenario did.
type Result struct {
	Seed           int64
	Budget         int64
	RecoveryBudget int64
	AtTruncate     bool
	TotalBytes     int64  // calibration only: post-setup bytes of a crash-free run
	TruncateBytes  int64  // bytes written while the mid-workload head truncation ran
	CrashSite      string // "wal", "walt", "pages", "dw", "explicit" (ran past the budget)
	TailType       string // type of the last record in the survivor log
	SecondCrash    bool   // the mid-recovery crash point actually fired
	Restarts       int
	Oracle         int // committed live entries per the survivor log
	Stats          *recovery.Stats
	PromoteLosers  int   // promote mode: loser transactions undone at failover
	LostSuffix     int64 // promote mode: durable primary LSNs the replica never applied
}

// Repro is the command line that replays this scenario.
func (r *Result) Repro() string {
	if r.AtTruncate {
		return fmt.Sprintf("go test ./internal/crashfuzz -run TestCrashFuzz/seeds/truncation (seed %d, budget %d from the truncation's start)",
			r.Seed, r.Budget)
	}
	return fmt.Sprintf("gistbench -exp crashfuzz -seed %d (budget %d, recovery budget %d)",
		r.Seed, r.Budget, r.RecoveryBudget)
}

// machine is one incarnation of the database: everything volatile is lost
// when it is abandoned; only its three files survive into the next one.
type machine struct {
	cp    *storage.CrashPoint
	log   *wal.Log
	disk  *storage.FileDisk
	pool  *buffer.Pool
	locks *lock.Manager
	preds *predicate.Manager
	tm    *txn.Manager
	heap  *heap.File
	tree  *gist.Tree
	maint *maintenance.Manager
}

func openMachine(dir string, cp *storage.CrashPoint, poolPages int) (*machine, error) {
	lf, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	tf, err := os.OpenFile(filepath.Join(dir, "wal.log"+wal.TruncSuffix), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		lf.Close()
		return nil, err
	}
	l, err := wal.OpenFileLogHandles(
		storage.NewCrashFile(lf, cp, "wal"),
		storage.NewCrashFile(tf, cp, "walt"))
	if err != nil {
		lf.Close()
		tf.Close()
		return nil, fmt.Errorf("crashfuzz: reopen wal: %w", err)
	}
	df, err := os.OpenFile(filepath.Join(dir, "pages.db"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		l.Close()
		return nil, err
	}
	wf, err := os.OpenFile(filepath.Join(dir, "pages.db.dw"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		l.Close()
		df.Close()
		return nil, err
	}
	disk, err := storage.OpenFileDiskFiles(
		storage.NewCrashFile(df, cp, "pages"),
		storage.NewCrashFile(wf, cp, "dw"))
	if err != nil {
		l.Close()
		df.Close()
		wf.Close()
		return nil, fmt.Errorf("crashfuzz: reopen disk: %w", err)
	}
	m := &machine{
		cp:    cp,
		log:   l,
		disk:  disk,
		locks: lock.NewManager(),
		preds: predicate.NewManager(),
	}
	m.pool = buffer.New(disk, poolPages, l)
	m.tm = txn.NewManager(l, m.locks, m.preds)
	m.heap = heap.New(m.pool)
	m.heap.RegisterUndo(m.tm)
	return m, nil
}

// abandon drops a (possibly crashed) machine: volatile state is discarded,
// file handles are closed. Close errors are part of the crash and ignored.
func (m *machine) abandon() {
	m.log.Close()
	m.disk.Close()
}

// txnFinished tells the heap, the one component holding per-transaction
// state, that the transaction is complete.
func (m *machine) txnFinished(id page.TxnID) {
	m.heap.TxnFinished(id)
}

func (m *machine) recover(anchor page.PageID, cfg gist.Config) (*recovery.Stats, error) {
	// Restart runs with the full parallel fan-out so every fuzzed crash
	// exercises the multi-worker redo drain and concurrent loser undo.
	rec := &recovery.Recovery{
		Log: m.log, Pool: m.pool, Disk: m.disk, TM: m.tm,
		Workers: shards.Workers(),
	}
	return rec.Run(func() error {
		t, err := gist.Open(m.pool, m.tm, cfg, anchor)
		if err != nil {
			return err
		}
		m.tree = t
		return nil
	})
}

type pair struct {
	key int64
	rid page.RID
}

// model is the harness's in-process view of acknowledged outcomes: live
// holds inserts whose commit was acknowledged (minus acknowledged committed
// deletes); gone holds (key, rid) pairs proven dead before the crash —
// committed deletes and cleanly aborted inserts. maybe holds keys touched by
// a transaction whose Commit call failed: the commit record may still have
// become durable (a group-commit batch can flush it before the crash error
// surfaces), so recovery legitimately decides either way and the model
// asserts nothing about them.
type model struct {
	mu    sync.Mutex
	live  map[int64]page.RID
	gone  []pair
	maybe map[int64]bool
}

// Run executes one full crash cycle and returns its result; a non-nil
// error is an invariant, oracle, or model violation (or a harness failure).
func Run(cfg Config) (*Result, error) {
	res := &Result{Seed: cfg.Seed, Budget: cfg.Budget, RecoveryBudget: cfg.RecoveryBudget, AtTruncate: cfg.AtTruncate}
	// The fuzz workload's concurrent searches run the version-validated
	// node visits against splits, GC, and crash-restart cycles.
	tcfg := gist.Config{MaxEntries: maxEntries, Ops: btree.Ops{}}

	cp := storage.NewCrashPoint()
	m, err := openMachine(cfg.Dir, cp, workloadPool)
	if err != nil {
		return res, err
	}
	tree, err := gist.Create(m.pool, m.tm, tcfg)
	if err != nil {
		return res, err
	}
	m.tree = tree
	anchor := tree.Anchor()
	// Manual maintenance manager: writer 0 drives its ticks mid-workload so
	// the crash point can land inside the checkpoint, the flush storm, the
	// GC burst, or the crash-atomic head truncation itself. Aggressive
	// thresholds so a short workload actually exercises every path.
	m.maint = maintenance.New(maintenance.Deps{
		Log:   m.log,
		TM:    m.tm,
		Pool:  m.pool,
		Disk:  m.disk,
		Trees: func() []*gist.Tree { return []*gist.Tree{m.tree} },
	}, maintenance.Options{
		Manual:          true,
		FlushBatch:      8,
		GCDeadThreshold: 1,
		GCBurstLeaves:   4,
	})

	mdl := &model{live: make(map[int64]page.RID), maybe: make(map[int64]bool)}
	if err := setup(m, mdl); err != nil {
		return res, fmt.Errorf("crashfuzz setup: %w", err)
	}
	// The setup checkpoint truncated the log head, so the survivor log
	// alone cannot prove the baseline committed; snapshot it for the
	// oracle. Nothing but setup has run, so the model is exact here.
	baseline := make(map[page.RID][]byte, len(mdl.live))
	for k, rid := range mdl.live {
		baseline[rid] = btree.EncodeKey(k)
	}
	setupBytes := cp.BytesWritten()

	rng := rand.New(rand.NewSource(cfg.Seed))
	writers := 1 + rng.Intn(4)
	opsPerWriter := 16 + rng.Intn(12)
	if cfg.AtTruncate {
		writers = 1
	} else if cfg.Budget >= 0 {
		cp.Arm(cfg.Budget)
	}
	// truncate is writer 0's mid-workload head cut.
	truncate := func(bound page.LSN) error {
		if cfg.AtTruncate && cfg.Budget >= 0 {
			cp.Arm(cfg.Budget)
		}
		before := cp.BytesWritten()
		_, err := m.maint.TruncateTo(bound)
		res.TruncateBytes = cp.BytesWritten() - before
		return err
	}

	var bugMu sync.Mutex
	var bugs []string
	bug := func(format string, a ...any) {
		bugMu.Lock()
		bugs = append(bugs, fmt.Sprintf(format, a...))
		bugMu.Unlock()
	}
	firstBug := func() error {
		bugMu.Lock()
		defer bugMu.Unlock()
		if len(bugs) == 0 {
			return nil
		}
		return fmt.Errorf("%s [%s]", bugs[0], res.Repro())
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			runWriter(m, mdl, cp, cfg.Seed, gid, writers, opsPerWriter, baseline, truncate, bug)
		}(g)
	}
	wg.Wait()

	if cfg.Budget < 0 {
		// Calibration: clean shutdown, report how many bytes the
		// workload writes so budgets can be drawn across that range.
		if err := m.pool.FlushAll(); err != nil {
			return res, err
		}
		res.TotalBytes = cp.BytesWritten() - setupBytes
		m.abandon()
		return res, firstBug()
	}

	// If the workload finished under budget, the crash lands at the very
	// end instead: nothing else may touch the files from here.
	if !cp.Crashed() {
		cp.CrashNow()
	}
	res.CrashSite = cp.Site()
	m.abandon()
	if err := firstBug(); err != nil {
		return res, err
	}

	// Restart 1, optionally torn mid-recovery by a second crash point.
	cp2 := storage.NewCrashPoint()
	m2, err := openMachine(cfg.Dir, cp2, recoveryPool)
	if err != nil {
		return res, fmt.Errorf("%v [%s]", err, res.Repro())
	}
	if last, err := m2.log.Get(m2.log.LastLSN()); err == nil {
		res.TailType = last.Type.String()
	}
	if cfg.RecoveryBudget > 0 {
		cp2.Arm(cfg.RecoveryBudget)
	}
	st, rerr := m2.recover(anchor, tcfg)
	res.Restarts++
	res.SecondCrash = cp2.Crashed()
	final := m2
	switch {
	case cfg.RecoveryBudget > 0:
		if rerr != nil && !cp2.Crashed() {
			trace := pageTrace(m2.log, rerr)
			if m := regexp.MustCompile(`pg=(\d+)`).FindStringSubmatch(rerr.Error()); m != nil {
				pg, _ := strconv.Atoi(m[1])
				trace += pageImage(m2, page.PageID(pg))
			}
			m2.abandon()
			return res, fmt.Errorf("restart failed without its crash point firing: %v [%s]%s", rerr, res.Repro(), trace)
		}
		// Whether or not the second crash fired, restart once more on
		// an unarmed machine; CLR-protected undo and idempotent redo
		// must converge.
		m2.abandon()
		m3, err := openMachine(cfg.Dir, storage.NewCrashPoint(), recoveryPool)
		if err != nil {
			return res, fmt.Errorf("%v [%s]", err, res.Repro())
		}
		st, rerr = m3.recover(anchor, tcfg)
		res.Restarts++
		if rerr != nil {
			m3.abandon()
			return res, fmt.Errorf("restart after mid-recovery crash failed: %v [%s]", rerr, res.Repro())
		}
		final = m3
	case rerr != nil:
		trace := pageTrace(m2.log, rerr)
		if m := regexp.MustCompile(`pg=(\d+)`).FindStringSubmatch(rerr.Error()); m != nil {
			pg, _ := strconv.Atoi(m[1])
			trace += pageImage(m2, page.PageID(pg))
		}
		m2.abandon()
		return res, fmt.Errorf("restart failed: %v [%s]%s", rerr, res.Repro(), trace)
	}
	res.Stats = st

	if err := validate(final, mdl, baseline, tcfg, anchor, res); err != nil {
		trace := violationTrace(final.log, err)
		if m := regexp.MustCompile(`node (\d+)`).FindStringSubmatch(err.Error()); m != nil {
			pg, _ := strconv.Atoi(m[1])
			trace += pageImage(final, page.PageID(pg))
		}
		final.abandon()
		return res, fmt.Errorf("after restart: %v [%s]%s", err, res.Repro(), trace)
	}

	// Idempotence: restart once more from the recovered (and flushed)
	// state. It must find zero losers and reach the identical oracle.
	final.abandon()
	m4, err := openMachine(cfg.Dir, storage.NewCrashPoint(), recoveryPool)
	if err != nil {
		return res, fmt.Errorf("%v [%s]", err, res.Repro())
	}
	st4, err := m4.recover(anchor, tcfg)
	res.Restarts++
	if err != nil {
		m4.abandon()
		return res, fmt.Errorf("idempotence restart failed: %v [%s]", err, res.Repro())
	}
	if st4.Losers != 0 {
		m4.abandon()
		return res, fmt.Errorf("idempotence restart found %d losers, want 0 [%s]", st4.Losers, res.Repro())
	}
	if err := validate(m4, mdl, baseline, tcfg, anchor, res); err != nil {
		trace := violationTrace(m4.log, err)
		m4.abandon()
		return res, fmt.Errorf("after idempotence restart: %v [%s]%s", err, res.Repro(), trace)
	}

	// The recovered engine accepts new work, durably.
	if err := newWork(m4, cfg.Seed); err != nil {
		m4.abandon()
		return res, fmt.Errorf("new work after recovery: %v [%s]", err, res.Repro())
	}
	if err := m4.pool.FlushAll(); err != nil {
		return res, err
	}
	if err := m4.log.Close(); err != nil {
		return res, err
	}
	if err := m4.disk.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// setup commits the pre-crash baseline and checkpoints it: the checkpoint's
// DiscardBefore truncates the log head, so every scenario also recovers
// from a truncated log whose checkpointed DPT may reference recLSNs at or
// below the cut (the RedoLSN clamp path). Everything here is durable before
// the crash point is armed.
func setup(m *machine, mdl *model) error {
	for i := 0; i < setupKeys; i += 4 {
		tx, err := m.tm.Begin()
		if err != nil {
			return err
		}
		for j := i; j < i+4; j++ {
			rid, err := insertKV(m, tx, int64(j))
			if err != nil {
				return err
			}
			mdl.live[int64(j)] = rid
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		m.txnFinished(tx.ID())
	}
	if _, err := recovery.Checkpoint(m.tm, m.pool, m.disk); err != nil {
		return err
	}
	if m.log.Base() == 0 {
		return errors.New("setup checkpoint did not truncate the log head")
	}
	return m.disk.Sync()
}

func insertKV(m *machine, tx *txn.Txn, k int64) (page.RID, error) {
	return insertKVCtx(nil, m, tx, k)
}

func insertKVCtx(ctx context.Context, m *machine, tx *txn.Txn, k int64) (page.RID, error) {
	rid, err := m.heap.InsertCtx(ctx, tx, []byte(fmt.Sprintf("rec-%d", k)))
	if err != nil {
		return page.RID{}, err
	}
	if err := m.tree.InsertCtx(ctx, tx, btree.EncodeKey(k), rid); err != nil {
		return page.RID{}, err
	}
	return rid, nil
}

// runWriter is one concurrent committer: a seeded op stream of inserts,
// deletes of its own keys, savepoint dances, searches, deliberate aborts,
// GC passes, and (writer 0) a mid-workload maintenance burst — write-behind
// flush, fuzzy checkpoint, crash-atomic log head truncation, and a paced GC
// tick, all through the maintenance manager's manual hooks. Failures after
// the crash point fires are expected; failures before it are reported as
// bugs. Locks of transactions that cannot finish cleanly are force-released
// so peers never hang on a zombie.
func runWriter(m *machine, mdl *model, cp *storage.CrashPoint, seed int64, gid, writers, ops int, baseline map[page.RID][]byte, truncate func(page.LSN) error, bug func(string, ...any)) {
	wrng := rand.New(rand.NewSource(seed*1315423911 + int64(gid+1)))
	nextKey := int64(gid+1) * 1_000_000

	benign := func(err error) bool {
		return cp.Crashed() ||
			errors.Is(err, lock.ErrDeadlock) ||
			errors.Is(err, storage.ErrCrashed) ||
			errors.Is(err, wal.ErrLogFailed) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}
	// opCtx rains statement cancellation over the workload: roughly a
	// quarter of ops run under a context with a random, frequently
	// already-expired deadline, so cancellations land on every safe point —
	// lock waits, frame waits, node-visit boundaries. A cancelled statement
	// goes through the ordinary fail path (abort + logical undo), which the
	// post-crash oracle then holds to the same standard as any other abort.
	opCtx := func() (context.Context, context.CancelFunc) {
		if wrng.Intn(4) != 0 {
			return nil, func() {}
		}
		d := time.Duration(wrng.Intn(400)) * time.Microsecond
		return context.WithDeadline(context.Background(), time.Now().Add(d))
	}
	forceRelease := func(tx *txn.Txn) {
		m.locks.ReleaseAll(tx.ID())
		m.preds.ReleaseTxn(tx.ID())
	}
	// fail abandons a transaction after an op error: abort if possible,
	// force-release if not, and classify the original error.
	fail := func(tx *txn.Txn, err error) {
		if aerr := tx.Abort(); aerr != nil {
			forceRelease(tx)
		}
		m.txnFinished(tx.ID())
		if !benign(err) {
			bug("writer %d: %v", gid, err)
		}
	}

	// This writer's share of the committed baseline is its delete fodder.
	var mine []pair
	mdl.mu.Lock()
	for k, rid := range mdl.live {
		if k < setupKeys && int(k)%writers == gid {
			mine = append(mine, pair{k, rid})
		}
	}
	mdl.mu.Unlock()
	sort.Slice(mine, func(i, j int) bool { return mine[i].key < mine[j].key })

	for i := 0; i < ops; i++ {
		if cp.Crashed() {
			return
		}
		if gid == 0 && i == ops/2 {
			// Mid-workload maintenance burst through the manual tick
			// hooks: trickle-flush the oldest dirty frames, force a fuzzy
			// checkpoint, and advance the log head through the
			// crash-atomic truncation protocol (intent record + sidecar
			// journal, crash site "walt") — the crash point stays armed
			// throughout, so any byte of the rewrite can tear. The
			// records about to be discarded are folded into the oracle
			// baseline first; FoldBaseline is idempotent against the cut
			// not becoming durable.
			if _, err := m.maint.TickFlush(); err != nil && !benign(err) {
				bug("writer 0 maintenance flush: %v", err)
			}
			if _, err := m.maint.TickCheckpoint(true); err != nil {
				if !benign(err) {
					bug("writer 0 maintenance checkpoint: %v", err)
				}
			} else if bound := m.maint.TruncationBound(); bound > m.log.Base()+1 {
				check.FoldBaseline(m.log, baseline, bound)
				if err := truncate(bound); err != nil && !benign(err) {
					bug("writer 0 maintenance truncate: %v", err)
				}
			}
			if _, err := m.maint.TickGC(); err != nil && !benign(err) {
				bug("writer 0 maintenance gc: %v", err)
			}
		}

		kind := wrng.Intn(10)
		tx, err := m.tm.Begin()
		if err != nil {
			if !benign(err) {
				bug("writer %d begin: %v", gid, err)
			}
			return
		}
		var added []pair
		var deleted *pair
		ok := true
		switch {
		case kind == 5 && len(mine) > 0: // delete one of my committed keys
			idx := wrng.Intn(len(mine))
			p := mine[idx]
			ctx, cancel := opCtx()
			err := m.tree.DeleteCtx(ctx, tx, btree.EncodeKey(p.key), p.rid)
			cancel()
			if err != nil {
				ok = false
				fail(tx, err)
			} else {
				deleted = &p
				mine = append(mine[:idx], mine[idx+1:]...)
			}
		case kind == 6: // savepoint with partial rollback: k2 must vanish
			k1, k2 := nextKey, nextKey+1
			nextKey += 2
			rid1, err := insertKV(m, tx, k1)
			if err == nil {
				if _, err = tx.Savepoint("sp"); err == nil {
					if _, ierr := insertKV(m, tx, k2); ierr != nil {
						err = ierr
					} else {
						err = tx.RollbackTo("sp")
					}
				}
			}
			if err != nil {
				ok = false
				fail(tx, err)
			} else {
				added = append(added, pair{k1, rid1})
			}
		case kind == 7: // read-committed search
			ctx, cancel := opCtx()
			_, err := m.tree.SearchCtx(ctx, tx, btree.EncodeRange(0, 1<<41), gist.ReadCommitted)
			cancel()
			if err != nil {
				ok = false
				fail(tx, err)
			}
		case kind == 8: // deliberate abort: the key must stay dead
			k := nextKey
			nextKey++
			rid, err := insertKV(m, tx, k)
			if err != nil {
				ok = false
				fail(tx, err)
			} else {
				aerr := tx.Abort()
				if aerr != nil {
					forceRelease(tx)
				}
				m.txnFinished(tx.ID())
				if aerr == nil {
					mdl.mu.Lock()
					mdl.gone = append(mdl.gone, pair{k, rid})
					mdl.mu.Unlock()
				} else if !benign(aerr) {
					bug("writer %d abort: %v", gid, aerr)
				}
			}
			continue
		case kind == 9: // garbage collection incl. node deletion
			if err := m.tree.GCAll(tx); err != nil {
				ok = false
				fail(tx, err)
			}
		default: // insert 1..3 fresh keys
			n := 1 + wrng.Intn(3)
			for j := 0; j < n && ok; j++ {
				k := nextKey
				nextKey++
				ctx, cancel := opCtx()
				rid, err := insertKVCtx(ctx, m, tx, k)
				cancel()
				if err != nil {
					ok = false
					fail(tx, err)
				} else {
					added = append(added, pair{k, rid})
				}
			}
		}
		if !ok {
			continue
		}
		if err := tx.Commit(); err != nil {
			// A failed commit leaves the transaction in state Committed
			// with its locks held and its fate (the commit record's
			// durability) unknown — recovery decides. Free the locks so
			// peers don't hang on a zombie, and mark every key the
			// transaction touched indeterminate.
			forceRelease(tx)
			m.txnFinished(tx.ID())
			mdl.mu.Lock()
			for _, p := range added {
				mdl.maybe[p.key] = true
			}
			if deleted != nil {
				mdl.maybe[deleted.key] = true
			}
			mdl.mu.Unlock()
			if !benign(err) {
				bug("writer %d commit: %v", gid, err)
			}
			continue
		}
		m.txnFinished(tx.ID())
		mdl.mu.Lock()
		for _, p := range added {
			mdl.live[p.key] = p.rid
			delete(mdl.maybe, p.key)
		}
		if deleted != nil {
			delete(mdl.live, deleted.key)
			delete(mdl.maybe, deleted.key)
			mdl.gone = append(mdl.gone, *deleted)
		}
		mdl.mu.Unlock()
		mine = append(mine, added...)
	}
}

// validate checks a recovered machine from four angles: structural
// invariants, exact agreement between the live tree and the log oracle,
// the in-process model of acknowledged outcomes, and access-path/heap
// agreement for every surviving entry.
func validate(m *machine, mdl *model, baseline map[page.RID][]byte, tcfg gist.Config, anchor page.PageID, res *Result) error {
	oracle := check.OracleFromLog(m.log, baseline)
	res.Oracle = len(oracle)

	chk := &check.Checker{Pool: m.pool, Ops: tcfg.Ops, Anchor: anchor, MaxNSN: m.log.LastLSN()}
	rep, err := chk.Check()
	if err != nil {
		return err
	}
	if rep.Orphans != 0 {
		return fmt.Errorf("%d orphan nodes", rep.Orphans)
	}
	if err := check.VerifyOracle(rep, oracle); err != nil {
		return err
	}

	mdl.mu.Lock()
	defer mdl.mu.Unlock()
	for k, rid := range mdl.live {
		if mdl.maybe[k] {
			continue // an unacknowledged commit raced the crash on this key
		}
		pred, ok := oracle[rid]
		if !ok || btree.DecodeKey(pred) != k {
			return fmt.Errorf("acknowledged commit of key %d (%v) lost", k, rid)
		}
	}
	for _, p := range mdl.gone {
		if mdl.maybe[p.key] {
			continue
		}
		if pred, ok := oracle[p.rid]; ok && btree.DecodeKey(pred) == p.key {
			return fmt.Errorf("dead key %d (%v) resurrected", p.key, p.rid)
		}
	}

	// Access path agreement: a full scan through the tree must surface
	// exactly the oracle's entries, each with a readable heap record.
	tx, err := m.tm.Begin()
	if err != nil {
		return err
	}
	defer func() {
		tx.Commit()
		m.txnFinished(tx.ID())
	}()
	rs, err := m.tree.Search(tx, btree.EncodeRange(0, 1<<46), gist.ReadCommitted)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if len(rs) != len(oracle) {
		return fmt.Errorf("search found %d entries, oracle has %d", len(rs), len(oracle))
	}
	for _, r := range rs {
		pred, ok := oracle[r.RID]
		if !ok || btree.DecodeKey(pred) != btree.DecodeKey(r.Key) {
			return fmt.Errorf("search surfaced %v/%d not in oracle", r.RID, btree.DecodeKey(r.Key))
		}
		rec, err := m.heap.Read(r.RID)
		if err != nil {
			return fmt.Errorf("heap record %v: %w", r.RID, err)
		}
		if want := fmt.Sprintf("rec-%d", btree.DecodeKey(r.Key)); string(rec) != want {
			return fmt.Errorf("heap record %v = %q, want %q", r.RID, rec, want)
		}
	}
	return nil
}

// pageTrace is a temporary diagnostic: given a violation error naming a
// page ("pg=N", "node N", or a RID "(p,s)"), dump every log record that
// touches the page — directly, via its RID, or via a body entry whose
// child pointer is the page (a parent installing/widening its downlink).
func pageTrace(l *wal.Log, verr error) string {
	var pg int
	if m := regexp.MustCompile(`node (\d+)`).FindStringSubmatch(verr.Error()); m != nil {
		pg, _ = strconv.Atoi(m[1])
	} else if m := regexp.MustCompile(`pg=(\d+)`).FindStringSubmatch(verr.Error()); m != nil {
		pg, _ = strconv.Atoi(m[1])
	} else if m := regexp.MustCompile(`\((\d+),(\d+)\)`).FindStringSubmatch(verr.Error()); m != nil {
		pg, _ = strconv.Atoi(m[1])
	} else {
		return ""
	}
	id := page.PageID(pg)
	committed := committedTxns(l)
	childOf := func(b []byte) page.PageID {
		if e, err := page.DecodeEntry(b, false); err == nil {
			return e.Child
		}
		return page.InvalidPage
	}
	out := fmt.Sprintf("\nTRACE for page %d (base=%d last=%d):", pg, l.Base(), l.LastLSN())
	l.Scan(1, func(r *wal.Record) bool {
		hit := r.Pg == id || r.Pg2 == id || r.RID.Page == id ||
			childOf(r.Body) == id || childOf(r.OldBody) == id
		if hit {
			out += recordLine(r, committed)
		}
		return true
	})
	return out
}

// violationTrace is the evidence a validation failure ships with: the
// oracle's trace for an oracle violation, the page trace otherwise.
func violationTrace(l *wal.Log, verr error) string {
	if strings.HasPrefix(verr.Error(), "oracle:") {
		return oracleTrace(l, verr)
	}
	return pageTrace(l, verr)
}

// oracleTrace dumps the log behind an oracle violation: every record of
// the transactions that wrote the violating entries (the RIDs "(p,s)" the
// error names), and every record that names a page those entries were
// logged on or moved to, so a rollback's CLRs and the splits and GC passes
// between them show in order.
func oracleTrace(l *wal.Log, verr error) string {
	rids := map[page.RID]bool{}
	for _, m := range regexp.MustCompile(`\((\d+),(\d+)\)`).FindAllStringSubmatch(verr.Error(), -1) {
		pg, _ := strconv.Atoi(m[1])
		slot, _ := strconv.Atoi(m[2])
		rids[page.RID{Page: page.PageID(pg), Slot: uint16(slot)}] = true
	}
	if len(rids) == 0 {
		return ""
	}
	names := func(b []byte) bool {
		e, err := page.DecodeEntry(b, true)
		return err == nil && rids[e.RID]
	}
	txns, pages := map[page.TxnID]bool{}, map[page.PageID]bool{}
	l.Scan(1, func(r *wal.Record) bool {
		switch r.Type.Base() {
		case wal.RecAddLeafEntry, wal.RecMarkLeafEntry:
			if names(r.Body) {
				txns[r.Txn], pages[r.Pg] = true, true
			}
		case wal.RecSplit, wal.RecGarbageCollection:
			if slices.ContainsFunc(r.Moved, names) {
				pages[r.Pg] = true
				if r.Pg2 != page.InvalidPage {
					pages[r.Pg2] = true
				}
			}
		}
		return true
	})
	committed := committedTxns(l)
	out := fmt.Sprintf("\nORACLE TRACE for txns %v on pages %v (base=%d last=%d):",
		sortedKeys(txns), sortedKeys(pages), l.Base(), l.LastLSN())
	l.Scan(1, func(r *wal.Record) bool {
		if txns[r.Txn] || pages[r.Pg] || pages[r.Pg2] {
			out += recordLine(r, committed)
		}
		return true
	})
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered](m map[K]bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// committedTxns returns the transactions with a Commit record in l.
func committedTxns(l *wal.Log) map[page.TxnID]bool {
	committed := map[page.TxnID]bool{}
	l.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
		return true
	})
	return committed
}

// recordLine formats one log record for a trace, decoding entry bodies.
func recordLine(r *wal.Record, committed map[page.TxnID]bool) string {
	return fmt.Sprintf("\n  lsn=%d txn=%d(c=%v) %v pg=%d pg2=%d rid=%v prev=%d undoNext=%d%s%s",
		r.LSN, r.Txn, committed[r.Txn], r.Type, r.Pg, r.Pg2, r.RID, r.PrevLSN, r.UndoNext,
		decodeBody(r.Body), decodeBody(r.OldBody))
}

// decodeBody renders a record body. A heap record body can parse as an
// entry too; only a btree predicate's length (a key or a range) is decoded
// as one.
func decodeBody(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if e, err := page.DecodeEntry(b, true); err == nil && isBtreePred(e.Pred) {
		lo, hi := btreeBounds(e.Pred)
		return fmt.Sprintf(" leaf[%d,%d rid=%v del=%v]", lo, hi, e.RID, e.Deleted)
	}
	if e, err := page.DecodeEntry(b, false); err == nil && isBtreePred(e.Pred) {
		lo, hi := btreeBounds(e.Pred)
		return fmt.Sprintf(" int[%d,%d child=%d]", lo, hi, e.Child)
	}
	return fmt.Sprintf(" body(%d bytes)", len(b))
}

// isBtreePred reports whether b has the length of a btree key or range.
func isBtreePred(b []byte) bool { return len(b) == 8 || len(b) == 16 }

// btreeBounds decodes a btree key (8 bytes) or range (16 bytes).
func btreeBounds(b []byte) (lo, hi int64) {
	if len(b) == 8 {
		k := btree.DecodeKey(b)
		return k, k
	}
	return btree.DecodeRange(b)
}

// pageImage dumps a page's recovered in-memory state (temporary diagnostic).
func pageImage(m *machine, id page.PageID) string {
	f, err := m.pool.Fetch(id)
	if err != nil {
		return fmt.Sprintf("\nIMAGE pg=%d: fetch: %v", id, err)
	}
	p := f.Page
	out := fmt.Sprintf("\nIMAGE pg=%d lsn=%d nsn=%d right=%d level=%d slots=%d free=%d flags=%#x:",
		id, p.LSN(), p.NSN(), p.Rightlink(), p.Level(), p.NumSlots(), p.FreeSpace(), p.Flags())
	for i := 0; i < p.NumSlots(); i++ {
		b, err := p.SlotBytes(i)
		if err != nil {
			out += fmt.Sprintf("\n  slot %d: dead", i)
			continue
		}
		if e, derr := page.DecodeEntry(b, p.IsLeaf()); derr == nil && isBtreePred(e.Pred) {
			lo, hi := btreeBounds(e.Pred)
			out += fmt.Sprintf("\n  slot %d: [%d,%d] child=%d rid=%v del=%v", i, lo, hi, e.Child, e.RID, e.Deleted)
		} else {
			out += fmt.Sprintf("\n  slot %d: %d bytes", i, len(b))
		}
	}
	m.pool.Unpin(f, false, 0)
	return out
}

func newWork(m *machine, seed int64) error {
	tx, err := m.tm.Begin()
	if err != nil {
		return err
	}
	k := newWorkKeyLow + seed
	if _, err := insertKV(m, tx, k); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	m.txnFinished(tx.ID())
	tx2, err := m.tm.Begin()
	if err != nil {
		return err
	}
	defer func() {
		tx2.Commit()
		m.txnFinished(tx2.ID())
	}()
	rs, err := m.tree.Search(tx2, btree.EncodeRange(k, k), gist.ReadCommitted)
	if err != nil {
		return err
	}
	if len(rs) != 1 {
		return fmt.Errorf("inserted key found %d times", len(rs))
	}
	return nil
}

// Calibrate runs the workload for seed crash-free and returns how many
// bytes it writes after setup; crash budgets are drawn across that range.
func Calibrate(seed int64, dir string) (int64, error) {
	r, err := Run(Config{Seed: seed, Dir: dir, Budget: -1})
	if err != nil {
		return 0, err
	}
	return r.TotalBytes, nil
}

// RunAtTruncate places the crash inside the crash-atomic head truncation of
// seed's one-writer workload. A crash-free pass in calDir measures the
// bytes the truncation writes; the crash pass in dir arms the crash point
// as the truncation starts, with two thirds of that budget. The cut writes
// the allocation metadata and its intent record, then the surviving log
// suffix twice (sidecar journal, then the log file), so the crash tears the
// journal or the rewrite, and the survivor log ends with the intent.
func RunAtTruncate(seed int64, calDir, dir string) (*Result, error) {
	cal, err := Run(Config{Seed: seed, Dir: calDir, Budget: -1, AtTruncate: true})
	if err != nil {
		return cal, err
	}
	if cal.TruncateBytes == 0 {
		return cal, fmt.Errorf("crashfuzz: seed %d never truncated the log head", seed)
	}
	return Run(Config{Seed: seed, Dir: dir, Budget: cal.TruncateBytes * 2 / 3, AtTruncate: true})
}

// RunSeed derives a scenario deterministically from seed (given a
// calibrated byte total) and runs it: the crash budget lands anywhere in
// [0, ~1.25*calib) — including past the end, which exercises crash-at-end —
// and every third seed arms a second crash during recovery.
func RunSeed(seed int64, dir string, calib int64) (*Result, error) {
	if calib < 1 {
		calib = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d))
	cfg := Config{
		Seed:   seed,
		Dir:    dir,
		Budget: rng.Int63n(calib + calib/4 + 1),
	}
	if seed%3 == 0 {
		cfg.RecoveryBudget = 1 + rng.Int63n(48<<10)
	}
	return Run(cfg)
}
