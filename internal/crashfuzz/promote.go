// Promote mode: the same seeded crash harness pointed at failover instead
// of restart. One run builds the usual file-backed primary, attaches a live
// streaming replica (internal/repl over an in-memory pipe) BEFORE any data
// exists — so the replica's log is the complete history from LSN 1 — drives
// the standard concurrent workload while the replica continuously repeats
// history, then kills the primary at an arbitrary torn write and promotes
// the replica. Validation is against the replica's own shipped log: a
// promoted replica must be exactly the database some crash-restart of the
// primary would have produced at the replica's applied LSN — structurally
// sound, byte-identical to the survivor log over the shipped prefix, every
// committed-per-prefix entry present exactly once, every loser undone — and
// it must accept new durable work. Commits that land in (appliedLSN,
// flushedLSN] are legitimately lost by failover and asserted nothing about;
// a run with Budget < 0 instead quiesces, lets the replica catch up fully,
// and demands that zero-lag promotion preserves every acknowledged outcome.
package crashfuzz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// replica is the hand-assembled replica-side engine the promote fuzz
// drives: the same parts OpenReplica wires, minus the facade.
type replica struct {
	log   *wal.Log
	disk  *storage.MemDisk
	pool  *buffer.Pool
	locks *lock.Manager
	preds *predicate.Manager
	tm    *txn.Manager
	heap  *heap.File
	recv  *repl.Receiver
	tree  *gist.Tree // opened at promotion
}

func newReplica(dial func() (io.ReadWriteCloser, error)) *replica {
	r := &replica{
		log:   wal.NewReplicaLog(0),
		disk:  storage.NewMemDisk(),
		locks: lock.NewManager(),
		preds: predicate.NewManager(),
	}
	r.pool = buffer.New(r.disk, recoveryPool, r.log)
	r.tm = txn.NewManager(r.log, r.locks, r.preds)
	r.heap = heap.New(r.pool)
	r.heap.RegisterUndo(r.tm)
	r.recv = repl.NewReceiver(repl.ReceiverDeps{
		Log: r.log, Pool: r.pool, Disk: r.disk, TM: r.tm,
	}, dial)
	return r
}

func promoteRepro(cfg Config) string {
	return fmt.Sprintf("crashfuzz promote seed %d (budget %d)", cfg.Seed, cfg.Budget)
}

// RunPromote executes one kill-primary-promote-replica cycle; a non-nil
// error is an invariant, oracle, or divergence violation (or a harness
// failure).
func RunPromote(cfg Config) (*Result, error) {
	res := &Result{Seed: cfg.Seed, Budget: cfg.Budget}
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

	ship := repl.NewShipper(repl.PrimaryDeps{Log: m.log, Pool: m.pool, Disk: m.disk, TM: m.tm})
	// The maintenance truncator honors the shipper's clamp exactly as the
	// facade wires it: mid-workload head truncation advances only as far as
	// the replica has acked, so the stream can never hit a truncated hole.
	m.maint = maintenance.New(maintenance.Deps{
		Log:       m.log,
		TM:        m.tm,
		Pool:      m.pool,
		Disk:      m.disk,
		Trees:     func() []*gist.Tree { return []*gist.Tree{m.tree} },
		ReplBound: ship.TruncationBound,
	}, maintenance.Options{
		Manual:          true,
		FlushBatch:      8,
		GCDeadThreshold: 1,
		GCBurstLeaves:   4,
	})

	var dead atomic.Bool
	rep := newReplica(func() (io.ReadWriteCloser, error) {
		if dead.Load() {
			return nil, errors.New("crashfuzz: primary dead")
		}
		c, srv := net.Pipe()
		go ship.Serve(srv)
		return c, nil
	})
	rep.recv.Start()

	mdl := &model{live: make(map[int64]page.RID), maybe: make(map[int64]bool)}
	if err := promoteSetup(m, mdl, ship, rep.recv); err != nil {
		return res, fmt.Errorf("promote setup: %w [%s]", err, promoteRepro(cfg))
	}
	baseline := make(map[page.RID][]byte, len(mdl.live))
	for k, rid := range mdl.live {
		baseline[rid] = btree.EncodeKey(k)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	writers := 1 + rng.Intn(4)
	opsPerWriter := 16 + rng.Intn(12)
	if cfg.Budget >= 0 {
		cp.Arm(cfg.Budget)
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
		return fmt.Errorf("%s [%s]", bugs[0], promoteRepro(cfg))
	}

	truncate := func(bound page.LSN) error {
		_, err := m.maint.TruncateTo(bound)
		return err
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

	zeroLag := cfg.Budget < 0
	if zeroLag {
		// Quiesced failover: flush everything and let the replica catch up
		// completely before the kill. Promotion must then preserve every
		// acknowledged outcome — the model is asserted in full.
		if err := m.log.FlushAll(); err != nil {
			return res, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := rep.recv.WaitApplied(ctx, m.log.FlushedLSN())
		cancel()
		if err != nil {
			return res, fmt.Errorf("catch-up before quiesced kill: %w [%s]", err, promoteRepro(cfg))
		}
	} else if !cp.Crashed() {
		// Workload finished under budget: the kill lands here instead.
		cp.CrashNow()
	}
	res.CrashSite = cp.Site()

	// Kill the primary: stop shipping first (sessions read the primary's
	// in-memory log state), then abandon the machine. Everything volatile
	// is gone; only the torn files and the replica survive.
	dead.Store(true)
	ship.Close()
	flushedAtKill := m.log.FlushedLSN()
	m.abandon()
	if err := firstBug(); err != nil {
		return res, err
	}

	rep.recv.Stop()
	if err := rep.recv.Err(); err != nil {
		return res, fmt.Errorf("replica stream died with terminal error: %v [%s]", err, promoteRepro(cfg))
	}
	applied := rep.recv.AppliedLSN()
	res.LostSuffix = int64(flushedAtKill) - int64(applied)
	if res.LostSuffix < 0 {
		return res, fmt.Errorf("replica applied %d past the primary's durable frontier %d [%s]",
			applied, flushedAtKill, promoteRepro(cfg))
	}
	if zeroLag && res.LostSuffix != 0 {
		return res, fmt.Errorf("quiesced failover still lost %d LSNs [%s]", res.LostSuffix, promoteRepro(cfg))
	}
	if last := rep.log.LastLSN(); last != applied {
		return res, fmt.Errorf("replica log ends at %d but applied %d [%s]", last, applied, promoteRepro(cfg))
	}
	if last, err := rep.log.Get(applied); err == nil {
		res.TailType = last.Type.String()
	}

	// Divergence check against the survivor: the replica's log must be a
	// byte-identical prefix of what actually became durable on the primary.
	// (The survivor's head may be truncated — compare over the overlap.)
	if err := comparePrefix(cfg, rep.log, applied); err != nil {
		return res, err
	}

	// Failover: undo the surviving ATT through the registered handlers and
	// open the tree read-write.
	losers, err := rep.recv.Promote(func() error {
		gist.RegisterRecoveryHandlers(rep.tm, rep.pool)
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("promote: %v [%s]", err, promoteRepro(cfg))
	}
	res.PromoteLosers = losers
	rep.tree, err = gist.Open(rep.pool, rep.tm, tcfg, anchor)
	if err != nil {
		return res, fmt.Errorf("open tree after promote: %v [%s]", err, promoteRepro(cfg))
	}

	if err := validatePromoted(rep, mdl, zeroLag, tcfg, anchor, res); err != nil {
		return res, fmt.Errorf("after promote: %v [%s]", err, promoteRepro(cfg))
	}

	// The promoted replica accepts new work.
	if err := promotedNewWork(rep, cfg.Seed); err != nil {
		return res, fmt.Errorf("new work after promote: %v [%s]", err, promoteRepro(cfg))
	}
	if _, err := (&check.Checker{Pool: rep.pool, Ops: tcfg.Ops, Anchor: anchor, MaxNSN: rep.log.LastLSN()}).Check(); err != nil {
		return res, fmt.Errorf("after post-promote work: %v [%s]", err, promoteRepro(cfg))
	}
	return res, nil
}

// promoteSetup commits the baseline with the replica already streaming,
// waits for it to catch up, and checkpoints under the shipper's clamp — the
// primary's log head never advances past what the replica has acked, so the
// replica's log stays a complete history from LSN 1.
func promoteSetup(m *machine, mdl *model, ship *repl.Shipper, recv *repl.Receiver) error {
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
	if err := m.log.FlushAll(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := recv.WaitApplied(ctx, m.log.FlushedLSN()); err != nil {
		return err
	}
	if _, err := recovery.CheckpointBounded(m.tm, m.pool, m.disk, ship.TruncationBound()); err != nil {
		return err
	}
	return m.disk.Sync()
}

// comparePrefix reopens the survivor's files and checks that every record
// the replica applied is byte-identical to the survivor log's copy. The
// replica must never hold a record the primary's durable log does not.
func comparePrefix(cfg Config, rlog *wal.Log, applied page.LSN) error {
	m2, err := openMachine(cfg.Dir, storage.NewCrashPoint(), recoveryPool)
	if err != nil {
		return fmt.Errorf("reopen survivor: %v [%s]", err, promoteRepro(cfg))
	}
	defer m2.abandon()
	if last := m2.log.LastLSN(); applied > last {
		return fmt.Errorf("replica applied %d but survivor log ends at %d [%s]", applied, last, promoteRepro(cfg))
	}
	for lsn := m2.log.Base() + 1; lsn <= applied; lsn++ {
		a, err := rlog.Get(lsn)
		if err != nil {
			return fmt.Errorf("replica log missing LSN %d: %v [%s]", lsn, err, promoteRepro(cfg))
		}
		b, err := m2.log.Get(lsn)
		if err != nil {
			return fmt.Errorf("survivor log missing LSN %d: %v [%s]", lsn, err, promoteRepro(cfg))
		}
		if !bytes.Equal(a.Encode(), b.Encode()) {
			return fmt.Errorf("log divergence at LSN %d: replica %v vs survivor %v [%s]", lsn, a, b, promoteRepro(cfg))
		}
	}
	return nil
}

// validatePromoted holds the promoted replica to restart's standard against
// its own log: structural invariants, exact tree/oracle agreement, and
// access-path/heap agreement. With zeroLag the in-process model is asserted
// in full — no acknowledged commit may be lost, no dead key resurrected;
// under lag those commits are legitimately lost and only prefix-consistency
// is demanded.
func validatePromoted(rep *replica, mdl *model, zeroLag bool, tcfg gist.Config, anchor page.PageID, res *Result) error {
	// The replica log is complete from LSN 1: no baseline fold needed.
	oracle := check.OracleFromLog(rep.log, nil)
	res.Oracle = len(oracle)

	chk := &check.Checker{Pool: rep.pool, Ops: tcfg.Ops, Anchor: anchor, MaxNSN: rep.log.LastLSN()}
	r, err := chk.Check()
	if err != nil {
		return err
	}
	if r.Orphans != 0 {
		return fmt.Errorf("%d orphan nodes", r.Orphans)
	}
	if err := check.VerifyOracle(r, oracle); err != nil {
		return err
	}

	if zeroLag {
		mdl.mu.Lock()
		for k, rid := range mdl.live {
			if mdl.maybe[k] {
				continue
			}
			pred, ok := oracle[rid]
			if !ok || btree.DecodeKey(pred) != k {
				mdl.mu.Unlock()
				return fmt.Errorf("acknowledged commit of key %d (%v) lost by zero-lag failover", k, rid)
			}
		}
		for _, p := range mdl.gone {
			if mdl.maybe[p.key] {
				continue
			}
			if pred, ok := oracle[p.rid]; ok && btree.DecodeKey(pred) == p.key {
				mdl.mu.Unlock()
				return fmt.Errorf("dead key %d (%v) resurrected by zero-lag failover", p.key, p.rid)
			}
		}
		mdl.mu.Unlock()
	}

	tx, err := rep.tm.Begin()
	if err != nil {
		return err
	}
	defer func() {
		tx.Commit()
		rep.heap.TxnFinished(tx.ID())
	}()
	rs, err := rep.tree.Search(tx, btree.EncodeRange(0, 1<<46), gist.ReadCommitted)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if len(rs) != len(oracle) {
		return fmt.Errorf("search found %d entries, oracle has %d", len(rs), len(oracle))
	}
	for _, e := range rs {
		pred, ok := oracle[e.RID]
		if !ok || btree.DecodeKey(pred) != btree.DecodeKey(e.Key) {
			return fmt.Errorf("search surfaced %v/%d not in oracle", e.RID, btree.DecodeKey(e.Key))
		}
		rec, err := rep.heap.Read(e.RID)
		if err != nil {
			return fmt.Errorf("heap record %v: %w", e.RID, err)
		}
		if want := fmt.Sprintf("rec-%d", btree.DecodeKey(e.Key)); string(rec) != want {
			return fmt.Errorf("heap record %v = %q, want %q", e.RID, rec, want)
		}
	}
	return nil
}

// promotedNewWork commits a fresh key on the promoted replica and reads it
// back — the failed-over engine is a working primary.
func promotedNewWork(rep *replica, seed int64) error {
	tx, err := rep.tm.Begin()
	if err != nil {
		return err
	}
	k := newWorkKeyLow + seed
	rid, err := rep.heap.Insert(tx, []byte(fmt.Sprintf("rec-%d", k)))
	if err != nil {
		return err
	}
	if err := rep.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	rep.heap.TxnFinished(tx.ID())

	tx2, err := rep.tm.Begin()
	if err != nil {
		return err
	}
	defer func() {
		tx2.Commit()
		rep.heap.TxnFinished(tx2.ID())
	}()
	rs, err := rep.tree.Search(tx2, btree.EncodeRange(k, k), gist.ReadCommitted)
	if err != nil {
		return err
	}
	if len(rs) != 1 {
		return fmt.Errorf("inserted key found %d times", len(rs))
	}
	return nil
}

// PromoteSeed derives a failover scenario deterministically from seed: the
// kill lands anywhere in the workload's byte range, and every fifth seed
// runs the quiesced zero-lag failover (full model assertion) instead.
func PromoteSeed(seed int64, dir string, calib int64) (*Result, error) {
	if calib < 1 {
		calib = 1
	}
	cfg := Config{Seed: seed, Dir: dir, Budget: -1}
	if seed%5 != 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x1e3779b97f4a7c15))
		cfg.Budget = rng.Int63n(calib + calib/4 + 1)
	}
	return RunPromote(cfg)
}
