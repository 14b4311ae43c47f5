package recovery_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// survivor is the durable state at a crash — the starting point both sides
// of an equivalence pair restart from. Every restart clones it, so one
// survivor can be restarted any number of times.
type survivor struct {
	t      *testing.T
	log    *wal.Log
	disk   *storage.MemDisk
	anchor page.PageID
	cfg    gist.Config
}

func (w *world) survivorAt(truncLSN page.LSN) *survivor {
	w.t.Helper()
	var survLog *wal.Log
	if truncLSN == 0 {
		survLog = w.log.SurvivingLog()
	} else {
		survLog = w.log.TruncatedCopy(truncLSN)
	}
	return &survivor{t: w.t, log: survLog, disk: w.disk.Snapshot(), anchor: w.anchor, cfg: w.cfg}
}

// restart recovers a clone of the survivor with the given worker fan-out.
func (s *survivor) restart(workers int) (*world, *recovery.Stats) {
	s.t.Helper()
	log := s.log.TruncatedCopy(s.log.LastLSN())
	nw := &world{
		t:      s.t,
		disk:   s.disk.Snapshot(),
		log:    log,
		locks:  lock.NewManager(),
		preds:  predicate.NewManager(),
		anchor: s.anchor,
		cfg:    s.cfg,
	}
	nw.pool = buffer.New(nw.disk, 512, log)
	nw.tm = txn.NewManager(log, nw.locks, nw.preds)
	nw.heap = heap.New(nw.pool)
	nw.heap.RegisterUndo(nw.tm)
	rec := &recovery.Recovery{Log: log, Pool: nw.pool, Disk: nw.disk, TM: nw.tm, Workers: workers}
	stats, err := rec.Run(func() error {
		tree, err := gist.Open(nw.pool, nw.tm, nw.cfg, nw.anchor)
		if err != nil {
			return err
		}
		nw.tree = tree
		return nil
	})
	if err != nil {
		s.t.Fatalf("recovery (workers=%d) failed: %v", workers, err)
	}
	return nw, stats
}

// diskDigest hashes the full durable state: every live page id and image,
// in id order. Run ends with a Pool.FlushAll, so after a restart the disk
// is the complete recovered state.
func diskDigest(t *testing.T, d *storage.MemDisk) string {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, page.Size)
	for _, id := range d.PageIDs() {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:", id)
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// logTrace flattens the log into a comparable record sequence (also
// exercising the batched snapshot scan the restart path uses).
func logTrace(l *wal.Log) []string {
	var out []string
	l.SnapshotScan(1, func(r *wal.Record) bool {
		out = append(out, fmt.Sprintf("%d:%v:t%d:p%d:p%d:prev%d", r.LSN, r.Type, r.Txn, r.Pg, r.Pg2, r.PrevLSN))
		return true
	})
	return out
}

// verifyAgainstOracle checks the recovered world against the survivor-log
// committed-data oracle and the structural invariants.
func verifyAgainstOracle(t *testing.T, nw *world) {
	t.Helper()
	rep := nw.checkTree()
	if rep.Orphans != 0 {
		t.Fatalf("%d orphan nodes after recovery", rep.Orphans)
	}
	if err := check.VerifyOracle(rep, check.OracleFromLog(nw.log, nil)); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// buildSequential drives a seeded sequential workload: committed inserts
// and deletes, savepoint partial rollbacks, GC sweeps, and (for odd seeds)
// one in-flight loser at the end. Transactions never overlap, so any log
// cut leaves at most one loser — exactly the regime in which serial and
// parallel restart must agree byte for byte (a single loser's CLR chain
// admits only one LSN order even when undo is fanned out).
func buildSequential(t *testing.T, seed int64) *world {
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(t, gist.Config{MaxEntries: 4 + rng.Intn(3)})
	var live []int64
	rids := make(map[int64]page.RID)
	next := int64(0)
	for i, n := 0, 18+rng.Intn(18); i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 6: // committed insert batch
			tx, _ := w.tm.Begin()
			for j := 1 + rng.Intn(3); j > 0; j-- {
				rids[next] = w.putIn(tx, next)
				live = append(live, next)
				next++
			}
			tx.Commit()
		case op < 8 && len(live) > 2: // committed delete of the oldest keys
			tx, _ := w.tm.Begin()
			for j := 1 + rng.Intn(2); j > 0 && len(live) > 0; j-- {
				k := live[0]
				live = live[1:]
				if err := w.tree.Delete(tx, btree.EncodeKey(k), rids[k]); err != nil {
					t.Fatal(err)
				}
			}
			tx.Commit()
		case op < 9: // savepoint with partial rollback
			tx, _ := w.tm.Begin()
			rids[next] = w.putIn(tx, next)
			live = append(live, next)
			next++
			tx.Savepoint("sp")
			w.putIn(tx, next+1000)
			tx.RollbackTo("sp")
			tx.Commit()
		default: // GC sweep
			gc, _ := w.tm.Begin()
			if err := w.tree.GCAll(gc); err != nil {
				t.Fatal(err)
			}
			gc.Commit()
		}
	}
	if seed%2 == 1 { // an in-flight loser at the crash
		loser, _ := w.tm.Begin()
		for j := 0; j <= int(seed%3); j++ {
			w.putIn(loser, 5000+int64(j))
		}
	}
	w.log.FlushAll()
	return w
}

// TestParallelSerialEquivalence restarts a corpus of seeded crash states
// with one redo worker and with eight and asserts the two produce identical page
// images, identical stats, identical post-recovery logs, and both satisfy
// the survivor-log oracle.
func TestParallelSerialEquivalence(t *testing.T) {
	spans := []int{216, 352, 285, 346, 275, 704} // crashCuts' draw bound per seed
	for seed := int64(0); seed < 6; seed++ {
		w := buildSequential(t, seed)
		cuts := crashCuts(w.log, rand.New(rand.NewSource(seed*7777)), spans[seed], 6)
		for cut := range cuts {
			cut := cut
			t.Run(fmt.Sprintf("seed%d/lsn%d", seed, cut), func(t *testing.T) {
				s := w.survivorAt(cut)
				serial, sst := s.restart(1)
				par, pst := s.restart(8)
				if *sst != *pst {
					t.Errorf("stats diverge: serial %+v, parallel %+v", sst, pst)
				}
				sd, pd := diskDigest(t, serial.disk), diskDigest(t, par.disk)
				if sd != pd {
					t.Errorf("recovered page images diverge (serial %s, parallel %s)", sd[:12], pd[:12])
				}
				if st, pt := logTrace(serial.log), logTrace(par.log); !reflect.DeepEqual(st, pt) {
					t.Errorf("post-recovery logs diverge: serial %d records, parallel %d", len(st), len(pt))
				}
				if sk, pk := serial.keys(0, 10000), par.keys(0, 10000); !reflect.DeepEqual(sk, pk) {
					t.Errorf("live keys diverge: serial %v, parallel %v", sk, pk)
				}
				verifyAgainstOracle(t, serial)
				verifyAgainstOracle(t, par)
			})
		}
	}
}

// buildMultiLoser leaves k concurrently active transactions in flight at
// the crash, each with interleaved inserts, on top of a committed base.
func buildMultiLoser(t *testing.T, k int) *world {
	w := newWorld(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 20; i++ {
		w.put(int64(i))
	}
	txs := make([]*txn.Txn, k)
	for i := range txs {
		tx, err := w.tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	for round := 0; round < 3; round++ {
		for i, tx := range txs {
			w.putIn(tx, 1000+int64(i)*100+int64(round))
		}
	}
	w.log.FlushAll()
	return w
}

// TestParallelUndoMultiLoserEquivalence crashes with several losers in
// flight and restarts serially and in parallel. With more than one loser
// the CLR interleaving (hence the exact log/image bytes) legitimately
// differs across fan-outs, but everything observable must agree: stats,
// live keys, structural invariants, and the committed-data oracle.
func TestParallelUndoMultiLoserEquivalence(t *testing.T) {
	const k = 6
	w := buildMultiLoser(t, k)
	s := w.survivorAt(0)
	serial, sst := s.restart(1)
	par, pst := s.restart(8)
	if *sst != *pst {
		t.Errorf("stats diverge: serial %+v, parallel %+v", sst, pst)
	}
	if sst.Losers != k || sst.Undone != k {
		t.Errorf("stats = %+v, want %d losers undone", sst, k)
	}
	if sk, pk := serial.keys(0, 10000), par.keys(0, 10000); !reflect.DeepEqual(sk, pk) {
		t.Errorf("live keys diverge: serial %v, parallel %v", sk, pk)
	}
	verifyAgainstOracle(t, serial)
	verifyAgainstOracle(t, par)
}

// TestRepeatedRestartDeterminism pins the undo-ordering bugfix: two
// restarts from the same survivor files must produce identical logs,
// images, and stats. The old code iterated the loser map in Go's
// randomized order, so with eight losers virtually every pair of restarts
// interleaved their CLRs differently and crashfuzz repros changed run to
// run.
func TestRepeatedRestartDeterminism(t *testing.T) {
	w := buildMultiLoser(t, 8)
	s := w.survivorAt(0)
	first, fst := s.restart(1)
	trace := logTrace(first.log)
	digest := diskDigest(t, first.disk)
	for i := 0; i < 3; i++ {
		nw, st := s.restart(1)
		if *st != *fst {
			t.Fatalf("restart %d: stats %+v, want %+v", i, st, fst)
		}
		if got := logTrace(nw.log); !reflect.DeepEqual(got, trace) {
			t.Fatalf("restart %d: post-recovery log differs from the first restart", i)
		}
		if got := diskDigest(t, nw.disk); got != digest {
			t.Fatalf("restart %d: recovered page images differ from the first restart", i)
		}
	}
}
