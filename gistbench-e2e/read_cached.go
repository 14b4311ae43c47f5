package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

// read_cached: a btree of 100k keys with 200-byte records and an rtree of
// 50k points with 64-byte records, all held in an 8192-page pool, loaded,
// checkpointed and warmed before timing. Read-only transactions: 60% four
// point lookups + Fetch (RepeatableRead), 25% one 100-key cursor scan
// (ReadCommitted), 15% one rtree window of about 10 hits (RepeatableRead).
const (
	rcKeys    = 100_000
	rcRec     = 200
	rcPoints  = 50_000
	rcPtRec   = 64
	rcPool    = 8192
	rcSide    = 1000.0
	rcScanLen = 100
	rcPlan    = 1 << 16 // planned transactions per client; the plan wraps
	loadBatch = 500     // inserts per set-up transaction
	// writeSeconds is how long the write mix runs after the timed phase.
	writeSeconds = 2.0
)

// rcWindowSide gives windows of about 10 hits: 10 = side² × points / area.
var rcWindowSide = math.Sqrt(10 * rcSide * rcSide / rcPoints)

type rcTxn struct {
	kind txnKind
	keys [4]int64 // point lookups; keys[0] is a scan's first key
	w    rtree.Rect
}

func planReadCached(g *gen, client int64) []rcTxn {
	r := g.rng(100 + client)
	plan := make([]rcTxn, rcPlan)
	for i := range plan {
		t := &plan[i]
		switch x := r.Float64(); {
		case x < 0.60:
			t.kind = txnPoint
			for j := range t.keys {
				t.keys[j] = r.Int63n(rcKeys)
			}
		case x < 0.85:
			t.kind = txnScan
			t.keys[0] = r.Int63n(rcKeys - rcScanLen + 1)
		default:
			t.kind = txnWindow
			x0, y0 := r.Float64()*(rcSide-rcWindowSide), r.Float64()*(rcSide-rcWindowSide)
			t.w = rtree.Rect{XMin: x0, YMin: y0, XMax: x0 + rcWindowSide, YMax: y0 + rcWindowSide}
		}
	}
	return plan
}

// loadReadCached builds the database in dir and closes it.
func loadReadCached(dir string, g *gen, pts []rtree.Rect) error {
	db, err := gistdb.Open(gistdb.Options{Dir: dir, PoolPages: rcPool})
	if err != nil {
		return err
	}
	bt, err := db.CreateIndex("keys", btree.Ops{})
	if err != nil {
		return err
	}
	rt, err := db.CreateIndex("points", rtree.Ops{})
	if err != nil {
		return err
	}
	keys := g.perm(1, rcKeys)
	err = inBatches(db, len(keys), func(tx *gistdb.Tx, i int) error {
		_, err := bt.Insert(tx, btree.EncodeKey(keys[i]), g.record(keys[i], rcRec))
		return err
	})
	if err != nil {
		return err
	}
	err = inBatches(db, len(pts), func(tx *gistdb.Tx, i int) error {
		_, err := rt.Insert(tx, rtree.EncodePoint(pts[i].XMin, pts[i].YMin), g.record(int64(i), rcPtRec))
		return err
	})
	if err != nil {
		return err
	}
	return db.Close()
}

// inBatches calls fn for i in [0, n), loadBatch calls per transaction. The
// load is sequential: concurrent heap inserts can fail with ErrPageFull when
// a page another inserter just allocated fills up before it is used.
func inBatches(db *gistdb.DB, n int, fn func(tx *gistdb.Tx, i int) error) error {
	for lo := 0; lo < n; lo += loadBatch {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for i := lo; i < n && i < lo+loadBatch; i++ {
			if err := fn(tx, i); err != nil {
				tx.Abort()
				return fmt.Errorf("load %d: %w", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func openReadCached(dir string, ext extOps) (*handle, error) {
	opts := gistdb.Options{Dir: dir, PoolPages: rcPool}
	if ext.s != nil {
		opts.RecentOps = recentOpsTraced
	}
	db, err := gistdb.Open(opts)
	if err != nil {
		return nil, err
	}
	bt, err := db.OpenIndex("keys", ext.btree())
	if err != nil {
		db.Close()
		return nil, err
	}
	rt, err := db.OpenIndex("points", ext.rtree())
	if err != nil {
		db.Close()
		return nil, err
	}
	return &handle{db, bt, rt}, nil
}

// warm reads every index entry and record once, so the timed phase hits.
func (d *handle) warm() error {
	tx, err := d.db.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort()
	for _, q := range []struct {
		ix *gistdb.Index
		q  []byte
	}{
		{d.bt, btree.EncodeRange(math.MinInt64, math.MaxInt64)},
		{d.rt, rtree.EncodeRect(rtree.Rect{XMin: -1, YMin: -1, XMax: rcSide + 1, YMax: rcSide + 1})},
	} {
		hits, err := q.ix.Search(tx, q.q, gistdb.ReadCommitted)
		if err != nil {
			return err
		}
		for _, h := range hits {
			if _, err := q.ix.Fetch(h.RID); err != nil {
				return err
			}
		}
	}
	return nil
}

// mixReadCached runs the read-only mix for the given time and returns the
// phase and the sampled window answers to check.
func mixReadCached(d *handle, e *env, plans [][]rcTxn, traced bool, seconds float64) (phase, [][]windowAnswer) {
	answers := make([][]windowAnswer, clients)
	t0 := time.Now()
	p := runClients(clients, func() *client { return newClient(d.db, e.g, traced) }, func(i int, c *client) {
		plan := plans[i]
		for n := 0; timeLeft(t0, seconds); n++ {
			t := &plan[n%len(plan)]
			tx := c.begin(t.kind)
			if tx == nil {
				continue
			}
			ok := true
			switch t.kind {
			case txnPoint:
				for _, k := range t.keys {
					if ok = c.lookup(tx, d.bt, k, rcRec, true); !ok {
						break
					}
				}
			case txnScan:
				var keys []int64
				if keys, ok = c.scan(tx, d.bt, t.keys[0], t.keys[0]+rcScanLen-1, gistdb.ReadCommitted); ok {
					ok = consecutive(c, keys, t.keys[0], rcScanLen)
				}
			case txnWindow:
				var hits []gistdb.SearchResult
				if hits, ok = c.window(tx, d.rt, rtree.EncodeRect(t.w)); ok && n%8 == 0 {
					answers[i] = append(answers[i], windowAnswer{t.w, decodeHits(hits)})
				}
			}
			if ok {
				c.commit(tx, false)
			} else {
				c.abort(tx)
			}
		}
	})
	return p, answers
}

// consecutive requires a scan to have returned exactly the keys lo..lo+n-1.
func consecutive(c *client, keys []int64, lo int64, n int) bool {
	if len(keys) != n {
		return c.wrong(opScan, "scan from %d: %d keys, want %d", lo, len(keys), n)
	}
	for i, k := range keys {
		if k != lo+int64(i) {
			return c.wrong(opScan, "scan from %d: key %d at position %d", lo, k, i)
		}
	}
	return true
}

// checkWindows compares the sampled window answers with brute force.
func checkWindows(p phase, answers [][]windowAnswer, pts []rtree.Rect) {
	for i, as := range answers {
		for _, a := range as {
			if !a.check(pts) {
				p.clients[i].wrong(opWindow, "window %v: answer differs from a brute-force scan", a.w)
			}
		}
	}
}

// rcLayout is the write mix run on the cached database after the timed
// phase: the same transactions as write_churn, with new keys above the
// preloaded ones.
var rcLayout = churnLayout{keys: rcKeys, preStride: 1, newBase: rcKeys, newStride: 2, newOff: 1, rec: rcRec}

func runReadCached(e *env) (*outcome, error) {
	pts := e.g.points(2, rcPoints, rcSide)
	plans := [][]rcTxn{planReadCached(e.g, 0), planReadCached(e.g, 1)}
	writes := newChurn(e.g, rcLayout)
	out := &outcome{}
	d, dir, err := setupFile(e, out,
		func(dir string) error { return loadReadCached(dir, e.g, pts) },
		func(dir string) (*handle, error) { return openReadCached(dir, extOps{}) },
		func(_ string, d *handle) (*handle, error) { return d, d.warm() })
	if err != nil {
		return nil, err
	}
	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	var answers [][]windowAnswer
	out.main, answers = mixReadCached(d, e, plans, false, seconds)
	checkWindows(out.main, answers, pts)
	if e.traced {
		// The same mix again on a reopened, rewarmed instance with wrapped
		// extensions, fresh engine registries and a flight-recorder ring
		// that keeps every trace.
		if err := d.db.Close(); err != nil {
			return nil, err
		}
		ext := extOps{s: &extStats{}}
		if d, err = openReadCached(dir, ext); err != nil {
			return nil, err
		}
		if err := d.warm(); err != nil {
			return nil, err
		}
		w := traceRun(d.db, ext, func() phase {
			var p phase
			p, answers = mixReadCached(d, e, plans, true, seconds)
			return p
		})
		checkWindows(w.calls, answers, pts)
		w.tpsOff = out.main.tps()
		out.main = merge(out.main, w.calls)
		out.trace = &w
	}

	// Writes arriving at the cached database: the write_churn mix for
	// writeSeconds. Then a checkpoint, a clean close, a reopen and the
	// structural check.
	c := newClient(d.db, e.g, false)
	wp, _ := mixChurn(d, e, rcLayout, writes, false, writeSeconds)
	out.verify = merge(phase{clients: []*client{c}}, wp)
	if !c.checkpointClose(d.db) {
		return out, nil
	}
	if d = c.reopen(func() (*handle, error) { return openReadCached(dir, extOps{}) }); d == nil {
		return out, nil
	}
	c.check(d.bt, rcKeys+owned(writes))
	c.check(d.rt, rcPoints)
	if err := d.db.Close(); err != nil {
		return nil, err
	}
	live := int64(rcKeys+owned(writes))*(8+rcRec) + rcPoints*(16+rcPtRec)
	out.spaceAmp = spaceAmp(dir, live)
	return out, nil
}
