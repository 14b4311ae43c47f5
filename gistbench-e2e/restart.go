package main

import (
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/rtree"
)

// restart: an in-memory engine (SimulateCrash keeps only the flushed log and
// flushed pages) with maintenance off. Set-up builds a fixed history: 100k
// btree and 25k rtree inserts in 100-key transactions, 20k deletes, a fuzzy
// checkpoint at the midpoint, and two loser transactions left open with
// flushed updates. The timed step is SimulateCrash plus OpenIndex of both
// indexes, repeated from the same crashed state; each restart is followed by
// a check of the recovered database through the facade.
const (
	rsKeys        = 100_000
	rsPoints      = 25_000
	rsDeletes     = 20_000
	rsBatch       = 100
	rsRec         = 64
	rsSide        = 1000.0
	rsLoserKeys   = 100 // btree keys each loser inserts
	rsLoserDels   = 50  // committed keys the second loser deletes
	rsLoserPts    = 25  // points the first loser inserts
	rsPointChecks = 400 // committed keys looked up after each restart
	rsWindows     = 25  // random windows after each restart, besides one per loser point
	rsProbeTxns   = 25  // write-probe transactions of each kind after each restart
)

// history is the crashed database and what restart must make of it.
type history struct {
	crashed *gistdb.DB
	live    []int64      // committed btree keys, ascending
	pts     []rtree.Rect // committed points
	lookups []lookupWant // point checks, four per transaction
	windows []rtree.Rect
}

type lookupWant struct {
	k    int64
	want bool
}

// buildHistory runs the set-up history and leaves the database crashed-to-be:
// two losers open, their updates flushed to the log.
func buildHistory(g *gen, recentOps int) (*history, error) {
	db, err := gistdb.Open(gistdb.Options{RecentOps: recentOps})
	if err != nil {
		return nil, err
	}
	bt, err := db.CreateIndex("keys", btree.Ops{})
	if err != nil {
		return nil, err
	}
	rt, err := db.CreateIndex("points", rtree.Ops{})
	if err != nil {
		return nil, err
	}
	keys := g.perm(1, rsKeys)
	pts := g.points(2, rsPoints, rsSide)
	rids := make([]gistdb.RID, rsKeys)
	deleted := make([]bool, rsKeys)
	dels := g.perm(3, rsKeys)[:rsDeletes]
	for _, k := range dels {
		deleted[k] = true
	}

	// Transactions in history order: every fourth btree batch is followed
	// by an rtree batch, then the deletes; the checkpoint sits at the middle.
	type batch struct {
		rtree, del bool
		lo         int
	}
	var order []batch
	for lo := 0; lo < rsKeys; lo += rsBatch {
		order = append(order, batch{lo: lo})
		if p := lo / (4 * rsBatch) * rsBatch; lo%(4*rsBatch) == 3*rsBatch && p < rsPoints {
			order = append(order, batch{rtree: true, lo: p})
		}
	}
	for lo := 0; lo < rsDeletes; lo += rsBatch {
		order = append(order, batch{del: true, lo: lo})
	}
	for n, b := range order {
		if n == len(order)/2 {
			if err := db.Checkpoint(); err != nil {
				return nil, err
			}
		}
		tx, err := db.Begin()
		if err != nil {
			return nil, err
		}
		for i := b.lo; i < b.lo+rsBatch; i++ {
			switch {
			case b.del:
				k := dels[i]
				err = bt.Delete(tx, btree.EncodeKey(k), rids[k])
			case b.rtree:
				_, err = rt.Insert(tx, rtree.EncodePoint(pts[i].XMin, pts[i].YMin), g.record(int64(i), rsRec))
			default:
				k := keys[i]
				rids[k], err = bt.Insert(tx, btree.EncodeKey(k), g.record(k, rsRec))
			}
			if err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}

	// The losers: one inserts keys and points, the other inserts keys and
	// deletes committed ones. Both stay open; the log is flushed past them.
	loserPts := g.points(5, rsLoserPts, rsSide)
	a, err := db.Begin()
	if err != nil {
		return nil, err
	}
	b, err := db.Begin()
	if err != nil {
		return nil, err
	}
	hs := &history{crashed: db, pts: pts}
	for i := int64(0); i < 2*rsLoserKeys; i++ {
		k := rsKeys + i
		tx := a
		if i >= rsLoserKeys {
			tx = b
		}
		if _, err := bt.Insert(tx, btree.EncodeKey(k), g.record(k, rsRec)); err != nil {
			return nil, err
		}
		hs.lookups = append(hs.lookups, lookupWant{k, false})
	}
	for i, p := range loserPts {
		if _, err := rt.Insert(a, rtree.EncodePoint(p.XMin, p.YMin), g.record(int64(rsPoints+i), rsRec)); err != nil {
			return nil, err
		}
		hs.windows = append(hs.windows, rtree.Rect{XMin: p.XMin - 5, YMin: p.YMin - 5, XMax: p.XMin + 5, YMax: p.YMin + 5})
	}
	undel := 0
	for k := int64(0); undel < rsLoserDels; k++ {
		if !deleted[k] {
			if err := bt.Delete(b, btree.EncodeKey(k), rids[k]); err != nil {
				return nil, err
			}
			hs.lookups = append(hs.lookups, lookupWant{k, true})
			undel++
		}
	}
	if err := db.WAL().FlushAll(); err != nil {
		return nil, err
	}

	for k := int64(0); k < rsKeys; k++ {
		if !deleted[k] {
			hs.live = append(hs.live, k)
		}
	}
	r := g.rng(6)
	for i := 0; i < rsPointChecks; i++ {
		hs.lookups = append(hs.lookups, lookupWant{hs.live[r.Intn(len(hs.live))], true})
	}
	for _, k := range dels[:rsPointChecks/4] {
		hs.lookups = append(hs.lookups, lookupWant{k, false})
	}
	for i := 0; i < rsWindows; i++ {
		x, y := r.Float64()*rsSide, r.Float64()*rsSide
		hs.windows = append(hs.windows, rtree.Rect{XMin: x, YMin: y, XMax: x + 20, YMax: y + 20})
	}
	return hs, nil
}

// verify checks a recovered database through the facade: committed keys are
// present with their records, the losers' keys are absent and the keys a
// loser deleted are back, 100-key-wide cursor scans over the whole key range
// return exactly the committed keys, windows match a brute-force scan of the
// committed points, and the database takes new writes. Client i of the two
// takes every other check.
func (hs *history) verify(i int, c *client, h *handle) {
	for lo := 4 * i; lo < len(hs.lookups); lo += 4 * clients {
		tx := c.begin(txnPoint)
		if tx == nil {
			continue
		}
		ok := true
		for _, l := range hs.lookups[lo:min(lo+4, len(hs.lookups))] {
			if ok = c.lookup(tx, h.bt, l.k, rsRec, l.want); !ok {
				break
			}
		}
		if ok {
			c.commit(tx, false)
		} else {
			c.abort(tx)
		}
	}
	for lo := int64(100 * i); lo < rsKeys+2*rsLoserKeys; lo += 100 * clients {
		c.scanExpect(h.bt, lo, lo+99, hs.live)
	}
	for j := i; j < len(hs.windows); j += clients {
		w := hs.windows[j]
		tx := c.begin(txnWindow)
		if tx == nil {
			continue
		}
		hits, ok := c.window(tx, h.rt, rtree.EncodeRect(w))
		if ok && !(windowAnswer{w, decodeHits(hits)}).check(hs.pts) {
			ok = c.wrong(opWindow, "window %v: answer differs from a brute-force scan", w)
		}
		if ok {
			c.commit(tx, false)
		} else {
			c.abort(tx)
		}
	}
	c.probeKeys(h.bt, 2*rsKeys+int64(4*rsProbeTxns*i), rsRec, rsProbeTxns)
}

func runRestart(e *env) (*outcome, error) {
	recentOps := 0
	if e.traced {
		recentOps = recentOpsTraced
	}
	out := &outcome{}
	var hs *history
	for r := 0; r < setupRuns; r++ {
		if hs != nil {
			if err := hs.crashed.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if hs, err = buildHistory(e.g, recentOps); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		settle()
	}

	// Restart and verify until the time is up; a traced run spends the
	// first half untraced and the rest with wrapped extensions.
	rc := newClient(nil, e.g, false)
	out.verify = phase{clients: []*client{rc}}
	var off phase
	var w *traceWindow
	t0 := time.Now()
	for n := 0; n < 2 || timeLeft(t0, e.seconds) || (e.traced && w == nil); n++ {
		ext := extOps{}
		if e.traced && n > 0 && !timeLeft(t0, e.seconds/2) {
			ext.s = &extStats{}
		}
		t1 := time.Now()
		db, err := hs.crashed.SimulateCrash()
		h := &handle{db: db}
		if err == nil {
			if h.bt, err = db.OpenIndex("keys", ext.btree()); err == nil {
				h.rt, err = db.OpenIndex("points", ext.rtree())
			}
		}
		if !rc.done(opRestart, t1, err) {
			break
		}
		out.restart = append(out.restart, float64(rc.lat[opRestart][len(rc.lat[opRestart])-1])/1e6)
		out.recovery = append(out.recovery, db.Metrics())

		body := func() phase {
			return runClients(clients, func() *client { return newClient(db, e.g, ext.s != nil) }, func(i int, c *client) {
				hs.verify(i, c, h)
			})
		}
		if ext.s == nil {
			off = merge(off, body())
		} else {
			cw := traceRun(db, ext, body)
			if w == nil {
				w = &cw
			} else {
				w.add(cw)
			}
		}
		rc.check(h.bt, len(hs.live))
		rc.check(h.rt, rsPoints)
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	out.main = off
	if w != nil {
		w.tpsOff = off.tps()
		out.main = merge(off, w.calls)
		out.trace = w
	}
	return out, nil
}
