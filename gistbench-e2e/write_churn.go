package main

import (
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/btree"
)

// write_churn: a btree of 100k keys with 400-byte records, about 5x the
// default 1024-page pool, file-backed with maintenance on at production
// defaults. Transactions: 50% four Zipf(1.1) point lookups + Fetch
// (RepeatableRead), 25% insert four new keys, 25% delete four keys the same
// client inserted earlier. The clients' new keys are disjoint and
// interleaved with the preloaded ones, so the index size stays flat.
const (
	wcKeys  = 100_000
	wcRec   = 400
	wcZipfS = 1.1
	wcPlan  = 1 << 16 // planned transactions per client
)

// churnLayout places the keys of a churn mix: preloaded key i is
// preStride*i, and client c's key for new-key slot s is
// newBase + newStride*s + newOff*c.
type churnLayout struct {
	keys                       int64
	preStride                  int64
	newBase, newStride, newOff int64
	rec                        int
}

func (l churnLayout) pre(i int64) int64      { return l.preStride * i }
func (l churnLayout) fresh(c, s int64) int64 { return l.newBase + l.newStride*s + l.newOff*c }

// wcLayout interleaves each client's new keys with the preloaded ones.
var wcLayout = churnLayout{keys: wcKeys, preStride: 4, newBase: 1, newStride: 4, newOff: 2, rec: wcRec}

type wcTxn struct {
	kind txnKind
	keys [4]int64 // lookups and inserts; a delete takes the client's oldest keys
}

// planChurn plans one client's transactions. A delete planned while the
// client would hold fewer than four keys of its own becomes an insert.
func planChurn(g *gen, l churnLayout, client int64, hot []int64) []wcTxn {
	r := g.rng(200 + client)
	z := rand.NewZipf(r, wcZipfS, 1, uint64(l.keys-1))
	slots := g.perm(300+client, int(l.keys))
	next, own := 0, 0
	plan := make([]wcTxn, wcPlan)
	for i := range plan {
		t := &plan[i]
		t.kind = txnPoint
		switch x := r.Float64(); {
		case x < 0.5:
		case x < 0.75 || own < 4:
			if next+4 <= len(slots) {
				t.kind = txnInsert
			}
		default:
			t.kind = txnDelete
		}
		switch t.kind {
		case txnPoint:
			for j := range t.keys {
				t.keys[j] = l.pre(hot[z.Uint64()])
			}
		case txnInsert:
			for j := range t.keys {
				t.keys[j] = l.fresh(client, slots[next])
				next++
			}
			own += 4
		case txnDelete:
			own -= 4
		}
	}
	return plan
}

type ownKey struct {
	k   int64
	rid gistdb.RID
}

// churnClient is one client's progress through its plan, kept across the
// halves of a traced run.
type churnClient struct {
	plan []wcTxn
	pos  int
	own  []ownKey // committed keys of its own, oldest first
}

func newChurn(g *gen, l churnLayout) []*churnClient {
	hot := g.perm(4, int(l.keys))
	st := make([]*churnClient, clients)
	for i := range st {
		st[i] = &churnClient{plan: planChurn(g, l, int64(i), hot)}
	}
	return st
}

// owned counts the keys the clients hold.
func owned(st []*churnClient) int {
	n := 0
	for _, s := range st {
		n += len(s.own)
	}
	return n
}

func openWriteChurn(dir string, ext extOps, quiet bool) (*handle, error) {
	opts := gistdb.Options{Dir: dir, Maintenance: &gistdb.MaintenanceOptions{}}
	if quiet {
		opts.Maintenance = nil
	}
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
	return &handle{db: db, bt: bt}, nil
}

// openLoaded opens the freshly loaded database in the load's pool, without
// maintenance.
func openLoaded(dir string) (*handle, error) {
	db, err := gistdb.Open(gistdb.Options{Dir: dir, PoolPages: rcPool})
	if err != nil {
		return nil, err
	}
	bt, err := db.OpenIndex("keys", btree.Ops{})
	if err != nil {
		db.Close()
		return nil, err
	}
	return &handle{db: db, bt: bt}, nil
}

// loadWriteChurn builds the database in dir and closes it. The load runs in
// a pool that holds all of it and without maintenance: with the timed
// phase's small pool every evicted page would wait for a log force.
func loadWriteChurn(dir string, g *gen) error {
	db, err := gistdb.Open(gistdb.Options{Dir: dir, PoolPages: rcPool})
	if err != nil {
		return err
	}
	bt, err := db.CreateIndex("keys", btree.Ops{})
	if err != nil {
		return err
	}
	keys := g.perm(1, wcKeys)
	err = inBatches(db, len(keys), func(tx *gistdb.Tx, i int) error {
		k := wcLayout.pre(keys[i])
		_, err := bt.Insert(tx, btree.EncodeKey(k), g.record(k, wcRec))
		return err
	})
	if err != nil {
		return err
	}
	return db.Close()
}

// mixChurn runs the churn mix for the given time; it returns the phase and
// the key+record bytes the committed inserts wrote.
func mixChurn(h *handle, e *env, l churnLayout, st []*churnClient, traced bool, seconds float64) (phase, int64) {
	userB := make([]int64, clients)
	t0 := time.Now()
	p := runClients(clients, func() *client { return newClient(h.db, e.g, traced) }, func(i int, c *client) {
		s := st[i]
		for ; s.pos < len(s.plan) && timeLeft(t0, seconds); s.pos++ {
			t := &s.plan[s.pos]
			if t.kind == txnDelete && len(s.own) < 4 {
				continue // an earlier insert failed; nothing of its own to delete
			}
			tx := c.begin(t.kind)
			if tx == nil {
				continue
			}
			ok := true
			var batch []ownKey
			switch t.kind {
			case txnPoint:
				for _, k := range t.keys {
					if ok = c.lookup(tx, h.bt, k, l.rec, true); !ok {
						break
					}
				}
			case txnInsert:
				for _, k := range t.keys {
					var rid gistdb.RID
					if rid, ok = c.insert(tx, h.bt, btree.EncodeKey(k), e.g.record(k, l.rec)); !ok {
						break
					}
					batch = append(batch, ownKey{k, rid})
				}
			case txnDelete:
				for _, o := range s.own[:4] {
					if ok = c.delete(tx, h.bt, btree.EncodeKey(o.k), o.rid); !ok {
						break
					}
				}
			}
			if !ok {
				c.abort(tx)
				continue
			}
			if !c.commit(tx, t.kind != txnPoint) {
				continue
			}
			switch t.kind {
			case txnInsert:
				s.own = append(s.own, batch...)
				userB[i] += int64(len(batch) * (8 + l.rec))
			case txnDelete:
				s.own = s.own[4:]
			}
		}
	})
	var total int64
	for _, b := range userB {
		total += b
	}
	return p, total
}

func runWriteChurn(e *env) (*outcome, error) {
	st := newChurn(e.g, wcLayout)
	out := &outcome{}
	// The restart after the load runs in the load's pool, so that it
	// replays the log rather than thrashing the timed phase's small pool;
	// the timed phase then gets its own instance.
	h, dir, err := setupFile(e, out,
		func(dir string) error { return loadWriteChurn(dir, e.g) },
		openLoaded,
		func(dir string, h *handle) (*handle, error) {
			if err := h.db.Close(); err != nil {
				return nil, err
			}
			return openWriteChurn(dir, extOps{}, false)
		})
	if err != nil {
		return nil, err
	}
	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	out.main, _ = mixChurn(h, e, wcLayout, st, false, seconds)
	if e.traced {
		// The same mix continued on a reopened instance with wrapped
		// extensions, fresh engine registries and a flight-recorder ring
		// that keeps every trace.
		if err := h.db.Close(); err != nil {
			return nil, err
		}
		ext := extOps{s: &extStats{}}
		if h, err = openWriteChurn(dir, ext, false); err != nil {
			return nil, err
		}
		var userB int64
		w := traceRun(h.db, ext, func() phase {
			var p phase
			p, userB = mixChurn(h, e, wcLayout, st, true, seconds)
			return p
		})
		w.userB = userB
		w.tpsOff = out.main.tps()
		out.main = merge(out.main, w.calls)
		out.trace = &w
	}

	// Every acknowledged insert is present, every acknowledged delete is
	// absent, every preloaded key is untouched: after a checkpoint, a clean
	// close and a reopen with the daemons off, the index holds exactly want,
	// checked by cursor scans over the whole range, 100 preloaded keys wide.
	want := make([]int64, 0, wcKeys+owned(st))
	for i := int64(0); i < wcKeys; i++ {
		want = append(want, wcLayout.pre(i))
	}
	for _, s := range st {
		for _, o := range s.own {
			want = append(want, o.k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	c := newClient(h.db, e.g, false)
	out.verify = phase{clients: []*client{c}}
	if !c.checkpointClose(h.db) {
		return out, nil
	}
	if h = c.reopen(func() (*handle, error) { return openWriteChurn(dir, extOps{}, true) }); h == nil {
		return out, nil
	}
	width := wcLayout.pre(100)
	out.verify = merge(out.verify, runClients(clients, func() *client { return newClient(h.db, e.g, false) }, func(i int, c *client) {
		for lo := width * int64(i); lo < wcLayout.pre(wcKeys); lo += width * clients {
			c.scanExpect(h.bt, lo, lo+width-1, want)
		}
	}))
	c.check(h.bt, len(want))
	if err := h.db.Close(); err != nil {
		return nil, err
	}
	out.spaceAmp = spaceAmp(dir, int64(len(want))*(8+wcRec))
	return out, nil
}
