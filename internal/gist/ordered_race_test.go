package gist_test

// Race tests for the interval-ordered node search: readers search one hot
// leaf while writers insert into it, delete from it and split it, and
// readers search a tree whose frames are remapped all the time by a pool
// far smaller than the tree. Every answer is checked against a model, so
// a stale slot order — one built for another page version or another page
// — would show as a wrong answer.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
	"repro/internal/txn"
)

// countedBounds forwards btree's Intervals capability and counts its
// Bounds calls, which only order builds and ordered searches make.
type countedBounds struct {
	btree.Ops
	calls *atomic.Int64
}

func (o countedBounds) Bounds(pred []byte) (lo, hi []byte) {
	o.calls.Add(1)
	return o.Ops.Bounds(pred)
}

// Key states of the model: a key moves 0 → inserting → live → deleting →
// gone, each step taken after the transaction that causes it commits.
const (
	keyAbsent int32 = iota
	keyInserting
	keyLive
	keyDeleting
	keyGone
)

// keyModel tracks the committed state of every key a test writes.
type keyModel struct{ state []atomic.Int32 }

func newKeyModel(n int) *keyModel { return &keyModel{state: make([]atomic.Int32, n)} }

// check compares a search's keys over [lo, hi] with the model: a key live
// from before the search began until after it ended must be found, a key
// gone before it began or never inserted by its end must not be, and no
// key may repeat.
func (m *keyModel) check(t *testing.T, lo, hi int64, before []int32, rs []gist.SearchResult) {
	t.Helper()
	seen := make(map[int64]bool, len(rs))
	for _, r := range rs {
		k := btree.DecodeKey(r.Key)
		switch {
		case k < lo || k > hi:
			t.Errorf("search [%d,%d] returned key %d", lo, hi, k)
		case seen[k]:
			t.Errorf("search [%d,%d] returned key %d twice", lo, hi, k)
		case before[k-lo] == keyGone:
			t.Errorf("search [%d,%d] returned key %d deleted before it began", lo, hi, k)
		case m.state[k].Load() == keyAbsent:
			t.Errorf("search [%d,%d] returned key %d never inserted", lo, hi, k)
		}
		seen[k] = true
	}
	for k := lo; k <= hi; k++ {
		if before[k-lo] == keyLive && m.state[k].Load() == keyLive && !seen[k] {
			t.Errorf("search [%d,%d] missed key %d live throughout", lo, hi, k)
		}
	}
}

// search runs one ReadCommitted search of [lo, hi] and checks it.
func (m *keyModel) search(t *testing.T, e *env, lo, hi int64) {
	before := make([]int32, hi-lo+1)
	for k := lo; k <= hi; k++ {
		before[k-lo] = m.state[k].Load()
	}
	tx, err := e.tm.Begin()
	if err != nil {
		t.Error(err)
		return
	}
	defer tx.Commit()
	rs, err := e.tree.Search(tx, btree.EncodeRange(lo, hi), gist.ReadCommitted)
	if err != nil {
		t.Errorf("search [%d,%d]: %v", lo, hi, err)
		return
	}
	m.check(t, lo, hi, before, rs)
}

// churn inserts the keys of ks, one transaction each, and after every
// third insert deletes the key inserted before it, keeping the model
// current. Each key belongs to one churn call.
func (m *keyModel) churn(t *testing.T, e *env, ks []int64) {
	rids := make(map[int64]page.RID, len(ks))
	step := func(k int64, from, to int32, do func(tx *txn.Txn) error) bool {
		tx, err := e.tm.Begin()
		if err != nil {
			t.Error(err)
			return false
		}
		m.state[k].Store(from)
		if err := do(tx); err != nil {
			t.Errorf("key %d: %v", k, err)
			tx.Abort()
			return false
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return false
		}
		m.state[k].Store(to)
		return true
	}
	for i, k := range ks {
		if !step(k, keyInserting, keyLive, func(tx *txn.Txn) error {
			rid, err := e.heap.Insert(tx, []byte("r"))
			if err == nil {
				rids[k] = rid
				err = e.tree.Insert(tx, btree.EncodeKey(k), rid)
			}
			return err
		}) {
			return
		}
		if i%3 != 2 {
			continue
		}
		d := ks[i-1]
		if !step(d, keyDeleting, keyGone, func(tx *txn.Txn) error {
			return e.tree.Delete(tx, btree.EncodeKey(d), rids[d])
		}) {
			return
		}
	}
}

// TestOptimisticOrderedHotLeaf: readers point-search and scan one leaf of
// byte-bound entries while two writers insert into it, delete from it and
// split it. The orders the readers build and search must never answer for
// an image they were not built from.
func TestOptimisticOrderedHotLeaf(t *testing.T) {
	var bounds atomic.Int64
	e := newEnv(t, gist.Config{Ops: countedBounds{btree.Ops{}, &bounds}})
	const n = 1200
	m := newKeyModel(n)
	for k := int64(0); k < n; k += 4 { // the stable keys, one leaf's worth
		e.put(k)
		m.state[k].Store(keyLive)
	}
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	for w := int64(0); w < 2; w++ {
		var ks []int64
		for k := 1 + 2*w; k < n; k += 4 {
			ks = append(ks, k)
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			m.churn(t, e, ks)
		}()
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; !stop.Load(); i++ {
				lo := rng.Int63n(n)
				hi := lo
				if i%8 == 0 {
					hi = min(lo+rng.Int63n(100), n-1)
				}
				m.search(t, e, lo, hi)
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if rep := e.checkTree(); rep.Entries == 0 {
		t.Fatal("empty tree")
	}
	if bounds.Load() == 0 {
		t.Error("no order was built or searched")
	}
}

// TestOptimisticOrderedEvictionChurn: point searches and scans over a
// tree several times the pool, with a writer changing it, so frames are
// remapped to other pages all the time and the orders they carry go
// stale by page and by version.
func TestOptimisticOrderedEvictionChurn(t *testing.T) {
	var bounds atomic.Int64
	e := newEnvWithPool(t, gist.Config{Ops: countedBounds{btree.Ops{}, &bounds}, MaxEntries: 48}, 24)
	const n = 3000
	m := newKeyModel(n)
	for k := int64(0); k < n; k += 2 {
		e.put(k)
		m.state[k].Store(keyLive)
	}
	var ks []int64
	for k := int64(1); k < n; k += 6 {
		ks = append(ks, k)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		m.churn(t, e, ks)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; !stop.Load(); i++ {
				// Half the searches hit a small hot set, whose frames stay
				// resident long enough to carry orders; the rest evict.
				lo := rng.Int63n(n)
				if i%2 == 0 {
					lo = rng.Int63n(64)
				}
				hi := lo
				if i%16 == 0 {
					hi = min(lo+rng.Int63n(40), n-1)
				}
				m.search(t, e, lo, hi)
			}
		}(r)
	}
	wg.Wait()
	if misses := e.pool.Metrics().Value("buffer.misses"); misses == 0 {
		t.Error("no buffer misses: no frame was remapped")
	}
	if bounds.Load() == 0 {
		t.Error("no order was built or searched")
	}
	e.checkTree()
}

// countedChoice is countedBounds that also counts Penalty calls, which
// the insert descent makes where its choice has no entry containing the
// key, or no current order at all.
type countedChoice struct {
	countedBounds
	penalties *atomic.Int64
}

func (o countedChoice) Penalty(bp, key []byte) float64 {
	o.penalties.Add(1)
	return o.Ops.Penalty(bp, key)
}

// TestOptimisticOrderedAppends: two writers append ascending keys, and
// delete some, while readers point-search and scan behind them. Every
// append lies past every entry, so it widens the rightmost entry of each
// node on its path and carries that node's slot order to the version its
// release produces. An order carried for an image it does not describe
// would show as a wrong answer; and the appends must have found their
// subtrees through the carried orders, not by walking every entry.
func TestOptimisticOrderedAppends(t *testing.T) {
	var bounds, penalties atomic.Int64
	e := newEnv(t, gist.Config{Ops: countedChoice{countedBounds{btree.Ops{}, &bounds}, &penalties}, MaxEntries: 32})
	const n = 2400
	m := newKeyModel(n)
	for k := int64(0); k < 200; k++ {
		e.put(k)
		m.state[k].Store(keyLive)
	}
	penalties.Store(0)
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	for w := int64(0); w < 2; w++ {
		var ks []int64
		for k := 200 + w; k < n; k += 2 {
			ks = append(ks, k)
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			m.churn(t, e, ks)
		}()
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; !stop.Load(); i++ {
				lo := rng.Int63n(n)
				hi := lo
				if i%8 == 0 {
					hi = min(lo+rng.Int63n(100), n-1)
				}
				m.search(t, e, lo, hi)
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	e.checkTree()
	perAppend := float64(penalties.Load()) / (n - 200)
	t.Logf("%.1f Penalty calls per append", perAppend)
	if perAppend > 11 {
		t.Errorf("%.1f Penalty calls per append, want at most 11 (walking every entry of each node on the path costs about 16)", perAppend)
	}
}
