package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/btree"
)

// op identifies one timed facade call.
type op int

const (
	opBegin      op = iota
	opPoint         // Index.Search with a btree point query
	opFetch         // Index.Fetch
	opScan          // Index.OpenCursor + Cursor.Next until exhausted + Cursor.Close
	opNext          // one Cursor.Next (timed only in traced runs)
	opWindow        // Index.Search with an rtree window
	opInsert        // Index.Insert
	opDelete        // Index.Delete
	opCommit        // Tx.Commit of a transaction that wrote
	opROCommit      // Tx.Commit of a read-only transaction
	opAbort         // Tx.Abort
	opRestart       // DB.SimulateCrash or gistdb.Open, plus DB.OpenIndex of every index
	opCheckpoint    // DB.Checkpoint
	opCheck         // Index.Check, the structural self-check
	numOps
)

var opNames = [numOps]string{
	"begin", "point", "fetch", "scan", "next", "window", "insert", "delete",
	"commit", "ro_commit", "abort", "restart", "checkpoint", "check",
}

// txnKind labels a transaction by the mix entry that issued it, so that a
// traced run can tell which flight-recorder traces belong to which calls.
type txnKind uint8

const (
	txnPoint txnKind = iota
	txnScan
	txnWindow
	txnInsert
	txnDelete
)

// errLimit caps how many failures per run are described on stderr.
const errLimit = 10

var errPrinted struct {
	sync.Mutex
	n int
}

// client is one closed-loop session: it issues facade calls one after the
// other and records the latency of each, and every failure. A wrong answer
// is a failure of the call that returned it. Nothing is retried.
type client struct {
	db     *gistdb.DB
	g      *gen
	traced bool

	lat       [numOps][]int64 // nanoseconds per successful call
	attempted [numOps]int64
	failed    [numOps]int64
	txns      int64              // committed transactions
	kinds     map[uint64]txnKind // traced runs: transaction id -> mix entry
	keyBuf    []int64
}

func newClient(db *gistdb.DB, g *gen, traced bool) *client {
	c := &client{db: db, g: g, traced: traced}
	if traced {
		c.kinds = make(map[uint64]txnKind)
	}
	return c
}

// done books one call that started at t0. It returns false if err is set.
func (c *client) done(o op, t0 time.Time, err error) bool {
	d := time.Since(t0).Nanoseconds()
	c.attempted[o]++
	if err != nil {
		c.failed[o]++
		report(opNames[o], err)
		return false
	}
	c.lat[o] = append(c.lat[o], d)
	return true
}

// wrong books a wrong answer from a call that already returned.
func (c *client) wrong(o op, format string, args ...any) bool {
	c.failed[o]++
	report(opNames[o], fmt.Errorf(format, args...))
	return false
}

func report(what string, err error) {
	errPrinted.Lock()
	defer errPrinted.Unlock()
	if errPrinted.n < errLimit {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: %s failed: %v\n", what, err)
	}
	errPrinted.n++
}

func (c *client) begin(kind txnKind) *gistdb.Tx {
	t0 := time.Now()
	tx, err := c.db.Begin()
	if !c.done(opBegin, t0, err) {
		return nil
	}
	if c.traced {
		c.kinds[tx.ID()] = kind
	}
	return tx
}

// commit commits tx; a failed commit is followed by an abort.
func (c *client) commit(tx *gistdb.Tx, wrote bool) bool {
	o := opROCommit
	if wrote {
		o = opCommit
	}
	t0 := time.Now()
	if !c.done(o, t0, tx.Commit()) {
		c.abort(tx)
		return false
	}
	c.txns++
	return true
}

// abort rolls back a transaction after a failed call. A transaction the
// engine already ended (a deadlock victim) needs no abort.
func (c *client) abort(tx *gistdb.Tx) {
	t0 := time.Now()
	err := tx.Abort()
	if errors.Is(err, gistdb.ErrNotActive) {
		return
	}
	c.done(opAbort, t0, err)
}

// lookup searches key k with a point query under RepeatableRead. When want is
// set the key must be the single hit and its record must be the one written
// for it (fetched with Index.Fetch); otherwise there must be no hit.
func (c *client) lookup(tx *gistdb.Tx, ix *gistdb.Index, k int64, recSize int, want bool) bool {
	q := btree.EncodeRange(k, k)
	t0 := time.Now()
	hits, err := ix.Search(tx, q, gistdb.RepeatableRead)
	if !c.done(opPoint, t0, err) {
		return false
	}
	if !want {
		if len(hits) != 0 {
			return c.wrong(opPoint, "key %d: %d hits, want none", k, len(hits))
		}
		return true
	}
	if len(hits) != 1 || btree.DecodeKey(hits[0].Key) != k {
		return c.wrong(opPoint, "key %d: got %d hits, want exactly that key", k, len(hits))
	}
	t0 = time.Now()
	rec, err := ix.Fetch(hits[0].RID)
	if !c.done(opFetch, t0, err) {
		return false
	}
	if !bytes.Equal(rec, c.g.record(k, recSize)) {
		return c.wrong(opFetch, "key %d: fetched record differs from the one written", k)
	}
	return true
}

// scan runs one cursor scan over the key interval [lo, hi] and returns the
// keys it produced in ascending order (the slice is reused by the next scan).
func (c *client) scan(tx *gistdb.Tx, ix *gistdb.Index, lo, hi int64, iso gistdb.Isolation) ([]int64, bool) {
	keys := c.keyBuf[:0]
	t0 := time.Now()
	cur, err := ix.OpenCursor(tx, btree.EncodeRange(lo, hi), iso)
	if err != nil {
		c.done(opScan, t0, err)
		return nil, false
	}
	for {
		var t1 time.Time
		if c.traced {
			t1 = time.Now()
		}
		r, ok, err := cur.Next()
		if c.traced && err == nil {
			c.done(opNext, t1, nil)
		}
		if err != nil {
			cur.Close()
			c.done(opScan, t0, err)
			return nil, false
		}
		if !ok {
			break
		}
		keys = append(keys, btree.DecodeKey(r.Key))
	}
	cur.Close()
	c.done(opScan, t0, nil)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	c.keyBuf = keys
	return keys, true
}

// window runs one rtree window search under RepeatableRead.
func (c *client) window(tx *gistdb.Tx, ix *gistdb.Index, q []byte) ([]gistdb.SearchResult, bool) {
	t0 := time.Now()
	hits, err := ix.Search(tx, q, gistdb.RepeatableRead)
	if !c.done(opWindow, t0, err) {
		return nil, false
	}
	return hits, true
}

func (c *client) insert(tx *gistdb.Tx, ix *gistdb.Index, key, rec []byte) (gistdb.RID, bool) {
	t0 := time.Now()
	rid, err := ix.Insert(tx, key, rec)
	return rid, c.done(opInsert, t0, err)
}

func (c *client) delete(tx *gistdb.Tx, ix *gistdb.Index, key []byte, rid gistdb.RID) bool {
	t0 := time.Now()
	return c.done(opDelete, t0, ix.Delete(tx, key, rid))
}

// check runs Index.Check, which fails on any broken structural invariant, and
// requires want live entries and no orphaned node.
func (c *client) check(ix *gistdb.Index, want int) bool {
	t0 := time.Now()
	rep, err := ix.Check()
	if !c.done(opCheck, t0, err) {
		return false
	}
	if rep.Entries != want || rep.Orphans != 0 {
		return c.wrong(opCheck, "index %s: %d live entries and %d orphans, want %d and 0",
			ix.Name(), rep.Entries, rep.Orphans, want)
	}
	return true
}

// phase is a set of clients that ran together, with the wall time they ran.
type phase struct {
	clients []*client
	elapsed time.Duration
}

// runClients runs body on n fresh clients in parallel until it returns, and
// returns the phase they made.
func runClients(n int, mk func() *client, body func(i int, c *client)) phase {
	p := phase{clients: make([]*client, n)}
	for i := range p.clients {
		p.clients[i] = mk()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range p.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			body(i, c)
		}(i, c)
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	for _, c := range p.clients {
		c.db = nil // the phase outlives the database; keep it collectable
	}
	return p
}

// merge folds the phases' clients into one record; elapsed adds up.
func merge(ps ...phase) phase {
	out := phase{}
	for _, p := range ps {
		out.clients = append(out.clients, p.clients...)
		out.elapsed += p.elapsed
	}
	return out
}

func (p phase) samples(o op) []int64 {
	var s []int64
	for _, c := range p.clients {
		s = append(s, c.lat[o]...)
	}
	return s
}

func (p phase) count(o op) int64 {
	var n int64
	for _, c := range p.clients {
		n += int64(len(c.lat[o]))
	}
	return n
}

func (p phase) sum(o op) int64 {
	var n int64
	for _, c := range p.clients {
		for _, d := range c.lat[o] {
			n += d
		}
	}
	return n
}

func (p phase) txns() int64 {
	var n int64
	for _, c := range p.clients {
		n += c.txns
	}
	return n
}

func (p phase) tps() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.txns()) / p.elapsed.Seconds()
}

func (p phase) tally() (attempted, failed int64) {
	for _, c := range p.clients {
		for o := op(0); o < numOps; o++ {
			attempted += c.attempted[o]
			failed += c.failed[o]
		}
	}
	return attempted, failed
}

// kinds merges the clients' transaction labels.
func (p phase) kinds() map[uint64]txnKind {
	out := make(map[uint64]txnKind)
	for _, c := range p.clients {
		for id, k := range c.kinds {
			out[id] = k
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of ns samples, in microseconds.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// median of float samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
