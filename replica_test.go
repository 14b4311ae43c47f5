// End-to-end tests for WAL-shipping replication through the public facade:
// a primary DB serving its Shipper over in-memory pipes, replicas opened
// with OpenReplica.
package gistdb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	gistdb "repro"
	"repro/internal/btree"
	"repro/internal/page"
	"repro/internal/stats"
)

// pipeDial returns a dial function wiring each connection to the primary's
// shipper over a fresh in-memory pipe.
func pipeDial(db *gistdb.DB) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		c, srv := net.Pipe()
		go db.Shipper().Serve(srv)
		return c, nil
	}
}

// waitApplied waits (bounded) until the replica has applied through the
// primary's current durable frontier.
func waitApplied(t *testing.T, db *gistdb.DB, rep *gistdb.ReplicaDB) {
	t.Helper()
	if err := db.WAL().FlushAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rep.WaitApplied(ctx, db.WAL().FlushedLSN()); err != nil {
		t.Fatalf("WaitApplied(%d): %v", db.WAL().FlushedLSN(), err)
	}
}

func searchAll(t *testing.T, rep *gistdb.ReplicaDB, ix *gistdb.ReplicaIndex) map[int64]gistdb.RID {
	t.Helper()
	tx, err := rep.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	hits, err := ix.Search(tx, btree.EncodeRange(-1<<40, 1<<40), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]gistdb.RID, len(hits))
	for _, h := range hits {
		out[btree.DecodeKey(h.Key)] = h.RID
	}
	return out
}

func TestReplicaServesCommittedReads(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, db, rep)

	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	got := searchAll(t, rep, rix)
	if len(got) != 50 {
		t.Fatalf("replica sees %d keys, want 50", len(got))
	}
	// Fetch reads the replicated heap records.
	rid, ok := got[17]
	if !ok {
		t.Fatal("key 17 missing")
	}
	rec, err := rix.Fetch(rid)
	if err != nil || string(rec) != "v17" {
		t.Fatalf("Fetch = %q, %v", rec, err)
	}

	// An uncommitted insert, even once shipped, stays invisible (the
	// dirty-insert filter); the commit makes it appear.
	dirty, _ := db.Begin()
	if _, err := idx.Insert(dirty, btree.EncodeKey(1000), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	if got := searchAll(t, rep, rix); len(got) != 50 {
		t.Fatalf("uncommitted insert visible: %d keys, want 50", len(got))
	}
	if err := dirty.Commit(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	if got := searchAll(t, rep, rix); len(got) != 51 {
		t.Fatalf("committed insert not visible: %d keys, want 51", len(got))
	}

	// Structural invariants hold at the applied state.
	if _, err := rix.Check(); err != nil {
		t.Fatalf("replica invariants: %v", err)
	}

	// Cursor over the materialized result set.
	tx, _ := rep.Begin()
	cur, err := rix.OpenCursor(tx, btree.EncodeRange(0, 9), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	cur.Close()
	tx.Close()
	if n != 10 {
		t.Fatalf("cursor visited %d entries, want 10", n)
	}

	m := rep.Metrics()
	if m["repl.apply_batches"] == 0 || m["repl.apply_records"] == 0 {
		t.Fatalf("apply counters missing: %v", m["repl.apply_batches"])
	}
	if db.Metrics()["repl.ship_batches"] == 0 {
		t.Fatal("primary ship counters missing")
	}
}

// flakyConn cuts the transport after a fixed number of Read calls. Over
// net.Pipe a frame arrives as two reads (header, payload), so an odd limit
// cuts mid-batch; any limit ≥ 2 still lets at least one complete frame
// through per connection, so the replica always makes progress between cuts.
type flakyConn struct {
	inner net.Conn
	mu    sync.Mutex
	reads int
}

var errFlakyCut = errors.New("flaky transport cut")

func (c *flakyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads--
	left := c.reads
	c.mu.Unlock()
	if left < 0 {
		c.inner.Close()
		return 0, errFlakyCut
	}
	return c.inner.Read(p)
}

func (c *flakyConn) Write(p []byte) (int, error) { return c.inner.Write(p) }
func (c *flakyConn) Close() error                { return c.inner.Close() }

// TestReplicaReconnectConverges is the resume-equivalence test: a replica
// whose transport dies every few hundred bytes (often mid-batch) must
// converge to the same applied LSN and byte-identical page images as one
// that streamed without interruption.
func TestReplicaReconnectConverges(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	flakyDial := func() (io.ReadWriteCloser, error) {
		c, srv := net.Pipe()
		go db.Shipper().Serve(srv)
		return &flakyConn{inner: c, reads: 2 + rng.Intn(8)}, nil
	}

	flaky, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, flakyDial)
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	stable, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()

	for i := 0; i < 200; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := db.WAL().FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitApplied(t, db, flaky)
	waitApplied(t, db, stable)

	if a, b := flaky.AppliedLSN(), stable.AppliedLSN(); a != b {
		t.Fatalf("applied LSNs diverge: flaky %d, stable %d", a, b)
	}
	if flaky.Metrics()["repl.reconnects"] == 0 {
		t.Fatal("flaky transport never reconnected; the test exercised nothing")
	}

	// Byte-identical page images after both pools write back.
	if err := gistdb.ReplicaFlushPool(flaky); err != nil {
		t.Fatal(err)
	}
	if err := gistdb.ReplicaFlushPool(stable); err != nil {
		t.Fatal(err)
	}
	fm, sm := gistdb.ReplicaMem(flaky), gistdb.ReplicaMem(stable)
	fids, sids := fm.PageIDs(), sm.PageIDs()
	sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	if len(fids) != len(sids) {
		t.Fatalf("allocated pages diverge: %d vs %d", len(fids), len(sids))
	}
	bufA := make([]byte, page.Size)
	bufB := make([]byte, page.Size)
	for i, id := range fids {
		if id != sids[i] {
			t.Fatalf("page id sets diverge at %d: %d vs %d", i, id, sids[i])
		}
		if err := fm.ReadPage(id, bufA); err != nil {
			t.Fatal(err)
		}
		if err := sm.ReadPage(id, bufB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("page %d images diverge after reconnects", id)
		}
	}
}

// stallConn can freeze its Write side on command, simulating a replica
// whose acks stop flowing without disconnecting: the shipper's strict
// batch/ack alternation then freezes the session's acked LSN (at most one
// already-shipped batch still applies replica-side).
type stallConn struct {
	inner   net.Conn
	mu      sync.Mutex
	stalled chan struct{} // non-nil while stalled; closed to release
}

func (c *stallConn) Read(p []byte) (int, error) { return c.inner.Read(p) }
func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	ch := c.stalled
	c.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return c.inner.Write(p)
}
func (c *stallConn) Close() error { return c.inner.Close() }

func (c *stallConn) stall() {
	c.mu.Lock()
	if c.stalled == nil {
		c.stalled = make(chan struct{})
	}
	c.mu.Unlock()
}

func (c *stallConn) release() {
	c.mu.Lock()
	if c.stalled != nil {
		close(c.stalled)
		c.stalled = nil
	}
	c.mu.Unlock()
}

// TestReplicaClampsLogTruncation: a stalled (lagging but connected) replica
// must hold the primary's log head so it can resume; releasing the stall
// lets both the replica and the truncator advance.
func TestReplicaClampsLogTruncation(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{
		MaxEntries:  8,
		Maintenance: &gistdb.MaintenanceOptions{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}

	var connMu sync.Mutex
	var conn *stallConn
	dial := func() (io.ReadWriteCloser, error) {
		c, srv := net.Pipe()
		go db.Shipper().Serve(srv)
		sc := &stallConn{inner: c}
		connMu.Lock()
		conn = sc
		connMu.Unlock()
		return sc, nil
	}

	insert := func(lo, n int) {
		t.Helper()
		for i := lo; i < lo+n; i++ {
			tx, _ := db.Begin()
			if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	insert(0, 30)
	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, db, rep)
	ackedAtStall := rep.AppliedLSN()

	// Freeze the replica's consumption, then produce and checkpoint enough
	// that truncation would otherwise advance well past the stall point.
	connMu.Lock()
	conn.stall()
	connMu.Unlock()
	insert(30, 30)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickTruncate(); err != nil {
		t.Fatal(err)
	}
	if base := db.WAL().Base(); base > ackedAtStall {
		t.Fatalf("truncation cut to %d, past the stalled subscriber's ack %d", base, ackedAtStall)
	}

	// Release: the replica's acks flow again, and a later truncation may
	// then pass the old stall point.
	connMu.Lock()
	conn.release()
	connMu.Unlock()
	waitApplied(t, db, rep)
	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	if got := searchAll(t, rep, rix); len(got) != 60 {
		t.Fatalf("replica sees %d keys after release, want 60", len(got))
	}
	// Wait until the primary has seen an ack past the stall point (acks
	// travel on their own cadence; the lag gauge is the observable).
	deadline := time.Now().Add(10 * time.Second)
	for db.Metrics()["repl.min_acked_lsn"] <= int64(ackedAtStall) {
		if time.Now().After(deadline) {
			t.Fatalf("min acked stuck at %d", db.Metrics()["repl.min_acked_lsn"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := db.Maintenance().TickCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickTruncate(); err != nil {
		t.Fatal(err)
	}
	if base := db.WAL().Base(); base <= ackedAtStall {
		t.Fatalf("truncation still pinned at %d after the replica caught up", base)
	}
}

// TestReplicaSnapshotResync: a replica arriving after the primary truncated
// its log head is seeded with a full snapshot and then streams normally.
func TestReplicaSnapshotResync(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{
		MaxEntries:  8,
		Maintenance: &gistdb.MaintenanceOptions{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickTruncate(); err != nil {
		t.Fatal(err)
	}
	if db.WAL().Base() == 0 {
		t.Fatal("log head did not move; snapshot path not exercised")
	}

	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, db, rep)
	if rep.Metrics()["repl.snapshot_loads"] != 1 {
		t.Fatalf("snapshot_loads = %d, want 1", rep.Metrics()["repl.snapshot_loads"])
	}

	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	if got := searchAll(t, rep, rix); len(got) != 40 {
		t.Fatalf("snapshot-seeded replica sees %d keys, want 40", len(got))
	}

	// The stream continues past the snapshot.
	tx, _ := db.Begin()
	if _, err := idx.Insert(tx, btree.EncodeKey(999), []byte("after-snap")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	if got := searchAll(t, rep, rix); len(got) != 41 {
		t.Fatalf("post-snapshot stream lost: %d keys, want 41", len(got))
	}
	if _, err := rix.Check(); err != nil {
		t.Fatalf("replica invariants after snapshot resync: %v", err)
	}
}

// TestReplicaSnapshotResyncInFlight: the snapshot stream must start at the
// oldest in-flight transaction's first record, not at the flushed
// watermark, so the seeded replica's log/ATT/dirty-filter cover
// transactions that were open at snapshot time. The replica must (a) hide
// the uncommitted insert from reads even though the seed images already
// contain it, and (b) undo it at promotion.
func TestReplicaSnapshotResyncInFlight(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{
		MaxEntries:  8,
		Maintenance: &gistdb.MaintenanceOptions{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k int64) {
		t.Helper()
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(k), []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		insert(int64(i))
	}
	// An in-flight transaction straddling the snapshot: its records predate
	// the flushed watermark the snapshot is cut at, and it is still open
	// when the replica attaches.
	inflight, _ := db.Begin()
	if _, err := idx.Insert(inflight, btree.EncodeKey(777), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		insert(int64(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Maintenance().TickTruncate(); err != nil {
		t.Fatal(err)
	}
	if db.WAL().Base() == 0 {
		t.Fatal("log head did not move; snapshot path not exercised")
	}

	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, db, rep)
	if rep.Metrics()["repl.snapshot_loads"] != 1 {
		t.Fatalf("snapshot_loads = %d, want 1", rep.Metrics()["repl.snapshot_loads"])
	}

	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	got := searchAll(t, rep, rix)
	if len(got) != 40 {
		t.Fatalf("snapshot-seeded replica sees %d keys, want 40", len(got))
	}
	if _, leaked := got[777]; leaked {
		t.Fatal("uncommitted in-flight insert visible on snapshot-seeded replica")
	}

	// Failover: the in-flight transaction is exactly restart's loser — the
	// promoted replica must have undone it.
	ndb, err := rep.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer ndb.Close()
	nix, err := ndb.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := ndb.Begin()
	defer tx.Commit()
	hits, err := nix.Search(tx, btree.EncodeRange(-1<<40, 1<<40), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 40 {
		t.Fatalf("promoted replica has %d entries, want 40 (in-flight txn must be undone)", len(hits))
	}
	for _, h := range hits {
		if btree.DecodeKey(h.Key) == 777 {
			t.Fatal("uncommitted insert survived promotion: loser not undone after snapshot resync")
		}
	}
	if _, err := nix.Check(); err != nil {
		t.Fatalf("promoted replica invariants: %v", err)
	}
	_ = inflight // still open on the primary; Close aborts it
}

// TestReplicaPromote: failover. The replica drains, rolls back in-flight
// transactions from the shipped history, and comes up as a read-write
// primary that accepts new transactions.
func TestReplicaPromote(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// An in-flight transaction at failover time: its inserts ship but its
	// commit never will. Promotion must roll it back.
	loser, _ := db.Begin()
	for i := 100; i < 105; i++ {
		if _, err := idx.Insert(loser, btree.EncodeKey(int64(i)), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	if got := searchAll(t, rep, rix); len(got) != 20 {
		t.Fatalf("replica sees %d keys before promote, want 20 committed", len(got))
	}

	// Failover: the primary is "dead" from here on (we only Close it).
	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if _, err := rep.Begin(); !errors.Is(err, gistdb.ErrPromoted) {
		t.Fatalf("replica Begin after promote: %v, want ErrPromoted", err)
	}

	// The open index carried over; the losers' keys are gone; new writes
	// land.
	pidx, err := promoted.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := promoted.Begin()
	if err != nil {
		t.Fatal(err)
	}
	hits, err := pidx.Search(tx, btree.EncodeRange(-1<<40, 1<<40), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 20 {
		t.Fatalf("promoted primary sees %d keys, want 20 (losers rolled back)", len(hits))
	}
	if _, err := pidx.Insert(tx, btree.EncodeKey(500), []byte("post-promote")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := promoted.Begin()
	hits, err = pidx.Search(tx2, btree.EncodeRange(-1<<40, 1<<40), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 21 {
		t.Fatalf("promoted primary sees %d keys after new write, want 21", len(hits))
	}
	if _, err := pidx.Check(); err != nil {
		t.Fatalf("promoted primary invariants: %v", err)
	}
	_ = loser // still open on the old primary; irrelevant after failover
}

// TestPromotedReplicaTraces: a primary that came from a promoted replica
// keeps the flight recorder. Its operations and commits are traced into
// RecentOps, through indexes opened on the replica before the failover and
// on the new primary after it.
func TestPromotedReplicaTraces(t *testing.T) {
	if !stats.Enabled {
		t.Skip("statsoff build: instrumentation compiled out")
	}
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if _, err := idx.Insert(tx, btree.EncodeKey(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	if _, err := rep.OpenIndex("ints", btree.Ops{}); err != nil {
		t.Fatal(err)
	}
	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	pidx, err := promoted.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err = promoted.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pidx.Insert(tx, btree.EncodeKey(2), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range promoted.RecentOps() {
		if op.Txn == tx.ID() {
			seen[op.Op] = true
		}
	}
	if !seen["insert"] || !seen["commit"] {
		t.Fatalf("promoted primary traced %v for the committed insert's transaction, want insert and commit", seen)
	}
}

// TestReplicaChurnConverges drives a concurrent insert/delete workload —
// the mix that leaves heap pages full of killed slots — and requires the
// replica to replay it in full. Regression: redo's EnsureSlot must compact
// a garbage-bearing page before growing the slot directory, exactly as the
// primary's original insert did; without that the replica diverges with a
// spurious page-full once a heap page cycles through enough deletes.
func TestReplicaChurnConverges(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("churn", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gistdb.OpenReplica(gistdb.Options{PoolPages: 4096}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	var wg sync.WaitGroup
	for gid := 0; gid < 4; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gid)))
			type kr struct {
				key int64
				rid gistdb.RID
			}
			var committed []kr
			next := int64(gid+1) << 32
			for i := 0; i < 800; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(10) < 7 || len(committed) == 0 {
					key := next
					next++
					rid, err := idx.Insert(tx, btree.EncodeKey(key), []byte(fmt.Sprintf("v-%d", key)))
					if err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					committed = append(committed, kr{key, rid})
				} else {
					j := rng.Intn(len(committed))
					e := committed[j]
					if err := idx.Delete(tx, btree.EncodeKey(e.key), e.rid); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					committed = append(committed[:j], committed[j+1:]...)
				}
			}
		}(gid)
	}
	wg.Wait()

	waitApplied(t, db, rep)

	ridx, err := rep.OpenIndex("churn", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	replicaKeys := searchAll(t, rep, ridx)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(tx, btree.EncodeRange(-1<<62, 1<<62), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(replicaKeys) {
		t.Fatalf("primary has %d keys, replica %d", len(hits), len(replicaKeys))
	}
	for _, h := range hits {
		key := btree.DecodeKey(h.Key)
		if _, ok := replicaKeys[key]; !ok {
			t.Fatalf("key %d on primary missing from replica", key)
		}
	}
	// Spot-check payloads through the replica's heap.
	n := 0
	for key, rid := range replicaKeys {
		got, err := ridx.Fetch(rid)
		if err != nil {
			t.Fatalf("fetch %d: %v", key, err)
		}
		if want := fmt.Sprintf("v-%d", key); string(got) != want {
			t.Fatalf("key %d payload = %q, want %q", key, got, want)
		}
		if n++; n >= 200 {
			break
		}
	}
}
