// Replica facade: a streaming read replica over the log-shipping subsystem
// (internal/repl), and its promotion into a full read-write DB.
//
// A ReplicaDB is "crash recovery that never ends": an in-memory engine whose
// only writer is the replication stream. Shipped records are appended to the
// replica's own log verbatim and repeated through restart's redo machinery;
// between batches the replica holds a state some crash-restart of the
// primary could have produced, and that is the state reads observe. Reads
// run as read-only transactions (no logging — the replica log belongs to the
// stream) under the receiver's apply gate, with a dirty-insert filter so
// records of transactions whose commit has not yet been shipped stay
// invisible.
//
// Promote turns the replica into a primary: the stream is drained, in-flight
// transactions from the shipped history are rolled back (CLRs written to the
// now read-write replica log), and the same parts — disk, log, pool, trees —
// reassemble into a DB that accepts writes and can itself ship its log.
package gistdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrPromoted is returned by replica operations after Promote has flipped
// the replica into a primary.
var ErrPromoted = repl.ErrPromoted

// ReplicaDB is a streaming read replica: an in-memory engine fed by a
// primary's log-shipping stream, serving read-only transactions at a bounded
// lag behind the primary, promotable on failover.
type ReplicaDB struct {
	// eng holds the engine parts (disk, log, pool, managers, heap, flight
	// recorder); the stream is their only writer until Promote hands them
	// over as the new primary.
	eng  *DB
	recv *repl.Receiver

	mu       sync.Mutex
	indexes  map[string]*ReplicaIndex
	closed   bool
	promoted bool
}

// OpenReplica starts a replica of the primary reachable through dial (called
// once per connect and reconnect; use repl-framed transports such as the
// primary DB's Shipper over net.Pipe or TCP). The replica is always
// in-memory — its durability is the primary's log — so opts.Dir must be
// empty. Streaming begins immediately; use WaitApplied to rendezvous with a
// known primary LSN before opening indexes.
func OpenReplica(opts Options, dial func() (io.ReadWriteCloser, error)) (*ReplicaDB, error) {
	if opts.Dir != "" {
		return nil, errors.New("gistdb: replicas are in-memory (Options.Dir must be empty)")
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 1024
	}
	r := &ReplicaDB{
		eng:     newDB(opts, storage.NewMemDisk(), wal.NewReplicaLog(0)),
		indexes: make(map[string]*ReplicaIndex),
	}
	r.recv = repl.NewReceiver(repl.ReceiverDeps{
		Log:  r.eng.log,
		Pool: r.eng.pool,
		Disk: r.eng.mem, // snapshot loads install page images under the pool
		TM:   r.eng.tm,
	}, dial)
	r.recv.Start()
	return r, nil
}

// AppliedLSN is the LSN through which the replica has repeated history.
func (r *ReplicaDB) AppliedLSN() page.LSN { return r.recv.AppliedLSN() }

// Lag is the primary's last reported flushed watermark minus the applied
// LSN: how far (in log positions) reads trail the primary's durable state.
func (r *ReplicaDB) Lag() page.LSN { return r.recv.Lag() }

// WaitApplied blocks until the replica has applied through lsn, ctx fires,
// or the stream dies with a terminal error.
func (r *ReplicaDB) WaitApplied(ctx context.Context, lsn page.LSN) error {
	return r.recv.WaitApplied(ctx, lsn)
}

// Err returns the stream's terminal error, if any (a replica that must be
// rebuilt from a fresh OpenReplica reports repl.ErrResyncRequired here).
func (r *ReplicaDB) Err() error { return r.recv.Err() }

// Metrics merges the replica engine's counter registries, including the
// receiver's repl.* counters (with the repl.apply_lag histogram), the
// continuous-redo applier's recovery.* registry, and the apply-lag gauge.
func (r *ReplicaDB) Metrics() map[string]int64 {
	m := r.eng.Metrics()
	r.recv.Metrics().CollectInto(m)
	r.recv.ApplierMetrics().CollectInto(m)
	return m
}

// OpenIndex opens an index replicated from the primary, by catalog name.
// The catalog entry must already have been applied (WaitApplied past the
// primary LSN of its CreateIndex first).
func (r *ReplicaDB) OpenIndex(name string, ops Ops) (*ReplicaIndex, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if ix, ok := r.indexes[name]; ok {
		return ix, nil
	}
	// The apply gate freezes the catalog page and the anchor while we read
	// one and pin the other.
	r.recv.RLock()
	defer r.recv.RUnlock()
	anchor, err := readCatalogAt(r.eng.pool, catalogPage, name)
	if err != nil {
		return nil, err
	}
	tree, err := gist.Open(r.eng.pool, r.eng.tm, treeConfig(r.eng.opts, r.eng.recorder, ops), anchor)
	if err != nil {
		return nil, err
	}
	ix := &ReplicaIndex{db: r, tree: tree, name: name}
	r.indexes[name] = ix
	return ix, nil
}

// Begin starts a read-only transaction. Replica transactions never log;
// they take locks and predicates for isolation against other local readers,
// but the stream does not respect them — each individual read observes an
// atomic log-prefix state (the apply gate), while repeatable reads across
// batches are not guaranteed. ReadCommitted is the natural level here.
func (r *ReplicaDB) Begin() (*ReplicaTx, error) {
	r.mu.Lock()
	bad := r.closed || r.promoted
	r.mu.Unlock()
	if bad {
		return nil, ErrPromoted
	}
	t, err := r.eng.tm.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	return &ReplicaTx{db: r, inner: t}, nil
}

// Promote flips the replica into a primary and returns the resulting
// read-write DB, which owns the replica's engine parts from here on. The
// stream is stopped, the transaction-id counter advanced past everything in
// the shipped history, and the in-flight transactions of that history —
// exactly restart's losers — are rolled back through the registered undo
// handlers. Indexes already open on the replica carry over under the same
// names; others open normally via DB.OpenIndex.
//
// The ReplicaDB is closed by promotion; subsequent replica operations
// return ErrPromoted.
func (r *ReplicaDB) Promote() (*DB, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.promoted {
		r.mu.Unlock()
		return nil, ErrPromoted
	}
	r.promoted = true
	r.mu.Unlock()

	if _, err := r.recv.Promote(func() error {
		gist.RegisterRecoveryHandlers(r.eng.tm, r.eng.pool)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("gistdb: promote: %w", err)
	}

	db := r.eng
	r.mu.Lock()
	for name, rix := range r.indexes {
		db.indexes[name] = &Index{db: db, tree: rix.tree, name: name}
	}
	r.closed = true
	r.mu.Unlock()
	db.startMaintenance()
	return db, nil
}

// Close stops streaming and releases the replica. A promoted replica's
// parts live on in the returned DB; Close after Promote is a no-op.
func (r *ReplicaDB) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	ixs := make([]*ReplicaIndex, 0, len(r.indexes))
	for _, ix := range r.indexes {
		ixs = append(ixs, ix)
	}
	r.mu.Unlock()
	r.recv.Stop()
	for _, ix := range ixs {
		ix.tree.Close()
	}
	return nil
}

// ReplicaTx is a read-only transaction on a replica.
type ReplicaTx struct {
	db    *ReplicaDB
	inner *txn.Txn
	done  bool
}

// ID returns the transaction identifier (drawn from the read-only id space,
// disjoint from every id the shipped history can contain).
func (tx *ReplicaTx) ID() uint64 { return uint64(tx.inner.ID()) }

// Close ends the transaction, releasing its locks and predicates.
// Idempotent.
func (tx *ReplicaTx) Close() error {
	if tx.done {
		return nil
	}
	tx.done = true
	if err := tx.inner.Abort(); err != nil && !errors.Is(err, ErrNotActive) {
		return err
	}
	return nil
}

// ReplicaIndex is a read-only view of one replicated index.
type ReplicaIndex struct {
	db   *ReplicaDB
	tree *gist.Tree
	name string
}

// Name returns the index's catalog name.
func (ix *ReplicaIndex) Name() string { return ix.name }

// Anchor returns the index's anchor page id.
func (ix *ReplicaIndex) Anchor() page.PageID { return ix.tree.Anchor() }

// Search returns all committed entries whose keys are consistent with
// query. The whole search runs under the apply gate, so it observes one
// atomic log-prefix state; entries inserted by transactions whose commit
// has not yet been shipped are filtered out.
func (ix *ReplicaIndex) Search(tx *ReplicaTx, query []byte, iso Isolation) ([]SearchResult, error) {
	ix.db.recv.RLock()
	defer ix.db.recv.RUnlock()
	res, err := ix.tree.Search(tx.inner, query, iso)
	if err != nil {
		return nil, err
	}
	return ix.filterVisible(res), nil
}

// SearchCtx is Search honoring ctx at every node-visit boundary.
func (ix *ReplicaIndex) SearchCtx(ctx context.Context, tx *ReplicaTx, query []byte, iso Isolation) ([]SearchResult, error) {
	ix.db.recv.RLock()
	defer ix.db.recv.RUnlock()
	res, err := ix.tree.SearchCtx(ctx, tx.inner, query, iso)
	if err != nil {
		return nil, err
	}
	return ix.filterVisible(res), nil
}

func (ix *ReplicaIndex) filterVisible(res []SearchResult) []SearchResult {
	out := res[:0]
	for _, sr := range res {
		if ix.db.recv.Visible(sr.RID) {
			out = append(out, sr)
		}
	}
	return out
}

// Fetch reads the data record a search hit points at. It returns
// ErrNoRecord for records not (or no longer) committed in the shipped
// history — a later batch may physically remove an aborted transaction's
// record that an earlier Search returned.
func (ix *ReplicaIndex) Fetch(rid RID) ([]byte, error) {
	ix.db.recv.RLock()
	defer ix.db.recv.RUnlock()
	if !ix.db.recv.Visible(rid) {
		return nil, ErrNoRecord
	}
	return ix.db.eng.heap.Read(rid)
}

// OpenCursor starts a scan. Replica cursors are materialized: the full
// result set is captured under the apply gate at open (one atomic
// log-prefix state), then served incrementally — a live suspended traversal
// cannot be left parked on pages the stream may reorganize or free, because
// the applier replays node deletions and page frees at once, with no drain
// for the replica's readers.
func (ix *ReplicaIndex) OpenCursor(tx *ReplicaTx, query []byte, iso Isolation) (*ReplicaCursor, error) {
	res, err := ix.Search(tx, query, iso)
	if err != nil {
		return nil, err
	}
	return &ReplicaCursor{results: res}, nil
}

// ReplicaCursor iterates a materialized replica result set.
type ReplicaCursor struct {
	results []SearchResult
	pos     int
}

// Next returns the next matching entry; ok is false when exhausted.
func (c *ReplicaCursor) Next() (SearchResult, bool, error) {
	if c.pos >= len(c.results) {
		return SearchResult{}, false, nil
	}
	sr := c.results[c.pos]
	c.pos++
	return sr, true, nil
}

// Close releases the cursor. Materialized cursors hold no engine state, so
// this is a no-op kept for symmetry with Cursor.
func (c *ReplicaCursor) Close() {}

// Check verifies the replicated index's structural invariants at the
// current applied state (held still by the apply gate for the duration).
func (ix *ReplicaIndex) Check() (*check.Report, error) {
	ix.db.recv.RLock()
	defer ix.db.recv.RUnlock()
	c := &check.Checker{
		Pool:   ix.db.eng.pool,
		Ops:    ix.tree.Ops(),
		Anchor: ix.tree.Anchor(),
		MaxNSN: ix.db.eng.log.LastLSN(),
	}
	return c.Check()
}
