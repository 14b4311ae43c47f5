// Isolation-conformance suite: executable checks of the paper's Degree 2
// (ReadCommitted) and Degree 3 (RepeatableRead, hybrid record + predicate
// locking) guarantees through the public facade, plus the replica's
// committed-reads-only contract. Everything here must stay green under
// -race; conflicting operations may be aborted as deadlock victims (that is
// the protocol resolving reader/inserter cycles, §10.3), so the tests retry
// on ErrAborted — the guarantees apply to transactions that commit.
package gistdb_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	gistdb "repro"
	"repro/internal/btree"
)

// isoAborted reports whether err is a serialization failure (deadlock-victim
// abort) that a conformance loop should retry rather than fail on.
func isoAborted(err error) bool {
	return errors.Is(err, gistdb.ErrAborted) || errors.Is(err, gistdb.ErrLockDeadlock)
}

func isoKeys(hits []gistdb.SearchResult) map[int64]bool {
	out := make(map[int64]bool, len(hits))
	for _, h := range hits {
		out[btree.DecodeKey(h.Key)] = true
	}
	return out
}

// TestIsolationNoDirtyReads drives the deterministic dirty-read scenario:
// a reader searching a range with an in-flight uncommitted insert blocks on
// the record lock (it cannot return the dirty entry), and after the writer
// aborts the entry is gone from its result. Committed data then appears.
func TestIsolationNoDirtyReads(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Uncommitted insert of key 50.
	writer, _ := db.Begin()
	if _, err := idx.Insert(writer, btree.EncodeKey(50), []byte("dirty")); err != nil {
		t.Fatal(err)
	}

	// A reader covering key 50 must not return it. Degree 2 blocks on the
	// writer's record lock, so run the search in a goroutine and verify it
	// has not produced a result while the writer is still in flight.
	type res struct {
		keys map[int64]bool
		err  error
	}
	done := make(chan res, 1)
	go func() {
		tx, err := db.Begin()
		if err != nil {
			done <- res{err: err}
			return
		}
		hits, err := idx.Search(tx, btree.EncodeRange(0, 100), gistdb.ReadCommitted)
		tx.Commit()
		done <- res{keys: isoKeys(hits), err: err}
	}()
	select {
	case r := <-done:
		// The search may legitimately finish before observing the dirty
		// entry only if it excludes it; seeing key 50 is a dirty read.
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.keys[50] {
			t.Fatal("dirty read: uncommitted key 50 returned")
		}
	case <-time.After(200 * time.Millisecond):
		// Blocked on the writer, as Degree 2 prescribes.
	}

	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.keys[50] {
			t.Fatal("aborted key 50 visible after writer abort")
		}
		if len(r.keys) != 10 {
			t.Fatalf("reader saw %d keys, want the 10 seeds", len(r.keys))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader still blocked after writer abort")
	}

	// Committed data is visible to the next reader.
	w2, _ := db.Begin()
	if _, err := idx.Insert(w2, btree.EncodeKey(50), []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	hits, err := idx.Search(tx, btree.EncodeRange(0, 100), gistdb.ReadCommitted)
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := isoKeys(hits); !got[50] || len(got) != 11 {
		t.Fatalf("committed key 50 not visible: %v", got)
	}
}

// TestIsolationBatchAtomicity hammers the no-dirty-reads guarantee under
// concurrency: a writer commits or aborts batches of exactly batchSize keys,
// and RepeatableRead readers must only ever observe whole committed batches
// — a result with count % batchSize != 0 means a reader caught a batch half
// done, and any key from the aborted keyspace is a dirty read outright.
func TestIsolationBatchAtomicity(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		batchSize  = 5
		batches    = 30
		abortBase  = int64(1 << 20) // aborted batches write only here
		commitBase = int64(0)
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: alternate committed and aborted batches
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			abortIt := b%2 == 1
			base := commitBase
			if abortIt {
				base = abortBase
			}
			for { // retry the whole batch if chosen as deadlock victim
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				ok := true
				for k := 0; k < batchSize; k++ {
					key := base + int64(b*batchSize+k)
					if _, err := idx.Insert(tx, btree.EncodeKey(key), []byte("b")); err != nil {
						tx.Abort()
						ok = false
						if !isoAborted(err) {
							t.Errorf("insert: %v", err)
							return
						}
						break
					}
				}
				if !ok {
					continue
				}
				if abortIt {
					tx.Abort()
					break
				}
				if err := tx.Commit(); err != nil {
					if isoAborted(err) {
						continue
					}
					t.Error(err)
					return
				}
				break
			}
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // readers: whole committed batches only
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				hits, err := idx.Search(tx, btree.EncodeRange(0, 1<<22), gistdb.RepeatableRead)
				if err != nil {
					tx.Abort()
					if isoAborted(err) {
						continue // deadlock victim; the guarantee is for committed readers
					}
					t.Errorf("search: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				keys := isoKeys(hits)
				if len(keys)%batchSize != 0 {
					t.Errorf("reader saw %d keys: partial batch visible", len(keys))
					return
				}
				for k := range keys {
					if k >= abortBase {
						t.Errorf("dirty read: aborted-batch key %d visible", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Final state: exactly the committed batches.
	tx, _ := db.Begin()
	hits, err := idx.Search(tx, btree.EncodeRange(0, 1<<22), gistdb.ReadCommitted)
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	want := (batches + 1) / 2 * batchSize
	if len(hits) != want {
		t.Fatalf("final count = %d, want %d", len(hits), want)
	}
}

// TestIsolationRepeatableRead runs RepeatableRead transactions that search
// the same range twice while a churn writer inserts into that range. For
// every reader that completes both searches and commits, the two result
// sets must be identical — the paper's Degree 3. Readers or the writer may
// be aborted as deadlock victims (searcher blocked on an inserter's record
// lock while the inserter blocks on the searcher's predicate); those rounds
// retry.
func TestIsolationRepeatableRead(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: single-key inserts inside the read range
		defer wg.Done()
		next := int64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := idx.Insert(tx, btree.EncodeKey(next), []byte("churn")); err != nil {
				tx.Abort()
				if !isoAborted(err) {
					t.Errorf("churn insert: %v", err)
					return
				}
				continue
			}
			if err := tx.Commit(); err != nil {
				if !isoAborted(err) {
					t.Error(err)
					return
				}
				continue
			}
			next++
		}
	}()

	const wantCommitted = 15
	committed := 0
	for committed < wantCommitted {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		q := btree.EncodeRange(0, 1<<20)
		first, err := idx.Search(tx, q, gistdb.RepeatableRead)
		if err != nil {
			tx.Abort()
			if isoAborted(err) {
				continue
			}
			t.Fatal(err)
		}
		second, err := idx.Search(tx, q, gistdb.RepeatableRead)
		if err != nil {
			tx.Abort()
			if isoAborted(err) {
				continue
			}
			t.Fatal(err)
		}
		a, b := isoKeys(first), isoKeys(second)
		if len(a) != len(b) {
			t.Fatalf("non-repeatable read: %d then %d keys", len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("non-repeatable read: key %d vanished between searches", k)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		committed++
	}
	close(stop)
	wg.Wait()
}

// TestIsolationPhantomProtection pins the predicate-locking mechanism: a
// RepeatableRead search attaches its predicate to every visited node, and a
// conflicting insert blocks behind it until the reader finishes, while a
// non-conflicting insert proceeds immediately.
func TestIsolationPhantomProtection(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	reader, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(reader, btree.EncodeRange(0, 100), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 {
		t.Fatalf("seed search = %d hits, want 10", len(hits))
	}

	// Conflicting insert (key 50 is inside [0,100]): must block until the
	// reader commits.
	conflicting := make(chan error, 1)
	go func() {
		tx, err := db.Begin()
		if err != nil {
			conflicting <- err
			return
		}
		if _, err := idx.Insert(tx, btree.EncodeKey(50), []byte("phantom")); err != nil {
			tx.Abort()
			conflicting <- err
			return
		}
		conflicting <- tx.Commit()
	}()

	// Non-conflicting insert (key 5000 is outside the predicate): must not
	// be delayed by the reader.
	free, _ := db.Begin()
	if _, err := idx.Insert(free, btree.EncodeKey(5000), []byte("free")); err != nil {
		t.Fatalf("non-conflicting insert blocked or failed: %v", err)
	}
	if err := free.Commit(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-conflicting:
		t.Fatalf("conflicting insert completed while reader active (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
		// Still blocked: phantom protection holding.
	}

	// The reader's repeat search must not see the phantom key 50 (its entry
	// may be physically present, but the record lock resolves the race; if
	// the reader is picked as deadlock victim the test scenario cannot
	// happen deterministically, so treat it as a hard failure — the insert
	// blocked first, so the reader never waits on it here).
	again, err := idx.Search(reader, btree.EncodeRange(0, 40), gistdb.RepeatableRead)
	if err != nil {
		t.Fatalf("repeat search: %v", err)
	}
	if len(again) != 10 {
		t.Fatalf("repeat search = %d hits, want 10", len(again))
	}

	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-conflicting:
		if err != nil {
			t.Fatalf("conflicting insert after reader commit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("conflicting insert still blocked after reader commit")
	}

	tx, _ := db.Begin()
	final, err := idx.Search(tx, btree.EncodeRange(0, 10000), gistdb.ReadCommitted)
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := isoKeys(final); !got[50] || !got[5000] || len(got) != 12 {
		t.Fatalf("final keys = %v, want 10 seeds + 50 + 5000", got)
	}
}

// TestIsolationReplicaCommittedBatches is the replica variant: the primary
// commits insert-only batches of exactly batchSize keys, and every replica
// snapshot must contain a whole number of batches — the replica's redo
// machinery must never expose a half-applied commit.
func TestIsolationReplicaCommittedBatches(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gistdb.OpenReplica(gistdb.Options{MaxEntries: 8}, pipeDial(db))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, db, rep) // index root must exist before the replica opens it
	rix, err := rep.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		batchSize = 4
		batches   = 25
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			tx, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < batchSize; k++ {
				key := int64(b*batchSize + k)
				if _, err := idx.Insert(tx, btree.EncodeKey(key), []byte("r")); err != nil {
					t.Errorf("insert: %v", err)
					tx.Abort()
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for {
		select {
		case <-stop:
		default:
			got := searchAll(t, rep, rix)
			if len(got)%batchSize != 0 {
				t.Fatalf("replica exposed partial batch: %d keys", len(got))
			}
			continue
		}
		break
	}
	wg.Wait()

	waitApplied(t, db, rep)
	got := searchAll(t, rep, rix)
	if len(got) != batches*batchSize {
		t.Fatalf("replica converged to %d keys, want %d", len(got), batches*batchSize)
	}
	for i := int64(0); i < batches*batchSize; i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("replica missing key %d", i)
		}
	}
}

// searchMustBlock runs a ReadCommitted search for key from a fresh
// transaction with a short deadline and fails the test unless the search
// blocked on a record lock until that deadline.
func searchMustBlock(t *testing.T, db *gistdb.DB, idx *gistdb.Index, key int64) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	hits, err := idx.SearchCtx(ctx, tx, btree.EncodeRange(key, key), gistdb.ReadCommitted)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search of key %d returned %d hits, err %v, without blocking on the writer's record lock", key, len(hits), err)
	}
}

// TestIsolationOwnInsertSurvivesReadCommittedSearch checks that a writer's
// ReadCommitted search returning its own uncommitted insert keeps the
// insert's X record lock: another transaction's search must still block.
func TestIsolationOwnInsertSurvivesReadCommittedSearch(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	writer, _ := db.Begin()
	defer writer.Abort()
	if _, err := idx.Insert(writer, btree.EncodeKey(5), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(writer, btree.EncodeRange(5, 5), gistdb.ReadCommitted)
	if err != nil || len(hits) != 1 {
		t.Fatalf("writer's own search: %d hits, %v; want its insert", len(hits), err)
	}
	searchMustBlock(t, db, idx, 5)
}

// TestIsolationOwnDeleteSurvivesSearch checks that a deleter's search
// passing over its own logically deleted entry keeps the delete's X record
// lock: another transaction's search must still block.
func TestIsolationOwnDeleteSurvivesSearch(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := db.Begin()
	rid, err := idx.Insert(seed, btree.EncodeKey(5), []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	deleter, _ := db.Begin()
	defer deleter.Abort()
	if err := idx.Delete(deleter, btree.EncodeKey(5), rid); err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(deleter, btree.EncodeRange(5, 5), gistdb.RepeatableRead)
	if err != nil || len(hits) != 0 {
		t.Fatalf("deleter's own search: %d hits, %v; want none", len(hits), err)
	}
	searchMustBlock(t, db, idx, 5)
}
