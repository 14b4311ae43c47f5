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

// liveKeys returns the keys a fresh read-committed search of idx finds in
// [lo, hi].
func liveKeys(t *testing.T, db *gistdb.DB, idx *gistdb.Index, lo, hi int64) map[int64]bool {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	hits, err := idx.Search(tx, btree.EncodeRange(lo, hi), gistdb.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64]bool, len(hits))
	for _, h := range hits {
		got[btree.DecodeKey(h.Key)] = true
	}
	return got
}

// TestLazyBeginRacesCheckpoint: many transactions make their first log
// call (and so write their Begin record) while a checkpoint runs. The
// checkpoint may leave out only transactions whose Begin record lands after
// its anchor, so after a crash every uncommitted writer is still found and
// undone as a loser, and every committed one survives. Each round crashes
// right after its one racing checkpoint, so that checkpoint is the one
// restart starts from.
func TestLazyBeginRacesCheckpoint(t *testing.T) {
	const rounds, writers = 20, 16
	for round := 0; round < rounds && !t.Failed(); round++ {
		lazyBeginCheckpointRound(t, writers)
	}
}

func lazyBeginCheckpointRound(t *testing.T, writers int) {
	db := openMem(t)
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		<-start
		ckptDone <- db.Checkpoint()
	}()
	txs := make([]*gistdb.Tx, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txs[w] = tx
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if _, err := idx.Insert(txs[w], btree.EncodeKey(int64(w)), []byte("v")); err != nil {
				t.Error(err)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	// Even writers commit, forcing the log over every loser record too;
	// odd writers are in flight at the crash.
	for w := 0; w < writers; w += 2 {
		if err := txs[w].Commit(); err != nil {
			t.Fatal(err)
		}
	}

	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	got := liveKeys(t, db2, idx2, 0, int64(writers))
	for w := 0; w < writers; w++ {
		if committed := w%2 == 0; got[int64(w)] != committed {
			t.Errorf("key %d present=%v after restart, want %v", w, got[int64(w)], committed)
		}
	}
	if rep, err := idx2.Check(); err != nil || rep.Entries != writers/2 {
		t.Fatalf("check after restart: %+v, %v", rep, err)
	}
}

// TestSavepointBeforeFirstWrite: a savepoint taken before the transaction
// has logged anything is a valid rollback target; rolling back to it
// removes every later write and the transaction can still commit.
func TestSavepointBeforeFirstWrite(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Savepoint("start"); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 3; k++ {
		if _, err := idx.Insert(tx, btree.EncodeKey(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.RollbackTo("start"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := liveKeys(t, db, idx, 0, 10); len(got) != 0 {
		t.Errorf("keys after rollback to the first savepoint = %v, want none", got)
	}
	if rep, err := idx.Check(); err != nil || rep.Entries != 0 {
		t.Fatalf("check: %+v, %v", rep, err)
	}
}

// TestCancelledFirstStatement: the first statement of a transaction
// records mark 0 (nothing logged yet). It logs its heap insert, then its
// context expires while it waits behind a reader's search predicate; the
// statement rollback to mark 0 removes everything and the transaction can
// still commit.
func TestCancelledFirstStatement(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(reader, btree.EncodeRange(0, 10), gistdb.RepeatableRead); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := idx.InsertCtx(ctx, tx, btree.EncodeKey(5), []byte("blocked")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("InsertCtx behind a search predicate = %v, want DeadlineExceeded", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after a cancelled first statement: %v", err)
	}
	if got := liveKeys(t, db, idx, 0, 10); len(got) != 0 {
		t.Errorf("keys after cancelled first statement = %v, want none", got)
	}
	if rep, err := idx.Check(); err != nil || rep.Entries != 0 {
		t.Fatalf("check: %+v, %v", rep, err)
	}
}

// TestCrashAfterFirstInsert: a transaction whose only work is one insert
// (its Begin record written together with its first record) is a loser at
// a crash, and restart undoes the insert.
func TestCrashAfterFirstInsert(t *testing.T) {
	db := openMem(t)
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	loser, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(loser, btree.EncodeKey(7), []byte("loser")); err != nil {
		t.Fatal(err)
	}
	// Write the loser's page to disk and its records to the durable log,
	// so restart has something to undo.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	winner, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(winner, btree.EncodeKey(8), []byte("winner")); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}

	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	idx2, err := db2.OpenIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	got := liveKeys(t, db2, idx2, 0, 10)
	if got[7] || !got[8] || len(got) != 1 {
		t.Errorf("keys after restart = %v, want {8}", got)
	}
}
