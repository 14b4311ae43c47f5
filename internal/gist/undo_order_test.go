package gist_test

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestRestartUndoesSplitBeforeEarlierInsert: two losers, where one's
// interrupted split moved the other's uncommitted entry to the new
// sibling. The other loser logged once more after the split began, so it
// has the higher last LSN. Restart must still undo in global LSN order:
// first the split (the entry returns to the original leaf), then the
// insert (the entry leaves it). Undone the other way round, the insert's
// logical undo removes the entry from the sibling and the split's undo
// then moves it back, so an uncommitted key survives the restart.
func TestRestartUndoesSplitBeforeEarlierInsert(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newEnv(t, gist.Config{MaxEntries: 4})
		for k := int64(1); k <= 3; k++ {
			e.put(k)
		}
		a := e.begin()
		e.putIn(a, 4) // the leaf is full: 1, 2, 3 and a's 4

		var (
			crashDisk *storage.MemDisk
			crashLog  *wal.Log
		)
		gist.SetBeforeSplitEnd(e.tree, func() {
			// The split moved 3 and 4 to the sibling; a logs again
			// before the split's nested top action ends, and the
			// machine crashes.
			if _, err := e.heap.Insert(a, []byte("a-later")); err != nil {
				t.Fatal(err)
			}
			if err := e.log.FlushAll(); err != nil {
				t.Fatal(err)
			}
			crashDisk, crashLog = e.disk.Snapshot(), e.log.SurvivingLog()
		})
		b := e.begin()
		e.putIn(b, 5)
		gist.SetBeforeSplitEnd(e.tree, nil)
		if crashLog == nil {
			t.Fatal("the insert of 5 did not split the leaf")
		}

		pool := buffer.New(crashDisk, 256, crashLog)
		tm := txn.NewManager(crashLog, lock.NewManager(), predicate.NewManager())
		heap.New(pool).RegisterUndo(tm)
		rec := &recovery.Recovery{Log: crashLog, Pool: pool, Disk: crashDisk, TM: tm, Workers: workers}
		var tree *gist.Tree
		st, err := rec.Run(func() error {
			var err error
			tree, err = gist.Open(pool, tm, gist.Config{MaxEntries: 4, Ops: btree.Ops{}}, e.tree.Anchor())
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: restart: %v", workers, err)
		}
		if st.Losers != 2 {
			t.Fatalf("workers=%d: %d losers, want 2", workers, st.Losers)
		}
		tx, err := tm.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := tree.Search(tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(rs); len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("workers=%d: keys after restart %v, want [1 2 3]", workers, got)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
