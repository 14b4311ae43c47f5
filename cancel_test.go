package gistdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	gistdb "repro"
	"repro/internal/btree"
)

// TestStatementCancelRollsBackStatementOnly pins statement-level rollback:
// a cancelled InsertCtx removes only that statement's effects — the heap
// record and any index entry — and the transaction stays active with its
// earlier statements intact.
func TestStatementCancelRollsBackStatementOnly(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertCtx(context.Background(), tx, btree.EncodeKey(1), []byte("first")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.InsertCtx(ctx, tx, btree.EncodeKey(2), []byte("second")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InsertCtx = %v, want context.Canceled", err)
	}
	// The transaction is still usable: more work, then commit.
	if _, err := idx.InsertCtx(context.Background(), tx, btree.EncodeKey(3), []byte("third")); err != nil {
		t.Fatalf("insert after statement cancel: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Commit()
	hits, err := idx.SearchCtx(context.Background(), tx2, btree.EncodeRange(0, 10), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, h := range hits {
		got[btree.DecodeKey(h.Key)] = true
		if _, err := idx.FetchCtx(context.Background(), h.RID); err != nil {
			t.Errorf("fetch %v: %v", h.RID, err)
		}
	}
	if !got[1] || got[2] || !got[3] {
		t.Errorf("keys after commit = %v, want {1,3}", got)
	}
}

// TestCommitCtxFacade: an expired deadline before commit leaves the
// transaction active; a live context commits and the effects are visible.
func TestCommitCtxFacade(t *testing.T) {
	db, err := gistdb.Open(gistdb.Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("ints", btree.Ops{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(tx, btree.EncodeKey(7), []byte("r")); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := tx.CommitCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CommitCtx(expired) = %v, want DeadlineExceeded", err)
	}
	if err := tx.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Commit()
	hits, err := idx.Search(tx2, btree.EncodeRange(7, 7), gistdb.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Errorf("hits = %v, want one", hits)
	}
}
