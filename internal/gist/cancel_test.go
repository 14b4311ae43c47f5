package gist_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
)

// stepCtx is a context whose Err fires after a fixed number of checks,
// steering cancellation deterministically onto the Nth safe point of a
// traversal (node-visit boundaries, fetch waits, lock waits). Done is nil:
// the tests that use it never block, they only poll Err.
type stepCtx struct {
	remaining atomic.Int64
}

func newStepCtx(n int) *stepCtx {
	c := &stepCtx{}
	c.remaining.Store(int64(n))
	return c
}

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }
func (c *stepCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidInsertCompletesSMO sweeps the cancellation point across
// every safe point of inserts into a splitting tree. A cancelled insert
// must either have completed (the cancel landed after the leaf write) or
// roll back cleanly via logical undo — and in both cases any split NTA the
// insert started must have run to completion, which the structural
// invariant check verifies after every attempt.
func TestCancelMidInsertCompletesSMO(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for k := int64(0); k < 200; k += 2 {
		e.put(k)
	}

	cancelled, completed := 0, 0
	next := int64(1)
	for steps := 0; steps < 60; steps++ {
		k := next
		next += 2
		tx := e.begin()
		rid, err := e.heap.Insert(tx, []byte(fmt.Sprintf("rec-%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		err = e.tree.InsertCtx(newStepCtx(steps), tx, btree.EncodeKey(k), rid)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("steps=%d: err = %v, want context.Canceled", steps, err)
			}
			cancelled++
			if aerr := tx.Abort(); aerr != nil {
				t.Fatalf("steps=%d: abort after cancel: %v", steps, aerr)
			}
		} else {
			completed++
			if cerr := tx.Commit(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		// Whatever happened, the tree must satisfy every structural
		// invariant: a cancelled insert never leaves a half-done split.
		e.checkTree()
	}
	if cancelled == 0 {
		t.Error("no insert was ever cancelled; the step sweep is too short")
	}
	if completed == 0 {
		t.Error("no insert ever completed; the step sweep never ran past the traversal")
	}

	// The preloaded keys and every completed odd insert are all present; no
	// aborted insert left an entry behind.
	tx := e.begin()
	got := keysOf(e.search(tx, -1, 400))
	evens := 0
	for _, k := range got {
		if k%2 == 0 {
			evens++
		}
	}
	if evens != 100 {
		t.Errorf("even keys after sweep = %d, want 100", evens)
	}
	if len(got) != 100+completed {
		t.Errorf("total keys = %d, want %d", len(got), 100+completed)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelSearchAndCursor pins the read-side contract: a cancelled
// context stops SearchCtx at its next node-visit boundary and makes every
// subsequent Cursor.Next return ctx.Err(), while the transaction remains
// usable.
func TestCancelSearchAndCursor(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for k := int64(0); k < 100; k++ {
		e.put(k)
	}
	tx := e.begin()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.tree.SearchCtx(ctx, tx, btree.EncodeRange(0, 100), gist.RepeatableRead); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	c, err := e.tree.OpenCursorCtx(ctx2, tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Next(); err != nil || !ok {
		t.Fatalf("first Next = %v %v", ok, err)
	}
	cancel2()
	if _, _, err := c.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	c.Close()

	// The transaction is untouched by read-side cancellation.
	if got := e.search(tx, 0, 9); len(got) != 10 {
		t.Errorf("post-cancel search returned %d keys, want 10", len(got))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelDeleteRollsBack sweeps cancellation over DeleteCtx: every
// attempt — cancelled or complete — is aborted, and all keys must remain
// live and findable afterwards.
func TestCancelDeleteRollsBack(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	const n = 40
	ridOf := make(map[int64]page.RID, n)
	for k := int64(0); k < n; k++ {
		ridOf[k] = e.put(k)
	}
	sawCancel := false
	for steps := 0; steps < 20; steps++ {
		k := int64(steps) % n
		tx := e.begin()
		err := e.tree.DeleteCtx(newStepCtx(steps), tx, btree.EncodeKey(k), ridOf[k])
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("steps=%d: DeleteCtx = %v", steps, err)
		}
		if err != nil {
			sawCancel = true
		}
		if aerr := tx.Abort(); aerr != nil {
			t.Fatalf("steps=%d: abort: %v", steps, aerr)
		}
	}
	if !sawCancel {
		t.Error("no delete was ever cancelled; the step sweep is too short")
	}
	tx := e.begin()
	if got := keysOf(e.search(tx, -1, n+1)); len(got) != n {
		t.Errorf("keys after aborted deletes = %d, want %d", len(got), n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.checkTree()
}
