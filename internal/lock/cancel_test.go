package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

// TestCancelRemovesWaiter pins the basic cancellation contract: a waiter
// whose context fires leaves the queue with nothing behind — no orphan
// queue entry, no held lock — and the name remains fully usable.
func TestCancelRemovesWaiter(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 1, Slot: 1})
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.LockCtx(ctx, 2, n, X) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("LockCtx = %v, want context.Canceled", err)
	}
	if _, held := m.Holding(2, n); held {
		t.Error("cancelled waiter holds the lock")
	}
	reg := m.Metrics()
	if got := reg.Value("lock.queue_waiters"); got != 0 {
		t.Errorf("queue_waiters = %d after cancel, want 0", got)
	}
	if got := reg.Value("lock.cancels"); got != 1 {
		t.Errorf("cancels = %d, want 1", got)
	}
	if got := reg.Value("lock.wait_nanos"); got <= 0 {
		t.Errorf("wait_nanos = %d, want > 0", got)
	}
	// The holder's unlock must not wedge on the departed waiter, and a
	// fresh locker gets straight through.
	m.Unlock(1, n)
	if err := m.Lock(3, n, X); err != nil {
		t.Fatal(err)
	}
}

// TestCancelGrantRace races cancellation against a simultaneous grant, many
// times. Exactly one side must win: nil means the lock is held (the grant
// stood), context.Canceled means it is not. Either way the queue must be
// empty and the name immediately reusable.
func TestCancelGrantRace(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 7})
	for i := 0; i < 400; i++ {
		holder := page.TxnID(i*3 + 1)
		waiter := page.TxnID(i*3 + 2)
		probe := page.TxnID(i*3 + 3)
		if err := m.Lock(holder, n, X); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- m.LockCtx(ctx, waiter, n, X) }()
		if i%2 == 0 {
			time.Sleep(time.Millisecond) // some iterations: parked before the race
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.Unlock(holder, n) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		err := <-errc
		_, held := m.Holding(waiter, n)
		switch {
		case err == nil:
			if !held {
				t.Fatalf("iter %d: grant reported but lock not held", i)
			}
			m.Unlock(waiter, n)
		case errors.Is(err, context.Canceled):
			if held {
				t.Fatalf("iter %d: cancellation reported but lock held", i)
			}
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		if got := m.Metrics().Value("lock.queue_waiters"); got != 0 {
			t.Fatalf("iter %d: queue_waiters = %d, want 0", i, got)
		}
		if err := m.Lock(probe, n, X); err != nil {
			t.Fatalf("iter %d: probe lock: %v", i, err)
		}
		m.Unlock(probe, n)
	}
}

// TestCancelPromotesLaterWaiter pins the mid-queue departure path: when a
// queued X waiter is cancelled, a compatible S waiter queued behind it must
// be granted immediately rather than waiting for the holder to unlock.
func TestCancelPromotesLaterWaiter(t *testing.T) {
	m := NewManager()
	n := ForRID(page.RID{Page: 9})
	if err := m.Lock(1, n, S); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	xerr := make(chan error, 1)
	go func() { xerr <- m.LockCtx(ctx, 2, n, X) }()
	time.Sleep(20 * time.Millisecond) // X parked behind the held S
	serr := make(chan error, 1)
	go func() { serr <- m.Lock(3, n, S) }()
	time.Sleep(20 * time.Millisecond) // S queued behind the X (FIFO)
	cancel()
	if err := <-xerr; !errors.Is(err, context.Canceled) {
		t.Fatalf("X waiter = %v, want context.Canceled", err)
	}
	select {
	case err := <-serr:
		if err != nil {
			t.Fatalf("S waiter = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("S waiter not promoted after the X ahead of it was cancelled")
	}
	m.Unlock(1, n)
	m.Unlock(3, n)
}
