package txn

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/wal"
)

// TestCommitCtxPrePublishCancel: a context already done when CommitCtx is
// called leaves the transaction untouched — still active, still able to
// commit or abort.
func TestCommitCtxPrePublishCancel(t *testing.T) {
	m := newMgr()
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tx.CommitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitCtx = %v, want context.Canceled", err)
	}
	if tx.State() != Active {
		t.Fatalf("state after pre-publish cancel = %v, want Active", tx.State())
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after cancelled CommitCtx: %v", err)
	}
}

// TestCommitCtxDurable: an open context commits exactly like Commit.
func TestCommitCtxDurable(t *testing.T) {
	m := newMgr()
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Fatalf("state = %v", tx.State())
	}
	if got := len(m.ActiveTxns()); got != 0 {
		t.Fatalf("active after commit = %d", got)
	}
}

// stallFile wraps the WAL file, blocking one Sync until released, so a
// commit's group-commit park can be held open deterministically.
type stallFile struct {
	*os.File
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *stallFile) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.File.Sync()
}

// TestCommitCtxPending holds the log force open past the deadline: CommitCtx
// must return ErrCommitPending — the commit record is published and cannot
// be withdrawn — and when durability lands the commit completes in the
// background, releasing the transaction's locks and firing the durable hook.
func TestCommitCtxPending(t *testing.T) {
	dir := t.TempDir()
	fh, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sf := &stallFile{File: fh, entered: make(chan struct{}), release: make(chan struct{})}
	l, err := wal.OpenFileLogHandle(sf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := NewManager(l, lock.NewManager(), predicate.NewManager())
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Only a transaction that logged something forces the log at commit.
	tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: 9, RID: page.RID{Page: 9, Slot: 9}})
	n := lock.ForRID(page.RID{Page: 9, Slot: 9})
	if err := tx.Lock(n, lock.X); err != nil {
		t.Fatal(err)
	}

	var hookMu sync.Mutex
	hookRan := false
	tx.SetDurableHook(func() {
		hookMu.Lock()
		hookRan = true
		hookMu.Unlock()
	})

	sf.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tx.CommitCtx(ctx) }()
	<-sf.entered // the force fsync is in flight and stalled
	cancel()
	err = <-done
	if !errors.Is(err, ErrCommitPending) {
		t.Fatalf("CommitCtx = %v, want ErrCommitPending", err)
	}
	// Pending means not rolled back: the state is Committed and the locks
	// are still held (release happens only at durability).
	if tx.State() != Committed {
		t.Fatalf("state = %v, want Committed", tx.State())
	}

	close(sf.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(m.ActiveTxns()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background commit completion never retired the transaction")
		}
		time.Sleep(time.Millisecond)
	}
	// Locks released by the background finishCommit.
	if _, held := m.Locks().Holding(tx.ID(), n); held {
		t.Error("lock still held after background durability")
	}
	hookDeadline := time.Now().Add(5 * time.Second)
	for {
		hookMu.Lock()
		ran := hookRan
		hookMu.Unlock()
		if ran {
			break
		}
		if time.Now().After(hookDeadline) {
			t.Fatal("durable hook never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRollbackToLSNStatement pins statement-level undo: updates logged
// after a recorded LSN are undone, earlier ones survive, and the
// transaction stays active.
func TestRollbackToLSNStatement(t *testing.T) {
	m := newMgr()
	undone := registerRecordingUndo(m)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	keep := tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: 3, RID: page.RID{Page: 3, Slot: 0}, Body: []byte("keep")})
	mark := tx.LastLSN()
	drop1 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: 3, RID: page.RID{Page: 3, Slot: 1}, Body: []byte("drop1")})
	drop2 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: 3, RID: page.RID{Page: 3, Slot: 2}, Body: []byte("drop2")})
	if err := tx.RollbackToLSN(mark); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Active {
		t.Fatalf("state = %v, want Active", tx.State())
	}
	if len(*undone) != 2 || (*undone)[0] != drop2 || (*undone)[1] != drop1 {
		t.Fatalf("undone = %v, want [%d %d]", *undone, drop2, drop1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = keep
}

// TestReadOnlyCommitSkipsForce: a transaction that logged nothing commits
// while the log's fsync is held stalled by a writer's commit. It appends no
// record, leaves txn.commit_forces unchanged, and releases its locks.
func TestReadOnlyCommitSkipsForce(t *testing.T) {
	dir := t.TempDir()
	fh, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sf := &stallFile{File: fh, entered: make(chan struct{}), release: make(chan struct{})}
	l, err := wal.OpenFileLogHandle(sf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := NewManager(l, lock.NewManager(), predicate.NewManager())

	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	w.Log(&wal.Record{Type: wal.RecHeapInsert, Pg: 9, RID: page.RID{Page: 9, Slot: 9}})
	sf.armed.Store(true)
	wdone := make(chan error, 1)
	go func() { wdone <- w.Commit() }()
	<-sf.entered // the writer's commit fsync is in flight and stalled
	released := false
	defer func() {
		if !released {
			close(sf.release)
		}
	}()

	forces := m.Metrics().Value("txn.commit_forces")
	last := l.LastLSN()
	r, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	n := lock.ForRID(page.RID{Page: 1, Slot: 1})
	if err := r.Lock(n, lock.S); err != nil {
		t.Fatal(err)
	}
	rdone := make(chan error, 1)
	go func() { rdone <- r.Commit() }()
	select {
	case err := <-rdone:
		if err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read-only commit waited on the stalled log force")
	}
	if got := l.LastLSN(); got != last {
		t.Errorf("read-only transaction appended records: last LSN %d -> %d", last, got)
	}
	if got := m.Metrics().Value("txn.commit_forces"); got != forces {
		t.Errorf("txn.commit_forces = %d after read-only commit, want %d", got, forces)
	}
	if r.State() != Committed {
		t.Errorf("state = %v, want Committed", r.State())
	}
	if _, held := m.Locks().Holding(r.ID(), n); held {
		t.Error("read-only commit kept its lock")
	}

	close(sf.release)
	released = true
	if err := <-wdone; err != nil {
		t.Fatalf("writer commit: %v", err)
	}
}
