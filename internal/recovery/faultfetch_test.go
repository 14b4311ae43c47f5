package recovery_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

var errReadFault = errors.New("injected read fault")

// readFaultDisk fails exactly the Nth ReadPage of one target page and
// passes everything else through, so a fault can be aimed at a specific
// fetch of a specific redo step.
type readFaultDisk struct {
	storage.Manager
	target page.PageID
	failOn int32
	reads  atomic.Int32
}

func (d *readFaultDisk) ReadPage(id page.PageID, buf []byte) error {
	if id == d.target && d.reads.Add(1) == d.failOn {
		return errReadFault
	}
	return d.Manager.ReadPage(id, buf)
}

// TestRedoFreePageFetchErrorFailsRestart pins the Free-Page redo bugfix:
// the old code discarded every Pool.Fetch error on the Free-Page path
// (`if f, err := r.Pool.Fetch(...); err == nil { ... }`), so a real I/O
// failure silently skipped the deallocation stamp and restart reported
// success over a page image it never saw. Only storage.ErrNoSuchPage (the
// page legitimately gone from the allocation state) may be skipped; any
// other fetch error must fail the restart.
//
// The log is arranged so the Free-Page redo is the first read of its page:
// T1 allocates the target page and commits, a checkpoint with an empty
// dirty page table follows, and a transaction that never commits frees the
// page. The redo point is the Free-Page, so the target's queue holds only
// that record, and the prefetcher skips a page its queue deallocates: the
// one read of the target is the Free-Page fetch, whatever the schedule.
// Restart keeps a page a loser freed allocated until undo has run, so the
// Free-Page redo genuinely fetches.
func TestRedoFreePageFetchErrorFailsRestart(t *testing.T) {
	buildLog := func() *wal.Log {
		l := wal.NewMemLog()
		const target = page.PageID(1)
		// T1 allocates the target page.
		l.Append(&wal.Record{Type: wal.RecGetPage, Txn: 1, Pg: target})
		l.Append(&wal.Record{Type: wal.RecCommit, Txn: 1})
		l.Append(&wal.Record{Type: wal.RecEnd, Txn: 1})
		// Nothing is dirty or in flight at the checkpoint, so redo starts
		// past T1's Get-Page.
		l.Append(&wal.Record{Type: wal.RecCheckpoint})
		// T2 frees the target and never commits: redo of this record is
		// the fetch under test.
		l.Append(&wal.Record{Type: wal.RecFreePage, Txn: 2, Pg: target})
		if err := l.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return l
	}

	l := buildLog()
	disk := &readFaultDisk{Manager: storage.NewMemDisk(), target: 1, failOn: 1}
	pool := buffer.New(disk, 8, l)
	rec := &recovery.Recovery{Log: l, Pool: pool, Disk: disk, Workers: 1}
	_, err := rec.Run(nil)
	if err == nil {
		t.Fatal("restart succeeded over an injected Free-Page fetch I/O error")
	}
	if !errors.Is(err, errReadFault) {
		t.Fatalf("restart failed with %v, want the injected read fault", err)
	}
	if !strings.Contains(err.Error(), "recovery: redo") || !strings.Contains(err.Error(), "free-page fetch") {
		t.Errorf("error %q lacks the redo phase or Free-Page fetch context", err)
	}
	if got := disk.reads.Load(); got != 1 {
		t.Fatalf("target page read %d times, want 1 (the faulted Free-Page fetch)", got)
	}

	// Control: the identical restart with no fault armed succeeds, so the
	// failure above is exactly the propagated fetch error.
	l2 := buildLog()
	mem := storage.NewMemDisk()
	pool2 := buffer.New(mem, 8, l2)
	tm := txn.NewManager(l2, lock.NewManager(), predicate.NewManager())
	rec2 := &recovery.Recovery{Log: l2, Pool: pool2, Disk: mem, TM: tm, Workers: 1}
	if _, err := rec2.Run(func() error {
		gist.RegisterRecoveryHandlers(tm, pool2) // T2's free is undone
		return nil
	}); err != nil {
		t.Fatalf("control restart without fault failed: %v", err)
	}
}
