package txn

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/wal"
)

func newMgr() *Manager {
	return NewManager(wal.NewMemLog(), lock.NewManager(), predicate.NewManager())
}

// registerRecordingUndo installs an undoer for Heap-Insert that records the
// undone LSNs and writes a proper CLR.
func registerRecordingUndo(m *Manager) *[]page.LSN {
	var undone []page.LSN
	m.RegisterUndo(wal.RecHeapInsert, func(r *wal.Record, tx *Txn) error {
		undone = append(undone, r.LSN)
		tx.LogCLR(&wal.Record{Type: wal.RecHeapInsert, RID: r.RID}, r.PrevLSN)
		return nil
	})
	return &undone
}

func TestBeginCommitLifecycle(t *testing.T) {
	m := newMgr()
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.State() != Active {
		t.Errorf("state = %v", tx.State())
	}
	if got := len(m.ActiveTxns()); got != 1 {
		t.Errorf("active = %d", got)
	}
	// Self lock held.
	if _, held := m.Locks().Holding(tx.ID(), lock.ForTxn(tx.ID())); !held {
		t.Error("self lock not held")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Errorf("state = %v", tx.State())
	}
	if got := len(m.ActiveTxns()); got != 0 {
		t.Errorf("active after commit = %d", got)
	}
	if _, held := m.Locks().Holding(tx.ID(), lock.ForTxn(tx.ID())); held {
		t.Error("self lock survived commit")
	}
	// A transaction that logged nothing leaves the log empty: the Begin
	// record is written lazily and its commit needs no record.
	if types := logTypes(m); len(types) != 0 {
		t.Errorf("log after empty transaction = %v, want empty", types)
	}

	// A writing transaction logs Begin ahead of its first record, then
	// Commit and End.
	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	w.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 0}})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []wal.RecType{wal.RecBegin, wal.RecHeapInsert, wal.RecCommit, wal.RecEnd}
	if types := logTypes(m); !slices.Equal(types, want) {
		t.Errorf("log = %v, want %v", types, want)
	}
	if c, a := m.Metrics().Value("txn.commits"), m.Metrics().Value("txn.aborts"); c != 2 || a != 0 {
		t.Errorf("stats = %d commits %d aborts", c, a)
	}
}

// logTypes returns the types of every record in m's log, oldest first.
func logTypes(m *Manager) []wal.RecType {
	var types []wal.RecType
	m.Log().Scan(1, func(r *wal.Record) bool { types = append(types, r.Type); return true })
	return types
}

// TestEmptyAbortLogsNothing: aborting a transaction that logged nothing
// writes no Abort or End record and still releases its locks.
func TestEmptyAbortLogsNothing(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if types := logTypes(m); len(types) != 0 {
		t.Errorf("log after empty abort = %v, want empty", types)
	}
	if _, held := m.Locks().Holding(tx.ID(), lock.ForTxn(tx.ID())); held {
		t.Error("self lock survived abort")
	}
	if c, a := m.Metrics().Value("txn.commits"), m.Metrics().Value("txn.aborts"); c != 0 || a != 1 {
		t.Errorf("stats = %d commits %d aborts", c, a)
	}
}

func TestCommitForcesLog(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 0}})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Everything up to the Commit record must be durable.
	if m.Log().FlushedLSN() < 3 {
		t.Errorf("flushed = %d, want >= 3", m.Log().FlushedLSN())
	}
}

func TestDoubleCommitAndAbortFail(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestAbortUndoesBackchainInReverse(t *testing.T) {
	m := newMgr()
	undone := registerRecordingUndo(m)
	tx, _ := m.Begin()
	l1 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 0}})
	l2 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 1}})
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Aborted {
		t.Errorf("state = %v", tx.State())
	}
	if len(*undone) != 2 || (*undone)[0] != l2 || (*undone)[1] != l1 {
		t.Errorf("undone = %v, want [%d %d]", *undone, l2, l1)
	}
	// CLRs present and chained.
	var clrs int
	m.Log().Scan(1, func(r *wal.Record) bool {
		if r.Type.IsCLR() {
			clrs++
		}
		return true
	})
	if clrs != 2 {
		t.Errorf("CLRs = %d, want 2", clrs)
	}
	if c, a := m.Metrics().Value("txn.commits"), m.Metrics().Value("txn.aborts"); c != 0 || a != 1 {
		t.Errorf("stats = %d commits %d aborts", c, a)
	}
}

func TestUndoWithoutHandlerFails(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	tx.Log(&wal.Record{Type: wal.RecHeapDelete})
	if err := tx.Abort(); !errors.Is(err, ErrNoUndoer) {
		t.Errorf("err = %v, want ErrNoUndoer", err)
	}
}

func TestNTASkippedOnAbort(t *testing.T) {
	m := newMgr()
	undone := registerRecordingUndo(m)
	tx, _ := m.Begin()
	outside := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 0}})
	// Structure modification inside an NTA: must never be undone.
	if err := tx.BeginNTA(); err != nil {
		t.Fatal(err)
	}
	tx.Log(&wal.Record{Type: wal.RecSplit, Pg: 3, Pg2: 4})
	tx.Log(&wal.Record{Type: wal.RecInternalEntryAdd, Pg: 2})
	tx.EndNTA()
	after := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 1}})

	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(*undone) != 2 || (*undone)[0] != after || (*undone)[1] != outside {
		t.Errorf("undone = %v, want only the records outside the NTA", *undone)
	}
}

func TestNestedNTARejected(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	if err := tx.BeginNTA(); err != nil {
		t.Fatal(err)
	}
	if err := tx.BeginNTA(); !errors.Is(err, ErrNestedAction) {
		t.Errorf("nested NTA: %v", err)
	}
	tx.AbandonNTA()
	if err := tx.BeginNTA(); err != nil {
		t.Errorf("NTA after abandon: %v", err)
	}
	tx.EndNTA()
	tx.Commit()
}

func TestSavepointPartialRollback(t *testing.T) {
	m := newMgr()
	undone := registerRecordingUndo(m)
	tx, _ := m.Begin()
	l1 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 0}})
	if _, err := tx.Savepoint("sp1"); err != nil {
		t.Fatal(err)
	}
	l2 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 1}})
	l3 := tx.Log(&wal.Record{Type: wal.RecHeapInsert, RID: page.RID{Page: 1, Slot: 2}})

	if err := tx.RollbackTo("sp1"); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Active {
		t.Error("txn not active after partial rollback")
	}
	if len(*undone) != 2 || (*undone)[0] != l3 || (*undone)[1] != l2 {
		t.Errorf("undone = %v, want [%d %d]", *undone, l3, l2)
	}
	// Rolling back again to the same savepoint undoes nothing new (the
	// CLR chain skips the already-undone suffix).
	if err := tx.RollbackTo("sp1"); err != nil {
		t.Fatal(err)
	}
	if len(*undone) != 2 {
		t.Errorf("re-rollback undid more: %v", *undone)
	}
	// Full abort then undoes only l1.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(*undone) != 3 || (*undone)[2] != l1 {
		t.Errorf("after abort undone = %v", *undone)
	}
}

func TestSavepointUnknownName(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	if err := tx.RollbackTo("nope"); !errors.Is(err, ErrNoSavepoint) {
		t.Errorf("err = %v", err)
	}
	tx.Commit()
}

func TestSavepointDiscardsLaterSavepoints(t *testing.T) {
	m := newMgr()
	registerRecordingUndo(m)
	tx, _ := m.Begin()
	tx.Savepoint("a")
	tx.Log(&wal.Record{Type: wal.RecHeapInsert})
	tx.Savepoint("b")
	if err := tx.RollbackTo("a"); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo("b"); !errors.Is(err, ErrNoSavepoint) {
		t.Errorf("rollback to discarded savepoint: %v", err)
	}
	sps := tx.Savepoints()
	if len(sps) != 1 || sps[0].Name != "a" {
		t.Errorf("savepoints = %v", sps)
	}
	tx.Commit()
}

func TestCommitReleasesPredicatesAndUnblocksWaiters(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	p := m.Predicates().New(tx.ID(), predicate.Search, []byte("q"))
	m.Predicates().Attach(p, 7, nil)

	// A second transaction blocks on tx's self lock (the "block on
	// predicate owner" idiom).
	tx2, _ := m.Begin()
	unblocked := make(chan error, 1)
	go func() { unblocked <- tx2.Lock(lock.ForTxn(tx.ID()), lock.S) }()

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-unblocked; err != nil {
		t.Fatal(err)
	}
	if got := m.Predicates().AttachedTo(7); len(got) != 0 {
		t.Errorf("predicates survived commit: %v", got)
	}
	tx2.Commit()
}

func TestAdoptLoser(t *testing.T) {
	m := newMgr()
	tx, err := m.AdoptLoser(42, 17)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() != 42 || tx.LastLSN() != 17 {
		t.Errorf("adopted = id %d last %d", tx.ID(), tx.LastLSN())
	}
	// Fresh transactions get IDs above the adopted one.
	tx2, _ := m.Begin()
	if tx2.ID() <= 42 {
		t.Errorf("new txn id %d not above adopted 42", tx2.ID())
	}
}

// TestTxnHorizon: a mark taken while transactions are live stays at or
// above their ids until every one of them has ended, in both id spaces,
// and transactions begun later do not hold it back.
func TestTxnHorizon(t *testing.T) {
	m := newMgr()
	rw, _ := m.Begin()
	ro, _ := m.BeginReadOnly()
	mark, oldest := m.TxnHorizon()
	if oldest.RW != rw.ID() || oldest.RO != ro.ID() {
		t.Fatalf("oldest = %+v, want {%d %d}", oldest, rw.ID(), ro.ID())
	}
	if mark.RW < rw.ID() || mark.RO < ro.ID() || mark.Below(oldest) {
		t.Fatalf("mark %+v does not cover live %+v", mark, oldest)
	}
	later, _ := m.Begin()
	laterRO, _ := m.BeginReadOnly()
	if later.ID() <= mark.RW || laterRO.ID() <= mark.RO {
		t.Fatalf("ids %d/%d begun after mark %+v", later.ID(), laterRO.ID(), mark)
	}
	rw.Commit()
	if _, oldest := m.TxnHorizon(); mark.Below(oldest) {
		t.Fatal("mark passed while a read-only transaction from before it is live")
	}
	ro.Abort()
	if _, oldest := m.TxnHorizon(); !mark.Below(oldest) {
		t.Fatalf("mark %+v not passed by oldest %+v once its transactions ended", mark, oldest)
	}
	later.Commit()
	laterRO.Abort()
}

func TestCheckpointRecordsATTAndDPT(t *testing.T) {
	m := newMgr()
	tx, _ := m.Begin()
	tx.Log(&wal.Record{Type: wal.RecHeapInsert})
	// A live transaction that has logged nothing has nothing to recover
	// and stays out of the ATT.
	idle, _ := m.Begin()
	defer idle.Commit()
	lsn, err := m.Checkpoint(func() map[page.PageID]page.LSN {
		return map[page.PageID]page.LSN{5: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Log().Get(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ATT) != 1 || r.ATT[0].ID != tx.ID() || r.ATT[0].LastLSN != tx.LastLSN() {
		t.Errorf("ATT = %v", r.ATT)
	}
	if len(r.DPT) != 1 || r.DPT[0].ID != 5 || r.DPT[0].RecLSN != 2 {
		t.Errorf("DPT = %v", r.DPT)
	}
	if m.Log().MasterCheckpoint() != lsn {
		t.Error("master checkpoint not updated")
	}
	tx.Commit()
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Error("state strings")
	}
}
