package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := NewMemLog()
	for i := 1; i <= 5; i++ {
		lsn := l.Append(&Record{Type: RecBegin, Txn: page.TxnID(i)})
		if lsn != page.LSN(i) {
			t.Errorf("append %d: LSN = %d", i, lsn)
		}
	}
	if l.LastLSN() != 5 {
		t.Errorf("LastLSN = %d", l.LastLSN())
	}
}

func TestGetAndScan(t *testing.T) {
	l := NewMemLog()
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	l.Append(&Record{Type: RecEnd, Txn: 1})

	r, err := l.Get(2)
	if err != nil || r.Type != RecCommit {
		t.Errorf("Get(2) = %v, %v", r, err)
	}
	if _, err := l.Get(0); err == nil {
		t.Error("Get(0) should fail")
	}
	if _, err := l.Get(4); err == nil {
		t.Error("Get past end should fail")
	}

	var seen []RecType
	l.Scan(2, func(r *Record) bool {
		seen = append(seen, r.Type)
		return true
	})
	if len(seen) != 2 || seen[0] != RecCommit || seen[1] != RecEnd {
		t.Errorf("Scan from 2: %v", seen)
	}

	count := 0
	l.Scan(1, func(r *Record) bool { count++; return false })
	if count != 1 {
		t.Errorf("early-stop scan visited %d", count)
	}
}

func TestRecordEncodeDecodeAllFields(t *testing.T) {
	r := &Record{
		Type:     RecSplit,
		Txn:      7,
		PrevLSN:  5,
		UndoNext: 3,
		Pg:       10,
		Pg2:      11,
		NSN:      99,
		OldNSN:   88,
		OldRight: 12,
		Level:    2,
		Body:     []byte("body"),
		OldBody:  []byte("old"),
		Moved:    [][]byte{[]byte("m1"), []byte("m2"), {}},
		RID:      page.RID{Page: 3, Slot: 9},
		ATT:      []TxnState{{ID: 1, LastLSN: 2, UndoNext: 3}},
		DPT:      []DirtyPage{{ID: 4, RecLSN: 5}},
	}
	r.LSN = 42
	got, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("decode nil should fail")
	}
	r := &Record{Type: RecBegin, Txn: 1}
	enc := r.Encode()
	if _, err := DecodeRecord(enc[:10]); err == nil {
		t.Error("decode truncated should fail")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0 // RecInvalid
	if _, err := DecodeRecord(bad); err == nil {
		t.Error("decode invalid type should fail")
	}
	bad[0] = byte(numRecTypes)
	if _, err := DecodeRecord(bad); err == nil {
		t.Error("decode out-of-range type should fail")
	}
}

func TestClrFlag(t *testing.T) {
	tp := RecAddLeafEntry | ClrFlag
	if !tp.IsCLR() {
		t.Error("IsCLR false")
	}
	if tp.Base() != RecAddLeafEntry {
		t.Error("Base mismatch")
	}
	if tp.String() != "CLR(Add-Leaf-Entry)" {
		t.Errorf("String = %q", tp.String())
	}
	if RecSplit.String() != "Split" {
		t.Errorf("String = %q", RecSplit.String())
	}
}

func TestFlushWatermarkMemLog(t *testing.T) {
	l := NewMemLog()
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	if l.FlushedLSN() != 0 {
		t.Errorf("FlushedLSN = %d before flush", l.FlushedLSN())
	}
	if err := l.FlushTo(1); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() != 1 {
		t.Errorf("FlushedLSN = %d, want 1", l.FlushedLSN())
	}
	// Flushing past the end clamps.
	if err := l.FlushTo(100); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() != 2 {
		t.Errorf("FlushedLSN = %d, want 2", l.FlushedLSN())
	}
}

func TestSurvivingLogModelsCrash(t *testing.T) {
	l := NewMemLog()
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecAddLeafEntry, Txn: 1, Pg: 5})
	l.FlushTo(2)
	l.Append(&Record{Type: RecCommit, Txn: 1}) // never flushed

	s := l.SurvivingLog()
	if s.LastLSN() != 2 {
		t.Errorf("survivor LastLSN = %d, want 2", s.LastLSN())
	}
	if _, err := s.Get(3); err == nil {
		t.Error("unflushed record survived crash")
	}
	// Survivor keeps appending where the flushed prefix ended.
	if lsn := s.Append(&Record{Type: RecAbort, Txn: 1}); lsn != 3 {
		t.Errorf("survivor next LSN = %d, want 3", lsn)
	}
}

func TestFileLogPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecBegin, Txn: 9})
	l.Append(&Record{Type: RecAddLeafEntry, Txn: 9, Pg: 2, Body: []byte("k")})
	l.Append(&Record{Type: RecCommit, Txn: 9})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 3 {
		t.Fatalf("reopened LastLSN = %d, want 3", l2.LastLSN())
	}
	r, err := l2.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != RecAddLeafEntry || r.Txn != 9 || r.Pg != 2 || string(r.Body) != "k" {
		t.Errorf("record 2 = %+v", r)
	}
	// Appends continue after the recovered prefix.
	if lsn := l2.Append(&Record{Type: RecEnd, Txn: 9}); lsn != 4 {
		t.Errorf("next LSN = %d, want 4", lsn)
	}
	if err := l2.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestFileLogTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file by appending a torn frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 50, 1, 2, 3, 4, 9, 9}) // claims 50 bytes, has 2
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 2 {
		t.Errorf("LastLSN = %d after torn tail, want 2", l2.LastLSN())
	}
	// The torn bytes must be gone so a new append round-trips.
	l2.Append(&Record{Type: RecAbort, Txn: 1})
	l2.FlushAll()
	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.LastLSN() != 3 {
		t.Errorf("LastLSN = %d after re-append, want 3", l3.LastLSN())
	}
}

func TestFileLogBadCRCDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last record's body.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Errorf("LastLSN = %d after CRC corruption, want 1", l2.LastLSN())
	}
}

func TestCheckpointTracking(t *testing.T) {
	l := NewMemLog()
	l.Append(&Record{Type: RecBegin, Txn: 1})
	ck := l.Append(&Record{Type: RecCheckpoint, ATT: []TxnState{{ID: 1, LastLSN: 1}}})
	l.Append(&Record{Type: RecCommit, Txn: 1})
	if l.MasterCheckpoint() != ck {
		t.Errorf("MasterCheckpoint = %d, want %d", l.MasterCheckpoint(), ck)
	}
	l.FlushAll()
	s := l.SurvivingLog()
	if s.MasterCheckpoint() != ck {
		t.Errorf("survivor MasterCheckpoint = %d, want %d", s.MasterCheckpoint(), ck)
	}
}

func TestConcurrentAppendersGetDistinctLSNs(t *testing.T) {
	l := NewMemLog()
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	lsns := make(chan page.LSN, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsns <- l.Append(&Record{Type: RecBegin, Txn: page.TxnID(g)})
			}
		}(g)
	}
	wg.Wait()
	close(lsns)
	seen := make(map[page.LSN]bool)
	for lsn := range lsns {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if len(seen) != goroutines*per {
		t.Errorf("got %d distinct LSNs", len(seen))
	}
	if l.LastLSN() != goroutines*per {
		t.Errorf("LastLSN = %d", l.LastLSN())
	}
}

// Property: Encode/Decode round-trips arbitrary records.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(typ uint8, txn, prev, undoNext uint64, pg, pg2 uint32, body, oldBody []byte, lsn uint64) bool {
		base := RecType(typ%uint8(numRecTypes-1)) + 1
		r := &Record{
			LSN:      page.LSN(lsn),
			Type:     base,
			Txn:      page.TxnID(txn),
			PrevLSN:  page.LSN(prev),
			UndoNext: page.LSN(undoNext),
			Pg:       page.PageID(pg),
			Pg2:      page.PageID(pg2),
		}
		if len(body) > 0 {
			r.Body = body
		}
		if len(oldBody) > 0 {
			r.OldBody = oldBody
		}
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			return false
		}
		return got.Type == r.Type && got.Txn == r.Txn && got.LSN == r.LSN &&
			got.PrevLSN == r.PrevLSN && got.UndoNext == r.UndoNext &&
			got.Pg == r.Pg && got.Pg2 == r.Pg2 &&
			bytes.Equal(got.Body, r.Body) && bytes.Equal(got.OldBody, r.OldBody)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	l := NewMemLog()
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Append(&Record{Type: RecBegin, Txn: 2})
	l.FlushAll()
	appends, syncs := l.Metrics().Value("wal.appends"), l.Metrics().Value("wal.syncs")
	if appends != 2 || syncs != 1 {
		t.Errorf("stats = %d appends %d syncs", appends, syncs)
	}
}

func TestDiscardBeforeMemLog(t *testing.T) {
	l := NewMemLog()
	for i := 0; i < 10; i++ {
		l.Append(&Record{Type: RecBegin, Txn: page.TxnID(i + 1)})
	}
	l.FlushAll()
	if _, err := l.DiscardBefore(6); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 5 {
		t.Errorf("Base = %d, want 5", l.Base())
	}
	if _, err := l.Get(5); err == nil {
		t.Error("discarded record still readable")
	}
	if r, err := l.Get(6); err != nil || r.Txn != 6 {
		t.Errorf("Get(6) = %v, %v", r, err)
	}
	// LSN numbering continues.
	if lsn := l.Append(&Record{Type: RecCommit, Txn: 6}); lsn != 11 {
		t.Errorf("next LSN = %d, want 11", lsn)
	}
	var seen int
	l.Scan(1, func(r *Record) bool { seen++; return true })
	if seen != 6 {
		t.Errorf("Scan visited %d records, want 6", seen)
	}
	// Idempotent and clamped by flush watermark.
	if _, err := l.DiscardBefore(3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.DiscardBefore(100); err != nil {
		t.Fatal(err)
	}
	if l.Base() > l.FlushedLSN() {
		t.Errorf("Base %d beyond flushed %d", l.Base(), l.FlushedLSN())
	}
}

func TestDiscardBeforeFileLogPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Append(&Record{Type: RecBegin, Txn: page.TxnID(i + 1)})
	}
	l.FlushAll()
	discarded, err := l.DiscardBefore(15)
	if err != nil {
		t.Fatal(err)
	}
	if discarded <= 0 {
		t.Errorf("discarded = %d bytes, want > 0", discarded)
	}
	l.Append(&Record{Type: RecCommit, Txn: 20}) // LSN 22: 21 is the truncation intent
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 14 {
		t.Errorf("reopened Base = %d, want 14", l2.Base())
	}
	if l2.LastLSN() != 22 {
		t.Errorf("reopened LastLSN = %d, want 22", l2.LastLSN())
	}
	if r, err := l2.Get(21); err != nil || r.Type != RecTruncate || r.NSN != 15 {
		t.Errorf("intent record Get(21) = %v, %v, want Truncate NSN=15", r, err)
	}
	if r, err := l2.Get(15); err != nil || r.Txn != 15 {
		t.Errorf("Get(15) = %v, %v", r, err)
	}
	if _, err := l2.Get(14); err == nil {
		t.Error("pre-truncation record resurrected")
	}
}

func TestGroupCommitConcurrentFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const committers = 16
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lsn := l.Append(&Record{Type: RecCommit, Txn: page.TxnID(c + 1)})
				if err := l.FlushTo(lsn); err != nil {
					t.Error(err)
					return
				}
				if l.FlushedLSN() < lsn {
					t.Errorf("flushed %d < committed %d", l.FlushedLSN(), lsn)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	appends, syncs := l.Metrics().Value("wal.appends"), l.Metrics().Value("wal.syncs")
	if appends != committers*20 {
		t.Errorf("appends = %d", appends)
	}
	// Group commit: syncs should be well below one per commit under
	// contention. (Not asserted strictly — timing dependent — but the
	// durability invariant above is.)
	t.Logf("group commit: %d appends, %d syncs", appends, syncs)
}

// TestFileLogScanAcrossBuffer: the restart scan reads through a buffer
// smaller than the log, so records straddle its refills; every record must
// come back intact, and a decoded field must not share spare capacity with
// its neighbours in the one copy the scan decodes from.
func TestFileLogScanAcrossBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 300; i++ {
		r := &Record{
			Type:    RecInternalEntryUpdate,
			Txn:     page.TxnID(i),
			Body:    bytes.Repeat([]byte{byte(i)}, 7000+i),
			OldBody: bytes.Repeat([]byte{byte(i + 1)}, 100),
			Moved:   [][]byte{{1, 2, 3}, bytes.Repeat([]byte{byte(i + 2)}, i)},
		}
		l.Append(r)
		want = append(want, r.Encode())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 2*scanBufSize {
		t.Fatalf("log is %v bytes (%v), want more than two scan buffers", fi.Size(), err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != page.LSN(len(want)) {
		t.Fatalf("reopened LastLSN = %d, want %d", l2.LastLSN(), len(want))
	}
	for i, w := range want {
		r, err := l2.Get(page.LSN(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Encode(), w) {
			t.Fatalf("record %d differs after the scan", i+1)
		}
	}
	r, _ := l2.Get(5)
	_ = append(r.Body, 0xff)
	if !bytes.Equal(r.OldBody, bytes.Repeat([]byte{5}, 100)) {
		t.Fatal("appending to a scanned Body overwrote its OldBody")
	}
}
