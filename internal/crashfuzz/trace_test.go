package crashfuzz

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestPageTraceShortPredicate: a heap record body can parse as an index
// entry whose predicate is no btree key or range. The violation trace must
// print it as a plain body instead of panicking, or the panic hides the
// restart error the trace was built for.
func TestPageTraceShortPredicate(t *testing.T) {
	l := wal.NewMemLog()
	enc := func(e page.Entry, leaf bool) []byte { return e.Encode(leaf) }
	leafish := enc(page.Entry{Pred: []byte{1, 2, 3}, RID: page.RID{Page: 7, Slot: 1}}, true)
	internalish := enc(page.Entry{Pred: []byte{4}, Child: 9}, false)
	l.Append(&wal.Record{Type: wal.RecHeapInsert, Pg: 7, RID: page.RID{Page: 7, Slot: 1}, Body: leafish})
	l.Append(&wal.Record{Type: wal.RecHeapInsert, Pg: 7, RID: page.RID{Page: 7, Slot: 2}, Body: internalish})
	key := enc(page.Entry{Pred: btree.EncodeKey(42), RID: page.RID{Page: 3, Slot: 0}}, true)
	l.Append(&wal.Record{Type: wal.RecAddLeafEntry, Pg: 7, Body: key})

	out := pageTrace(l, errors.New("check: node 7 entry 2 escapes parent BP"))
	if got := strings.Count(out, " body("); got != 2 {
		t.Errorf("trace shows %d plain bodies, want 2:%s", got, out)
	}
	if !strings.Contains(out, "leaf[42,42") {
		t.Errorf("trace lost the btree entry:%s", out)
	}
}

// TestOracleTraceFollowsViolatingEntries: an oracle violation ships every
// record of the transaction that wrote the violating entry and every
// record naming a page the entry was logged on or moved to — here the
// split that moved it and the CLR on the sibling — and nothing else.
func TestOracleTraceFollowsViolatingEntries(t *testing.T) {
	l := wal.NewMemLog()
	rid := page.RID{Page: 3, Slot: 63}
	body := (&page.Entry{Pred: btree.EncodeKey(42), RID: rid}).Encode(true)
	other := (&page.Entry{Pred: btree.EncodeKey(7), RID: page.RID{Page: 3, Slot: 64}}).Encode(true)
	l.Append(&wal.Record{Type: wal.RecHeapInsert, Txn: 5, Pg: 3, RID: rid, Body: []byte("rec-42")})
	l.Append(&wal.Record{Type: wal.RecAddLeafEntry, Txn: 5, Pg: 10, Body: body})
	l.Append(&wal.Record{Type: wal.RecSplit, Txn: 6, Pg: 10, Pg2: 11, Moved: [][]byte{body}})
	l.Append(&wal.Record{Type: wal.RecAddLeafEntry, Txn: 7, Pg: 12, Body: other})
	l.Append(&wal.Record{Type: wal.RecAddLeafEntry | wal.ClrFlag, Txn: 5, Pg: 11, RID: rid, Body: body})

	out := violationTrace(l, errors.New("oracle: 1 violations:\n  uncommitted entry (3,63) (\"x\") survived restart"))
	if !strings.Contains(out, "ORACLE TRACE for txns [5] on pages [10 11]") {
		t.Fatalf("trace header names the wrong transactions or pages:%s", out)
	}
	for _, lsn := range []string{"lsn=1 ", "lsn=2 ", "lsn=3 ", "lsn=5 "} {
		if !strings.Contains(out, lsn) {
			t.Errorf("trace misses %s:%s", lsn, out)
		}
	}
	if strings.Contains(out, "lsn=4 ") {
		t.Errorf("trace shows the unrelated record:%s", out)
	}
}
