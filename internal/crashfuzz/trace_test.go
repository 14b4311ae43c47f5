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
