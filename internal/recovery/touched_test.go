package recovery

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/page"
	"repro/internal/wal"
)

// TestTouchedPages is the page-touch table over every record type and its
// CLR: which pages restart redo and replica apply queue a record for. A
// new record type fails the test until it is given a row.
func TestTouchedPages(t *testing.T) {
	const pg, pg2 = page.PageID(11), page.PageID(12)
	one, both := []page.PageID{pg}, []page.PageID{pg, pg2}
	want := map[wal.RecType]struct{ fwd, clr []page.PageID }{
		wal.RecBegin:               {},
		wal.RecCommit:              {},
		wal.RecAbort:               {},
		wal.RecEnd:                 {},
		wal.RecDummyCLR:            {},
		wal.RecCheckpoint:          {},
		wal.RecTruncate:            {},
		wal.RecSplit:               {both, one},
		wal.RecParentEntryUpdate:   {one, one},
		wal.RecGarbageCollection:   {one, one},
		wal.RecInternalEntryAdd:    {one, one},
		wal.RecInternalEntryUpdate: {one, one},
		wal.RecInternalEntryDelete: {one, one},
		wal.RecAddLeafEntry:        {one, one},
		wal.RecMarkLeafEntry:       {one, one},
		wal.RecGetPage:             {one, one},
		wal.RecFreePage:            {one, one},
		wal.RecRootChange:          {one, one},
		wal.RecHeapInsert:          {one, one},
		wal.RecHeapDelete:          {one, one},
	}
	for typ := wal.RecType(0); typ < wal.ClrFlag; typ++ {
		row, listed := want[typ]
		if !listed && typ.String() != fmt.Sprintf("RecType(%d)", uint8(typ)) {
			t.Errorf("record type %v has no row in the page-touch table", typ)
			continue
		}
		for _, c := range []struct {
			typ  wal.RecType
			want []page.PageID
		}{{typ, row.fwd}, {typ | wal.ClrFlag, row.clr}} {
			rec := &wal.Record{Type: c.typ, Pg: pg, Pg2: pg2}
			if got := touchedPages(rec); !slices.Equal(got, c.want) {
				t.Errorf("%v touches %v, want %v", c.typ, got, c.want)
			}
		}
	}
}
