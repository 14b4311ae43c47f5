package recovery

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestRedoRecordStatsExact pins the Redone/RedoSkipped classification on
// the allocation-state redo paths. The old accounting incremented Redone
// on Free-Page and Get-Page-CLR records even when the page no longer
// existed and nothing was applied, so restart stats overstated redo work
// exactly when a checkpoint had already bounded it.
func TestRedoRecordStatsExact(t *testing.T) {
	newRec := func() (*Recovery, *storage.MemDisk) {
		d := storage.NewMemDisk()
		return &Recovery{Pool: buffer.New(d, 8, nil), Disk: d}, d
	}
	allocPage := func(t *testing.T, r *Recovery, lsn page.LSN) page.PageID {
		t.Helper()
		f, err := r.Pool.NewPage(0)
		if err != nil {
			t.Fatal(err)
		}
		id := f.ID()
		f.Page.SetLSN(lsn)
		r.Pool.Unpin(f, true, lsn)
		if err := r.Pool.FlushPage(id); err != nil {
			t.Fatal(err)
		}
		return id
	}

	t.Run("free-page applied", func(t *testing.T) {
		r, _ := newRec()
		id := allocPage(t, r, 5)
		var st Stats
		if err := r.redoOnPage(&wal.Record{Type: wal.RecFreePage, Pg: id, LSN: 9}, id, &st); err != nil {
			t.Fatal(err)
		}
		if st.Redone != 1 || st.RedoSkipped != 0 {
			t.Errorf("stats = %+v, want exactly {Redone:1}", st)
		}
	})

	t.Run("free-page already gone", func(t *testing.T) {
		r, _ := newRec()
		var st Stats
		if err := r.redoOnPage(&wal.Record{Type: wal.RecFreePage, Pg: 77, LSN: 9}, 77, &st); err != nil {
			t.Fatal(err)
		}
		if st.Redone != 0 || st.RedoSkipped != 1 {
			t.Errorf("stats = %+v, want exactly {RedoSkipped:1}", st)
		}
	})

	t.Run("get-page-clr applied", func(t *testing.T) {
		r, _ := newRec()
		id := allocPage(t, r, 5)
		var st Stats
		rec := &wal.Record{Type: wal.RecGetPage | wal.ClrFlag, Pg: id, LSN: 9}
		if err := r.redoOnPage(rec, rec.Pg, &st); err != nil {
			t.Fatal(err)
		}
		if st.Redone != 1 || st.RedoSkipped != 0 {
			t.Errorf("stats = %+v, want exactly {Redone:1}", st)
		}
	})

	t.Run("get-page-clr already gone", func(t *testing.T) {
		r, _ := newRec()
		var st Stats
		rec := &wal.Record{Type: wal.RecGetPage | wal.ClrFlag, Pg: 77, LSN: 9}
		if err := r.redoOnPage(rec, rec.Pg, &st); err != nil {
			t.Fatal(err)
		}
		if st.Redone != 0 || st.RedoSkipped != 1 {
			t.Errorf("stats = %+v, want exactly {RedoSkipped:1}", st)
		}
	})

	t.Run("page-lsn skip", func(t *testing.T) {
		r, _ := newRec()
		id := allocPage(t, r, 42)
		var st Stats
		rec := &wal.Record{Type: wal.RecGetPage, Pg: id, LSN: 9}
		if err := r.redoOnPage(rec, rec.Pg, &st); err != nil {
			t.Fatal(err)
		}
		if st.Redone != 0 || st.RedoSkipped != 1 {
			t.Errorf("stats = %+v, want exactly {RedoSkipped:1}", st)
		}
	})
}
