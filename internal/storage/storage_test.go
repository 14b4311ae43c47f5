package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/page"
)

// managers returns fresh instances of every Manager implementation for
// table-driven tests.
func managers(t *testing.T) map[string]Manager {
	t.Helper()
	fd, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	return map[string]Manager{
		"mem":  NewMemDisk(),
		"file": fd,
	}
}

func TestAllocateReadWrite(t *testing.T) {
	for name, m := range managers(t) {
		t.Run(name, func(t *testing.T) {
			id, err := m.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id == page.InvalidPage {
				t.Fatal("allocated the invalid page id")
			}
			out := make([]byte, page.Size)
			for i := range out {
				out[i] = byte(i)
			}
			if err := m.WritePage(id, out); err != nil {
				t.Fatal(err)
			}
			in := make([]byte, page.Size)
			if err := m.ReadPage(id, in); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(in, out) {
				t.Error("read back different bytes")
			}
			if m.NumAllocated() != 1 {
				t.Errorf("NumAllocated = %d", m.NumAllocated())
			}
		})
	}
}

func TestFreshPageIsZero(t *testing.T) {
	for name, m := range managers(t) {
		t.Run(name, func(t *testing.T) {
			id, err := m.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, page.Size)
			buf[0] = 0xFF
			if err := m.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			for i, b := range buf {
				if b != 0 {
					t.Fatalf("fresh page byte %d = %d", i, b)
				}
			}
		})
	}
}

func TestDeallocateAndReuse(t *testing.T) {
	for name, m := range managers(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := m.Allocate()
			b, _ := m.Allocate()
			if err := m.Deallocate(a); err != nil {
				t.Fatal(err)
			}
			if m.NumAllocated() != 1 {
				t.Errorf("NumAllocated = %d, want 1", m.NumAllocated())
			}
			buf := make([]byte, page.Size)
			if err := m.ReadPage(a, buf); !errors.Is(err, ErrNoSuchPage) {
				t.Errorf("read freed page: err = %v", err)
			}
			if err := m.Deallocate(a); !errors.Is(err, ErrNoSuchPage) {
				t.Errorf("double free: err = %v", err)
			}
			c, _ := m.Allocate()
			if c != a {
				t.Errorf("reuse: got %d, want freed id %d", c, a)
			}
			_ = b
		})
	}
}

func TestReadUnallocated(t *testing.T) {
	for name, m := range managers(t) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, page.Size)
			if err := m.ReadPage(12345, buf); !errors.Is(err, ErrNoSuchPage) {
				t.Errorf("err = %v, want ErrNoSuchPage", err)
			}
			if err := m.WritePage(12345, buf); !errors.Is(err, ErrNoSuchPage) {
				t.Errorf("write: err = %v, want ErrNoSuchPage", err)
			}
		})
	}
}

func TestFileDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Allocate()
	b, _ := d.Allocate()
	c, _ := d.Allocate()
	content := make([]byte, page.Size)
	copy(content, "persisted content")
	if err := d.WritePage(b, content); err != nil {
		t.Fatal(err)
	}
	if err := d.Deallocate(c); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumAllocated() != 2 {
		t.Errorf("NumAllocated after reopen = %d, want 2", d2.NumAllocated())
	}
	buf := make([]byte, page.Size)
	if err := d2.ReadPage(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content) {
		t.Error("content lost across reopen")
	}
	// Freed id should be reused before extending.
	id, _ := d2.Allocate()
	if id != c {
		t.Errorf("reuse after reopen: got %d, want %d", id, c)
	}
	_ = a
}

func TestFileDiskBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Corrupting only the home meta block is healed by double-write
	// replay on the next open.
	f, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	f.f.WriteAt([]byte{0, 0, 0, 0}, 0)
	f.f.Close()
	f.dw.Close()
	healed, err := OpenFileDisk(path)
	if err != nil {
		t.Fatalf("dw replay should heal a torn meta block: %v", err)
	}
	healed.Close()
	// With the journal gone too, the corruption is fatal.
	g, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	g.f.WriteAt([]byte{0, 0, 0, 0}, 0)
	g.f.Close()
	g.dw.Close()
	if err := os.Remove(path + ".dw"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(path); err == nil {
		t.Error("open with bad magic should fail")
	}
}

func TestMemDiskSnapshot(t *testing.T) {
	m := NewMemDisk()
	id, _ := m.Allocate()
	buf := make([]byte, page.Size)
	copy(buf, "before")
	m.WritePage(id, buf)

	snap := m.Snapshot()

	copy(buf, "after!")
	m.WritePage(id, buf)

	got := make([]byte, page.Size)
	if err := snap.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "before" {
		t.Errorf("snapshot sees %q", got[:6])
	}
	// Snapshot allocates independently.
	a1, _ := m.Allocate()
	a2, _ := snap.Snapshot().Allocate()
	if a1 != a2 {
		t.Errorf("snapshot next id diverged: %d vs %d", a1, a2)
	}
}

func TestSlowDiskAddsLatency(t *testing.T) {
	m := NewMemDisk()
	id, _ := m.Allocate()
	s := NewSlowDisk(m, 5*time.Millisecond)
	buf := make([]byte, page.Size)
	start := time.Now()
	if err := s.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("two ops took %v, want >= 10ms", d)
	}
}

func TestCrashDiskManual(t *testing.T) {
	m := NewMemDisk()
	id, _ := m.Allocate()
	c := NewCrashDisk(m)
	buf := make([]byte, page.Size)
	if err := c.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if !c.Crashed() {
		t.Error("Crashed() = false after Crash()")
	}
	if err := c.ReadPage(id, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("read after crash: %v", err)
	}
	if err := c.WritePage(id, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("write after crash: %v", err)
	}
	if _, err := c.Allocate(); !errors.Is(err, ErrCrashed) {
		t.Errorf("allocate after crash: %v", err)
	}
	if err := c.Deallocate(id); !errors.Is(err, ErrCrashed) {
		t.Errorf("deallocate after crash: %v", err)
	}
	if err := c.Sync(); !errors.Is(err, ErrCrashed) {
		t.Errorf("sync after crash: %v", err)
	}
}

func TestCrashDiskAfterWrites(t *testing.T) {
	m := NewMemDisk()
	id, _ := m.Allocate()
	c := NewCrashDisk(m)
	c.CrashAfterWrites(3)
	buf := make([]byte, page.Size)
	for i := 0; i < 3; i++ {
		if err := c.WritePage(id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !c.Crashed() {
		t.Fatal("should have crashed after 3 writes")
	}
	if err := c.WritePage(id, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("4th write: %v", err)
	}
	if c.WritesTotal() != 3 {
		t.Errorf("WritesTotal = %d, want 3", c.WritesTotal())
	}
}

// Property: for any interleaving of allocate/write/deallocate, the set of
// live pages in a MemDisk matches a model map, and content round-trips.
func TestQuickMemDiskModel(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMemDisk()
		model := make(map[page.PageID]byte)
		var ids []page.PageID
		for i, op := range ops {
			switch {
			case op%4 < 2 || len(ids) == 0: // allocate + write marker
				id, err := m.Allocate()
				if err != nil {
					return false
				}
				b := make([]byte, page.Size)
				b[0] = byte(i)
				if err := m.WritePage(id, b); err != nil {
					return false
				}
				model[id] = byte(i)
				ids = append(ids, id)
			case op%4 == 2: // overwrite
				id := ids[int(op)%len(ids)]
				b := make([]byte, page.Size)
				b[0] = op
				if err := m.WritePage(id, b); err != nil {
					return false
				}
				model[id] = op
			default: // deallocate
				j := int(op) % len(ids)
				id := ids[j]
				if err := m.Deallocate(id); err != nil {
					return false
				}
				delete(model, id)
				ids = append(ids[:j], ids[j+1:]...)
			}
		}
		if m.NumAllocated() != len(model) {
			return false
		}
		buf := make([]byte, page.Size)
		for id, marker := range model {
			if err := m.ReadPage(id, buf); err != nil || buf[0] != marker {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemDiskStats(t *testing.T) {
	m := NewMemDisk()
	id, _ := m.Allocate()
	buf := make([]byte, page.Size)
	m.WritePage(id, buf)
	m.ReadPage(id, buf)
	m.ReadPage(id, buf)
	r, w := m.Metrics().Value("disk.reads"), m.Metrics().Value("disk.writes")
	if r != 2 || w != 1 {
		t.Errorf("stats = %d reads %d writes, want 2,1", r, w)
	}
}

func TestEnsureAllocatedDeallocated(t *testing.T) {
	for name, m := range managers(t) {
		t.Run(name, func(t *testing.T) {
			// Adopt a never-allocated id.
			if err := m.EnsureAllocated(7); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, page.Size)
			if err := m.ReadPage(7, buf); err != nil {
				t.Fatalf("read adopted: %v", err)
			}
			// Idempotent; does not clobber content.
			buf[0] = 0xEE
			if err := m.WritePage(7, buf); err != nil {
				t.Fatal(err)
			}
			if err := m.EnsureAllocated(7); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, page.Size)
			m.ReadPage(7, got)
			if got[0] != 0xEE {
				t.Error("EnsureAllocated clobbered content")
			}
			// Force free, idempotently.
			if err := m.EnsureDeallocated(7); err != nil {
				t.Fatal(err)
			}
			if err := m.EnsureDeallocated(7); err != nil {
				t.Fatal(err)
			}
			if err := m.ReadPage(7, got); !errors.Is(err, ErrNoSuchPage) {
				t.Errorf("read freed: %v", err)
			}
			// Freed id is reusable and EnsureAllocated removes it from
			// the free list without double-allocation.
			if err := m.EnsureAllocated(7); err != nil {
				t.Fatal(err)
			}
			id, err := m.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id == 7 {
				t.Error("Allocate handed out an ensured-allocated id")
			}
		})
	}
}

func TestCrashDiskEnsureOps(t *testing.T) {
	m := NewMemDisk()
	c := NewCrashDisk(m)
	if err := c.EnsureAllocated(3); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureDeallocated(3); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if err := c.EnsureAllocated(4); !errors.Is(err, ErrCrashed) {
		t.Errorf("EnsureAllocated after crash: %v", err)
	}
	if err := c.EnsureDeallocated(4); !errors.Is(err, ErrCrashed) {
		t.Errorf("EnsureDeallocated after crash: %v", err)
	}
}

func TestFileDiskStatsAndEnsureBeyondEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, _ := d.Allocate()
	buf := make([]byte, page.Size)
	d.WritePage(id, buf)
	d.ReadPage(id, buf)
	if r, w := d.Metrics().Value("disk.reads"), d.Metrics().Value("disk.writes"); r != 1 || w != 1 {
		t.Errorf("stats = %d,%d", r, w)
	}
	// Adopt an id beyond EOF: the file must be extended with zeros.
	if err := d.EnsureAllocated(50); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(50, buf); err != nil {
		t.Fatalf("read far page: %v", err)
	}
	// Re-adopt an id already covered by the file: content preserved.
	content := make([]byte, page.Size)
	copy(content, "precious")
	d.WritePage(50, content)
	d.EnsureDeallocated(50)
	if err := d.EnsureAllocated(50); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, page.Size)
	d.ReadPage(50, got)
	if string(got[:8]) != "precious" {
		t.Error("EnsureAllocated zeroed surviving content")
	}
}
