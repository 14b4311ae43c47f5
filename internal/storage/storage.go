// Package storage provides page stores ("disk managers") beneath the buffer
// pool: a file-backed store, an in-memory store, and wrappers that inject
// simulated I/O latency and crash faults for the recovery experiments.
//
// Page allocation and deallocation are exposed here as raw operations; the
// tree layer makes them recoverable by writing Get-Page / Free-Page log
// records (Table 1 of the paper) around them.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/page"
	"repro/internal/stats"
)

// ErrNoSuchPage is returned when reading a page that was never allocated.
var ErrNoSuchPage = errors.New("storage: no such page")

// ErrCrashed is returned by a CrashDisk after its crash point is reached.
var ErrCrashed = errors.New("storage: simulated crash")

// Manager is the interface between the buffer pool and a page store.
//
// Read and Write transfer exactly page.Size bytes. Allocate returns a fresh
// page id (ids are never zero). Deallocate returns a page to the free pool;
// the id may later be handed out again by Allocate.
type Manager interface {
	ReadPage(id page.PageID, buf []byte) error
	WritePage(id page.PageID, buf []byte) error
	Allocate() (page.PageID, error)
	Deallocate(id page.PageID) error
	// NumAllocated returns the number of live pages (allocated and not
	// yet deallocated).
	NumAllocated() int
	// EnsureAllocated forces the allocation state of a specific page id,
	// used by restart redo of Get-Page records (Table 1: "mark page as
	// unavailable"). Idempotent.
	EnsureAllocated(id page.PageID) error
	// EnsureDeallocated forces a page to the free state, used by restart
	// redo of Free-Page records. Idempotent.
	EnsureDeallocated(id page.PageID) error
	// Sync makes all completed writes durable.
	Sync() error
	Close() error
}

// MetricsOf returns the stats registry of the concrete store underneath m,
// unwrapping the fault-injection wrappers (SlowDisk, CrashDisk), or nil for
// an unknown implementation.
func MetricsOf(m Manager) *stats.Registry {
	for {
		switch d := m.(type) {
		case *MemDisk:
			return d.reg
		case *FileDisk:
			return d.reg
		case *SlowDisk:
			m = d.Manager
		case *CrashDisk:
			m = d.Manager
		default:
			return nil
		}
	}
}

// MemDisk is an in-memory page store. It is safe for concurrent use.
type MemDisk struct {
	mu    sync.Mutex
	pages map[page.PageID][]byte
	free  []page.PageID
	next  page.PageID

	reg    *stats.Registry
	reads  *stats.Counter
	writes *stats.Counter
}

// NewMemDisk returns an empty in-memory page store.
func NewMemDisk() *MemDisk {
	m := &MemDisk{pages: make(map[page.PageID][]byte), next: 1}
	m.reg = stats.NewRegistry()
	m.reads = m.reg.Counter("disk.reads")
	m.writes = m.reg.Counter("disk.writes")
	return m
}

// Metrics exposes the store's counter registry.
func (m *MemDisk) Metrics() *stats.Registry { return m.reg }

// Allocate implements Manager.
func (m *MemDisk) Allocate() (page.PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id page.PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.pages[id] = make([]byte, page.Size)
	return id, nil
}

// Deallocate implements Manager.
func (m *MemDisk) Deallocate(id page.PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// ReadPage implements Manager.
func (m *MemDisk) ReadPage(id page.PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	src, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	m.reads.Inc()
	copy(buf, src)
	return nil
}

// WritePage implements Manager.
func (m *MemDisk) WritePage(id page.PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchPage, id)
	}
	m.writes.Inc()
	copy(dst, buf)
	return nil
}

// NumAllocated implements Manager.
func (m *MemDisk) NumAllocated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// Sync implements Manager; a no-op for memory.
func (m *MemDisk) Sync() error { return nil }

// Close implements Manager.
func (m *MemDisk) Close() error { return nil }

// Snapshot returns a deep copy of the store, used to simulate the durable
// state that survives a crash (the buffer pool contents do not).
func (m *MemDisk) Snapshot() *MemDisk {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &MemDisk{pages: make(map[page.PageID][]byte, len(m.pages)), next: m.next}
	s.reg = stats.NewRegistry()
	s.reads = s.reg.Counter("disk.reads")
	s.writes = s.reg.Counter("disk.writes")
	s.free = append(s.free, m.free...)
	for id, b := range m.pages {
		cp := make([]byte, page.Size)
		copy(cp, b)
		s.pages[id] = cp
	}
	return s
}

// PageIDs returns the ids of all live pages in ascending order, for tests
// and benchmarks that digest the durable state (e.g. comparing the recovered
// images of a serial vs a parallel restart byte for byte).
func (m *MemDisk) PageIDs() []page.PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]page.PageID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EnsureAllocated implements Manager.
func (m *MemDisk) EnsureAllocated(id page.PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; ok {
		return nil
	}
	m.pages[id] = make([]byte, page.Size)
	for i, f := range m.free {
		if f == id {
			m.free = append(m.free[:i], m.free[i+1:]...)
			break
		}
	}
	if id >= m.next {
		m.next = id + 1
	}
	return nil
}

// EnsureDeallocated implements Manager.
func (m *MemDisk) EnsureDeallocated(id page.PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; !ok {
		return nil
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}
