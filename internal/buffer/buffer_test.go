package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/storage"
)

// recordingFlusher records the highest LSN the pool asked to be flushed.
type recordingFlusher struct {
	mu  sync.Mutex
	max page.LSN
}

func (r *recordingFlusher) FlushTo(l page.LSN) error {
	r.mu.Lock()
	if l > r.max {
		r.max = l
	}
	r.mu.Unlock()
	return nil
}

// FlushedLSN reports nothing durable, so the pool's fast path never skips
// FlushTo and the recorder observes every WAL-rule flush.
func (r *recordingFlusher) FlushedLSN() page.LSN { return 0 }

func newPoolDisk(t *testing.T, capacity int) (*Pool, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	return New(d, capacity, nil), d
}

func TestNewPageFetchUnpin(t *testing.T) {
	p, _ := newPoolDisk(t, 4)
	f, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if !f.Page.IsLeaf() {
		t.Error("NewPage(0) not a leaf")
	}
	if _, err := f.Page.InsertBytes([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true, 1)

	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Error("cached fetch returned a different frame")
	}
	b, err := g.Page.SlotBytes(0)
	if err != nil || string(b) != "hello" {
		t.Errorf("content lost: %q %v", b, err)
	}
	p.Unpin(g, false, 0)
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 2, nil)
	var ids []page.PageID
	for i := 0; i < 4; i++ {
		f, err := p.NewPage(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.InsertBytes([]byte{byte('A' + i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Unpin(f, true, page.LSN(i+1))
	}
	// All four pages must round-trip through the 2-frame pool.
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("refetch %d: %v", id, err)
		}
		b, err := f.Page.SlotBytes(0)
		if err != nil || b[0] != byte('A'+i) {
			t.Errorf("page %d content = %v, %v", id, b, err)
		}
		p.Unpin(f, false, 0)
	}
	if misses := p.Metrics().Value("buffer.misses"); misses == 0 {
		t.Error("expected misses with capacity 2")
	}
}

func TestWALRuleOnEviction(t *testing.T) {
	d := storage.NewMemDisk()
	fl := &recordingFlusher{}
	p := New(d, 1, fl)
	f, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Page.SetLSN(777)
	p.Unpin(f, true, 777)
	// Force eviction by allocating another page into the only frame.
	g, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(g, false, 0)
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.max < 777 {
		t.Errorf("log flushed to %d before steal, want >= 777", fl.max)
	}
}

// TestPoolExhausted: a caller that has pinned the whole pool waits on its
// own pins, which nothing will release, so the claim ends in
// ErrPoolExhausted after the deadlock period (shortened here).
func TestPoolExhausted(t *testing.T) {
	p, d := newPoolDisk(t, 2)
	p.deadlockAfter = 20 * time.Millisecond
	a, _ := p.NewPage(0)
	b, _ := p.NewPage(0)
	if _, err := p.NewPage(0); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("err = %v, want ErrPoolExhausted", err)
	}
	if n := d.NumAllocated(); n != 2 {
		t.Errorf("%d pages allocated after the failed NewPage, want 2", n)
	}
	p.Unpin(a, false, 0)
	if _, err := p.Fetch(b.ID()); err != nil { // re-pin cached page still fine
		t.Fatal(err)
	}
	p.Unpin(b, false, 0)
	p.Unpin(b, false, 0)
}

// TestFullPoolWaitsForUnpin: a fetch into a pool whose every frame is
// pinned by another goroutine waits until a frame is released and then
// succeeds, instead of failing with ErrPoolExhausted.
func TestFullPoolWaitsForUnpin(t *testing.T) {
	p, d := newPoolDisk(t, 2)
	a, _ := p.NewPage(0)
	b, _ := p.NewPage(0)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		f, err := p.Fetch(id)
		if err == nil {
			p.Unpin(f, false, 0)
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("fetch into a fully pinned pool returned %v before any unpin", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.Unpin(a, true, 1)
	if err := <-got; err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	p.Unpin(b, true, 1)
}

// TestFullPoolWaitHonorsCtx: the wait for a frame on a fully pinned pool
// ends with ctx's error when ctx fires first.
func TestFullPoolWaitHonorsCtx(t *testing.T) {
	p, d := newPoolDisk(t, 2)
	a, _ := p.NewPage(0)
	b, _ := p.NewPage(0)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.FetchCtx(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FetchCtx on a fully pinned pool = %v, want DeadlineExceeded", err)
	}
	p.Unpin(a, true, 1)
	p.Unpin(b, true, 1)
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false, 0)
}

func TestFetchInvalidPage(t *testing.T) {
	p, _ := newPoolDisk(t, 2)
	if _, err := p.Fetch(page.InvalidPage); err == nil {
		t.Error("fetch of invalid page succeeded")
	}
	if _, err := p.Fetch(999); err == nil {
		t.Error("fetch of unallocated page succeeded")
	}
}

func TestFlushPageAndAll(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 4, nil)
	f, _ := p.NewPage(0)
	if _, err := f.Page.InsertBytes([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	p.Unpin(f, true, 5)

	if got := p.DirtyPages(); got[id] != 5 {
		t.Errorf("DirtyPages = %v, want {%d:5}", got, id)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyPages(); len(got) != 0 {
		t.Errorf("DirtyPages after flush = %v", got)
	}
	// Verify durable content directly from disk.
	buf := make([]byte, page.Size)
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	var pg page.Page
	pg.CopyFrom(buf)
	b, err := pg.SlotBytes(0)
	if err != nil || string(b) != "durable" {
		t.Errorf("disk content %q %v", b, err)
	}
	// FlushPage of uncached page is a no-op.
	if err := p.FlushPage(4242); err != nil {
		t.Errorf("flush uncached: %v", err)
	}
}

func TestResetLosesUnflushed(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 4, nil)
	f, _ := p.NewPage(0)
	id := f.ID()
	if _, err := f.Page.InsertBytes([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true, 1)
	p.Reset() // crash: buffer contents lost
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(g, false, 0)
	if g.Page.NumSlots() != 0 {
		t.Error("unflushed update survived Reset")
	}
}

func TestDeallocateDropsCache(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 4, nil)
	f, _ := p.NewPage(0)
	id := f.ID()
	if err := p.Deallocate(id); err == nil {
		t.Error("deallocate of pinned page should fail")
	}
	p.Unpin(f, false, 0)
	if err := p.Deallocate(id); err != nil {
		t.Fatal(err)
	}
	if d.NumAllocated() != 0 {
		t.Error("disk still has the page")
	}
	if _, err := p.Fetch(id); err == nil {
		t.Error("fetch of deallocated page succeeded")
	}
}

func TestDiscardAbandonsFreshPage(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 2, nil)
	f, _ := p.NewPage(0)
	p.Discard(f)
	if w := d.Metrics().Value("disk.writes"); w != 0 {
		t.Errorf("discarded page was written (%d writes)", w)
	}
}

func TestConcurrentFetchersSamePage(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 8, nil)
	f, _ := p.NewPage(0)
	id := f.ID()
	if _, err := f.Page.InsertBytes([]byte("shared")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true, 1)
	p.FlushAll()
	p.Reset()

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr, err := p.Fetch(id)
			if err != nil {
				errs <- err
				return
			}
			fr.Latch.Acquire(latch.S)
			b, err := fr.Page.SlotBytes(0)
			if err != nil || string(b) != "shared" {
				errs <- fmt.Errorf("bad content %q %v", b, err)
			}
			fr.Latch.Release(latch.S)
			p.Unpin(fr, false, 0)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses := p.Metrics().Value("buffer.hits"), p.Metrics().Value("buffer.misses"); misses != 1 || hits != n-1 {
		t.Logf("hits=%d misses=%d (timing-dependent, informational)", hits, misses)
	}
}

func TestConcurrentThrash(t *testing.T) {
	// Many goroutines fetching a working set larger than the pool; every
	// page must retain its distinct content through repeated evictions.
	d := storage.NewMemDisk()
	p := New(d, 4, nil)
	const pages = 16
	ids := make([]page.PageID, pages)
	for i := range ids {
		f, err := p.NewPage(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.InsertBytes([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		p.Unpin(f, true, page.LSN(i+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (seed*31 + i*17) % pages
				f, err := p.Fetch(ids[idx])
				if err != nil {
					errs <- err
					return
				}
				f.Latch.Acquire(latch.S)
				b, err := f.Page.SlotBytes(0)
				if err != nil || b[0] != byte(idx) {
					errs <- fmt.Errorf("page %d content %v %v", ids[idx], b, err)
				}
				f.Latch.Release(latch.S)
				p.Unpin(f, false, 0)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentWritersDistinctPages(t *testing.T) {
	d := storage.NewMemDisk()
	p := New(d, 3, nil)
	const pages = 8
	ids := make([]page.PageID, pages)
	for i := range ids {
		f, err := p.NewPage(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Page.InsertBytes(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		p.Unpin(f, true, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < pages; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f, err := p.Fetch(ids[w])
				if err != nil {
					t.Error(err)
					return
				}
				f.Latch.Acquire(latch.X)
				b, _ := f.Page.SlotBytes(0)
				b[0]++ // increment under X latch
				f.Page.SetLSN(f.Page.LSN() + 1)
				f.Latch.Release(latch.X)
				p.Unpin(f, true, f.Page.LSN())
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < pages; w++ {
		f, err := p.Fetch(ids[w])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := f.Page.SlotBytes(0)
		if b[0] != 100 {
			t.Errorf("page %d counter = %d, want 100 (lost update through eviction)", ids[w], b[0])
		}
		p.Unpin(f, false, 0)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolDisk(t, 2)
	f, _ := p.NewPage(0)
	p.Unpin(f, false, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on pin underflow")
		}
	}()
	p.Unpin(f, false, 0)
}

func TestNewPageStealsDirtyVictim(t *testing.T) {
	// A pool of 1 frame whose only page is dirty: NewPage must write the
	// victim back (honoring the WAL rule) before reusing the frame.
	d := storage.NewMemDisk()
	fl := &recordingFlusher{}
	p := New(d, 1, fl)
	a, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Page.InsertBytes([]byte("victim-content")); err != nil {
		t.Fatal(err)
	}
	a.Page.SetLSN(99)
	aID := a.ID()
	p.Unpin(a, true, 99)

	b, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, false, 0)
	fl.mu.Lock()
	flushed := fl.max
	fl.mu.Unlock()
	if flushed < 99 {
		t.Errorf("WAL flushed to %d before steal, want >= 99", flushed)
	}
	// Victim content durable on disk.
	buf := make([]byte, page.Size)
	if err := d.ReadPage(aID, buf); err != nil {
		t.Fatal(err)
	}
	var pg page.Page
	pg.CopyFrom(buf)
	if got, err := pg.SlotBytes(0); err != nil || string(got) != "victim-content" {
		t.Errorf("victim content = %q %v", got, err)
	}
}

// blockingDisk stalls WritePage until released, so tests can race an
// update against an in-flight flush.
type blockingDisk struct {
	storage.Manager
	entered chan struct{} // signaled once when WritePage begins
	release chan struct{} // WritePage waits here before writing
	armed   bool
}

func (d *blockingDisk) WritePage(id page.PageID, buf []byte) error {
	if d.armed {
		d.armed = false
		close(d.entered)
		<-d.release
	}
	return d.Manager.WritePage(id, buf)
}

// TestFlushPageKeepsDirtyBitOnRacingUpdate pins the lost-dirty-bit fix:
// FlushPage copies the page image, writes it, and must NOT clear the
// dirty bit if an update landed between the copy and the write's
// completion — that update exists only in memory and would be lost to the
// next clean eviction.
func TestFlushPageKeepsDirtyBitOnRacingUpdate(t *testing.T) {
	bd := &blockingDisk{
		Manager: storage.NewMemDisk(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	p := New(bd, 4, nil)
	f, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if _, err := f.Page.InsertBytes([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true, 5)

	bd.armed = true
	done := make(chan error, 1)
	go func() { done <- p.FlushPage(id) }()
	<-bd.entered

	// The flush has copied the image and is stalled in WritePage. Land
	// another update on the page.
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	g.Latch.Acquire(latch.X)
	if _, err := g.Page.InsertBytes([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	g.Latch.Release(latch.X)
	p.Unpin(g, true, 9)

	close(bd.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The racing update must keep the frame dirty (recLSN 5 is still the
	// first unflushed update the checkpoint DPT needs to cover).
	if got := p.DirtyPages(); got[id] != 5 {
		t.Errorf("DirtyPages after raced flush = %v, want {%d:5}", got, id)
	}
}

// levelFlusher reports a settable durable watermark, for exercising the
// fixLSN conservative floor.
type levelFlusher struct{ lsn atomic.Uint64 }

func (l *levelFlusher) FlushTo(page.LSN) error { return nil }
func (l *levelFlusher) FlushedLSN() page.LSN   { return page.LSN(l.lsn.Load()) }
func (l *levelFlusher) set(v page.LSN)         { l.lsn.Store(uint64(v)) }

// TestDirtyPagesPinnedFloor pins the checkpoint-DPT conservative floor: a
// frame born dirty with no recLSN yet, and a clean frame held pinned by a
// would-be updater, must both appear in DirtyPages at fixLSN+1 — the
// durable watermark when the pin was taken, above which any update the
// pin holder logs must land. Dropping either leaves a checkpoint's DPT
// with a hole below its redo point.
func TestDirtyPagesPinnedFloor(t *testing.T) {
	fl := &levelFlusher{}
	fl.set(7)
	p := New(storage.NewMemDisk(), 4, fl)

	// Born dirty, recLSN not yet assigned: reported at the floor.
	f, err := p.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if got := p.DirtyPages(); got[id] != 8 {
		t.Errorf("DirtyPages for fresh page = %v, want {%d:8}", got, id)
	}

	// First real update pins the true recLSN.
	p.Unpin(f, true, 12)
	if got := p.DirtyPages(); got[id] != 12 {
		t.Errorf("DirtyPages after update = %v, want {%d:12}", got, id)
	}

	fl.set(12)
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyPages(); len(got) != 0 {
		t.Errorf("DirtyPages after flush = %v, want empty", got)
	}

	// Clean but pinned: a checkpoint between this pin and the holder's
	// MarkDirty must still cover the page, at the new watermark's floor.
	fl.set(20)
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyPages(); got[id] != 21 {
		t.Errorf("DirtyPages for pinned-clean page = %v, want {%d:21}", got, id)
	}
	p.Unpin(g, false, 0)
	if got := p.DirtyPages(); len(got) != 0 {
		t.Errorf("DirtyPages after unpin = %v, want empty", got)
	}
}

// TestGroupEvictionStealsBatches pins the group-eviction behavior: when one
// shard's miss burst exhausts its local frames while siblings hold plenty of
// clean ones, a single steal operation migrates a batch (up to stealBatch
// frames), not one frame per sibling-lock round trip.
func TestGroupEvictionStealsBatches(t *testing.T) {
	p, _ := newPoolDisk(t, 64) // 64 frames -> 8 shards of 8
	if len(p.shards) < 2 {
		t.Skip("single-shard pool cannot steal")
	}

	// Over-fill the pool with pages, flushing each so every cached frame
	// ends up clean — the write-behind flusher's steady state, which is
	// exactly when group eviction is supposed to pay off.
	byShard := make(map[*shard][]page.PageID)
	for i := 0; i < 192; i++ {
		f, err := p.NewPage(0)
		if err != nil {
			t.Fatal(err)
		}
		id := f.ID()
		p.Unpin(f, false, 0)
		if err := p.FlushPage(id); err != nil {
			t.Fatal(err)
		}
		byShard[p.shardOf(id)] = append(byShard[p.shardOf(id)], id)
	}

	// Direct check: one steal away from a full clean pool yields a full
	// batch, and no sibling is drained below its last frame.
	victim := p.shards[0]
	got := p.stealFrames(victim)
	if len(got) != stealBatch {
		t.Fatalf("stealFrames migrated %d frames, want a full batch of %d", len(got), stealBatch)
	}
	for _, f := range got {
		if f.state != stateFree || f.pins != 0 {
			t.Fatalf("stolen frame in state %d with %d pins", f.state, f.pins)
		}
	}
	for _, s := range p.shards {
		if s == victim {
			continue
		}
		s.lock()
		n := len(s.frames)
		s.mu.Unlock()
		if n < 1 {
			t.Fatal("steal drained a sibling shard bare")
		}
	}
	// Adopt the orphans so the pool stays consistent for part two.
	victim.lock()
	for _, f := range got {
		f.home = victim
		victim.frames = append(victim.frames, f)
	}
	victim.mu.Unlock()

	// End-to-end check: pin every cached page of one other shard, then
	// fetch an uncached page that hashes to it. With no local victim the
	// miss must be served by one steal operation migrating several frames.
	var busy *shard
	var uncached page.PageID
	for _, s := range p.shards[1:] {
		s.lock()
		var miss page.PageID
		for _, id := range byShard[s] {
			if _, ok := s.table[id]; !ok {
				miss = id
				break
			}
		}
		s.mu.Unlock()
		if miss != 0 {
			busy, uncached = s, miss
			break
		}
	}
	if busy == nil {
		t.Fatal("no shard has an evicted page to re-fetch")
	}
	busy.lock()
	cached := make([]page.PageID, 0, len(busy.table))
	for id := range busy.table {
		cached = append(cached, id)
	}
	busy.mu.Unlock()
	var pinned []*Frame
	for _, id := range cached {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}

	f, err := p.Fetch(uncached)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false, 0)
	for _, pf := range pinned {
		p.Unpin(pf, false, 0)
	}

	snap := p.Metrics().Snapshot()
	steals, batches := snap["buffer.frame_steals"], snap["buffer.steal_batches"]
	if batches == 0 {
		t.Fatal("pinned-shard miss never triggered a steal")
	}
	if steals <= batches {
		t.Errorf("steals %d / batches %d: group eviction never migrated more than one frame per operation", steals, batches)
	}
}
