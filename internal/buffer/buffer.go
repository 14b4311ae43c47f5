// Package buffer implements the buffer pool: a fixed set of frames caching
// disk pages, with pin/unpin reference counting, per-frame S/X latches,
// clock eviction, and the write-ahead-log protocol (the log is flushed up
// to a dirty page's pageLSN before the page is stolen to disk).
//
// The GiST concurrency protocol never holds a node latch across an I/O
// (§12 of the paper); structurally this package supports that by separating
// Fetch (which may perform I/O and must be called while holding no latches)
// from Frame.Latch (which is cheap and never performs I/O). The pool keeps
// counters that the experiments use to verify the property.
//
// The page table is partitioned into shards hashed by PageID, each with its
// own mutex, condition variable, frame set and clock hand, so concurrent
// operations on different pages do not serialize on a pool-wide lock. A
// shard whose frames are all pinned steals an evictable frame from a
// sibling shard (migrating it permanently), so the pool's full capacity
// remains reachable from every shard. When every frame of every shard is
// pinned, a claimer waits for a pin to be released. A pool that stays fully
// pinned with no release at all is deadlocked: it grows by a frame when
// other goroutines are in the cycle, and reports ErrPoolExhausted to a lone
// claimer that can only be waiting on its own pins (see growLocked).
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/shards"
	"repro/internal/stats"
	"repro/internal/storage"
)

// ErrPoolExhausted is returned when every frame is pinned, not a single pin
// anywhere in the pool is released for a full deadlock period, nobody else
// waits for a frame or a latch, and the pool did not grow for anyone else
// meanwhile: the pins are the caller's own, so waiting longer cannot help. It is also returned once the pool has grown
// by its configured capacity to break deadlocks (see growLocked). A pool
// that is merely busy makes the caller wait, never fail.
var ErrPoolExhausted = errors.New("buffer: all frames pinned")

// ErrPinned is returned by Deallocate when the page's frame is pinned. The
// pin can be transient — eviction write-back pins the victim frame around
// its I/O — so concurrent callers that know no durable pin exists (restart's
// parallel redo) may retry on it.
var ErrPinned = errors.New("buffer: deallocate pinned page")

type frameState int

const (
	stateFree frameState = iota
	stateLoading
	stateReady
	stateWriting
)

// The page-table shard ceiling adapts to GOMAXPROCS (see package shards);
// small pools still get fewer shards (at least eight frames each) so
// eviction behavior stays sane. The buffer.shards gauge reports the choice.

// Frame is a buffer-pool frame holding one page. The embedded latch is the
// node latch the tree operations acquire; it protects the page content, not
// the frame bookkeeping (which the owning shard's mutex protects).
type Frame struct {
	Latch latch.Latch
	Page  page.Page

	id     page.PageID
	state  frameState
	pins   int
	dirty  bool
	recLSN page.LSN // LSN of the first update since the page was last clean
	refbit bool     // clock reference bit

	// fixLSN is the WAL's durable watermark when the frame was last pinned
	// from zero (or flushed clean while pinned). Any update a pin holder
	// logs has an LSN strictly above it, so fixLSN+1 is a safe recLSN for
	// a checkpoint that catches the frame mid-update: pinned (or freshly
	// allocated) but with its first-dirtying LSN not yet recorded. Without
	// this floor a fuzzy checkpoint's dirty page table can miss a page
	// whose update is logged but whose dirty marking lands just after the
	// snapshot, and restart redo then starts past the update and loses it.
	fixLSN page.LSN

	// mods counts dirtying events. FlushPage snapshots it before copying
	// the image and may clear the dirty bit after its write only if no
	// dirtying raced the unlatched I/O window — otherwise a concurrent
	// update would be marked clean while present only in memory, and a
	// later eviction would silently drop it.
	mods uint64

	// home is the shard whose mutex protects this frame's bookkeeping. It
	// changes only when an unpinned frame is stolen by another shard, so
	// it is stable for as long as the caller holds a pin.
	home *shard

	// Order is an in-memory search aid derived from one image of the
	// cached page, which the tree's node visits publish and read without
	// a latch. It is current only while its ID and Ver equal the page's
	// id and the latch's version: every page change happens under X and
	// bumps the version, and a remap bumps it too (BumpVersion), so a
	// stale order is never mistaken for a current one.
	Order atomic.Pointer[SlotOrder]
}

// SlotOrder is a page's live slots sorted by the lower bound of their
// predicates, with the running maximum of the upper bounds (see gist's
// matches). Its arrays are immutable once published. Ver and LSN change
// only under the page's X latch, when a page change leaves the arrays
// right for the new image (see gist's carryOrder), and Seen at any time.
type SlotOrder struct {
	ID page.PageID

	// Ver is the latch version of the image the order describes: the one
	// it was built from, or the version the release of an X hold that
	// carried it will produce.
	Ver atomic.Uint64

	// LSN is that image's pageLSN. An X holder that finds it equal to the
	// page's knows no record has changed the page since that image.
	LSN page.LSN

	// Slots holds the live slots by ascending lower bound; MaxHi[i] is
	// the slot with the largest upper bound among Slots[:i+1].
	Slots, MaxHi []uint16

	// Seen is the latch version at which a visit last found no current
	// order (odd: a build for Seen-1 is under way).
	Seen atomic.Uint64
}

// ID returns the id of the page currently held by the frame.
func (f *Frame) ID() page.PageID { return f.id }

// LogFlusher is the WAL dependency of the pool: FlushTo must make the log
// durable up to and including the given LSN before a dirty page with that
// pageLSN may be written to disk. FlushedLSN reports the current durable
// watermark; it must be cheap (the pipelined WAL serves it from a single
// atomic load), because the pool consults it on every dirty write-back to
// skip the FlushTo call when the WAL rule is already satisfied.
type LogFlusher interface {
	FlushTo(page.LSN) error
	FlushedLSN() page.LSN
}

// nopFlusher is used when the pool runs without a WAL (plain index usage).
type nopFlusher struct{}

func (nopFlusher) FlushTo(page.LSN) error { return nil }
func (nopFlusher) FlushedLSN() page.LSN   { return ^page.LSN(0) }

// flushFor applies the WAL rule for a page with the given pageLSN: a no-op
// when the durable watermark already covers it.
func (p *Pool) flushFor(pageLSN page.LSN) error {
	if pageLSN <= p.wal.FlushedLSN() {
		return nil
	}
	return p.wal.FlushTo(pageLSN)
}

// shard is one partition of the page table with its own frames and clock.
type shard struct {
	mu        sync.Mutex
	cond      *sync.Cond
	table     map[page.PageID]*Frame
	frames    []*Frame
	hand      int
	contended *stats.Counter

	// idx is the shard's position in the pool's shard ring; lastStolen is
	// the pool-wide steal clock's value when a frame was last stolen from
	// this shard. Together they order the neighbor ring a steal walks.
	idx        int
	lastStolen atomic.Int64
}

// lock acquires the shard mutex, counting acquisitions that had to block.
func (s *shard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	s.mu.Lock()
}

// Pool is a buffer pool over a storage.Manager.
type Pool struct {
	disk storage.Manager
	wal  LogFlusher

	shards   []*shard
	capacity int

	reg           *stats.Registry
	hits          *stats.Counter
	misses        *stats.Counter
	evicts        *stats.Counter
	steals        *stats.Counter   // frames migrated between shards
	stealBatches  *stats.Counter   // steal operations (steals ÷ batches = batch size)
	contended     *stats.Counter   // shard mutex acquisitions that blocked
	ringHits      *stats.Counter   // steals satisfied by the preferred ring neighbor
	loadWaitNanos *stats.Counter   // time spent parked on Loading/Writing frames
	loadHist      *stats.Histogram // per-fetch off-fast-path latency (parks + disk reads)
	stealHist     *stats.Histogram // cross-shard steal walk latency

	// stealClock orders cross-shard steals so the neighbor ring can prefer
	// the shards stolen from least recently.
	stealClock atomic.Int64

	// Claimers that found every frame pinned park on released, which the
	// next frame to drop its last pin closes (and replaces). claimers
	// counts them so that an unpin with nobody waiting costs one atomic
	// load. The wait is pool-wide, not per shard, because a frame freed in
	// any shard is reachable through a steal. deadlockAfter is how long a
	// fully pinned pool may go without a single release before it counts
	// as deadlocked: pins are held for one operation's node visits and
	// page I/O, so a second is far outside any live schedule.
	releaseMu     sync.Mutex
	released      chan struct{}
	claimers      atomic.Int32
	deadlockAfter time.Duration

	// grown counts frames added beyond capacity to break pin deadlocks
	// among concurrent operations (see growLocked). latchParked counts the
	// goroutines blocked on any frame's latch.
	grown       atomic.Int64
	latchParked atomic.Int64
}

// New creates a pool with the given number of frames over disk. If wal is
// nil the pool applies no WAL flush rule (suitable only for non-logged use).
func New(disk storage.Manager, capacity int, wal LogFlusher) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if wal == nil {
		wal = nopFlusher{}
	}
	maxShards := shards.Count(0)
	nshards := 1
	for nshards < maxShards && nshards*8 <= capacity {
		nshards <<= 1
	}
	p := &Pool{
		disk:     disk,
		wal:      wal,
		capacity: capacity,
		reg:      stats.NewRegistry(),

		released:      make(chan struct{}),
		deadlockAfter: time.Second,
	}
	p.hits = p.reg.Counter("buffer.hits")
	p.misses = p.reg.Counter("buffer.misses")
	p.evicts = p.reg.Counter("buffer.evictions")
	p.steals = p.reg.Counter("buffer.frame_steals")
	p.stealBatches = p.reg.Counter("buffer.steal_batches")
	p.contended = p.reg.Counter("buffer.shard_contention")
	p.ringHits = p.reg.Counter("buffer.steal_ring_hits")
	p.loadWaitNanos = p.reg.Counter("buffer.load_wait_nanos")
	p.loadHist = p.reg.Histogram("buffer.load")
	p.stealHist = p.reg.Histogram("buffer.steal")
	p.reg.Gauge("buffer.shards", func() int64 { return int64(nshards) })
	p.reg.Gauge("buffer.capacity", func() int64 { return int64(capacity) })
	p.reg.Gauge("buffer.deadlock_frames", p.grown.Load)
	p.reg.Gauge("buffer.pinned_frames", func() int64 {
		var total int64
		for _, s := range p.shards {
			s.mu.Lock()
			for _, f := range s.frames {
				total += int64(f.pins)
			}
			s.mu.Unlock()
		}
		return total
	})

	p.shards = make([]*shard, nshards)
	for i := range p.shards {
		s := &shard{
			table:     make(map[page.PageID]*Frame, capacity/nshards+1),
			contended: p.contended,
			idx:       i,
		}
		s.cond = sync.NewCond(&s.mu)
		p.shards[i] = s
	}
	for i := 0; i < capacity; i++ {
		s := p.shards[i%nshards]
		s.frames = append(s.frames, p.newFrame(s))
	}
	return p
}

// newFrame returns a free frame homed in s.
func (p *Pool) newFrame(s *shard) *Frame {
	f := &Frame{state: stateFree, home: s}
	f.Latch.CountParked(&p.latchParked)
	return f
}

// shardOf maps a page id to its home shard (Fibonacci hashing; the high
// bits spread sequential ids well).
func (p *Pool) shardOf(id page.PageID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[(h>>32)%uint64(len(p.shards))]
}

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// Metrics exposes the pool's counter registry.
func (p *Pool) Metrics() *stats.Registry { return p.reg }

// Fetch pins the page with the given id, reading it from disk on a miss,
// and returns its frame. The caller must not hold any latch while calling
// Fetch (the call may block on I/O) and must eventually call Unpin.
func (p *Pool) Fetch(id page.PageID) (*Frame, error) {
	f, _, _, err := p.fetchEx(nil, id)
	return f, err
}

// FetchCtx is Fetch with a cancellable wait: if ctx fires while the call is
// parked on a frame another goroutine is loading or writing back, the pin is
// released and ctx.Err() returned. A nil ctx never cancels. In-flight disk
// I/O started by this call itself is not interrupted — the no-latch-across-
// I/O discipline means callers are free to simply not wait for it.
func (p *Pool) FetchCtx(ctx context.Context, id page.PageID) (*Frame, error) {
	f, _, _, err := p.fetchEx(ctx, id)
	return f, err
}

// ctxErr returns ctx.Err(), tolerating a nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// wakeOnDone arranges for the shard's cond to be broadcast when ctx fires,
// so a fetch parked in cond.Wait observes the cancellation. The broadcast
// takes the shard mutex, so a waiter that checked ctx and is about to park
// cannot miss the wakeup. Returns nil when ctx can never fire; otherwise
// the returned stop function must be called once the wait loop exits.
func wakeOnDone(ctx context.Context, s *shard) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
}

// FetchExStats is FetchCtx with an exact per-call miss indicator (missed
// is true iff this call performed a disk read) and the nanoseconds this
// call spent off the fast path: parked on a frame another goroutine was
// loading or writing back, plus this call's own disk read on a miss. A
// buffer hit returns 0 without ever reading the clock. Operations use it to
// attribute buffer-load time and I/Os to themselves.
func (p *Pool) FetchExStats(ctx context.Context, id page.PageID) (f *Frame, missed bool, waitNanos int64, err error) {
	return p.fetchEx(ctx, id)
}

func (p *Pool) fetchEx(ctx context.Context, id page.PageID) (_ *Frame, missed bool, waitNanos int64, err error) {
	if id == page.InvalidPage {
		return nil, false, 0, fmt.Errorf("buffer: fetch of invalid page")
	}
	s := p.shardOf(id)
	s.lock()
	for {
		if err := ctxErr(ctx); err != nil {
			s.mu.Unlock()
			return nil, false, waitNanos, err
		}
		if f, ok := s.table[id]; ok {
			f.pins++
			if f.pins == 1 {
				f.fixLSN = p.wal.FlushedLSN()
			}
			f.refbit = true
			stale := false
			var cancelled error
			if f.state == stateLoading || f.state == stateWriting {
				waitStart := time.Now()
				stop := wakeOnDone(ctx, s)
				for f.state == stateLoading || f.state == stateWriting {
					if err := ctxErr(ctx); err != nil {
						cancelled = err
						break
					}
					s.cond.Wait()
					// A loader whose disk read failed unmaps the frame; the
					// wait must notice, or it would return a frame with no
					// valid content (and a pin that makes a free frame look
					// permanently busy).
					if s.table[id] != f {
						stale = true
						break
					}
				}
				if stop != nil {
					stop()
				}
				parked := time.Since(waitStart).Nanoseconds()
				p.loadWaitNanos.Add(parked)
				waitNanos += parked
			}
			if cancelled != nil {
				// Give back the pin taken above; the loader (or writer)
				// owns its own pin and finishes undisturbed.
				p.unpinLocked(f)
				s.mu.Unlock()
				return nil, false, waitNanos, cancelled
			}
			if stale {
				p.unpinLocked(f)
				continue
			}
			// The pin taken above prevents the frame from being
			// stolen for another page, so f.id is still id.
			s.mu.Unlock()
			p.hits.Add(1)
			if waitNanos > 0 {
				p.loadHist.Observe(waitNanos)
			}
			return f, false, waitNanos, nil
		}
		// Miss: claim a reusable frame in this shard.
		f, dropped, err := p.claimLocked(ctx, s)
		if err != nil {
			s.mu.Unlock()
			return nil, false, waitNanos, err
		}
		if f == nil || (dropped && s.table[id] != nil) {
			// The shard mutex was dropped along the way (write-back
			// or steal) and the world may have changed — in
			// particular a concurrent fetch may have loaded the
			// target page. Retry from the top; any frame claimed
			// stays clean and evictable in this shard.
			continue
		}
		// Reuse frame for the new page. Poison the latch version first:
		// an optimistic reader that captured a version against the old
		// resident page must never validate a copy of the new one
		// (eviction/recycle ABA). Pins already exclude remap during a
		// visit, so this is the fail-closed backstop, not the first line.
		if f.state == stateReady {
			delete(s.table, f.id)
			p.evicts.Add(1)
		}
		f.Latch.BumpVersion()
		f.id = id
		f.state = stateLoading
		f.pins = 1
		f.fixLSN = p.wal.FlushedLSN()
		f.dirty = false
		f.recLSN = 0
		f.refbit = true
		s.table[id] = f
		s.mu.Unlock()

		var readStart time.Time
		if stats.Enabled {
			readStart = time.Now()
		}
		rerr := p.disk.ReadPage(id, f.Page.Bytes())
		if stats.Enabled {
			waitNanos += time.Since(readStart).Nanoseconds()
		}

		s.lock()
		if rerr != nil {
			p.unpinLocked(f)
			f.state = stateFree
			delete(s.table, id)
			s.cond.Broadcast()
			s.mu.Unlock()
			return nil, false, waitNanos, rerr
		}
		f.state = stateReady
		s.cond.Broadcast()
		s.mu.Unlock()
		p.misses.Add(1)
		p.loadHist.Observe(waitNanos)
		return f, true, waitNanos, nil
	}
}

// claimLocked obtains a clean, unpinned, reusable frame belonging to s
// (stateFree, or stateReady holding an evictable page the caller must
// unmap). Called and returns with s.mu held; dropped reports whether the
// mutex was released at any point, in which case the caller must
// re-validate its own preconditions. A nil frame with nil error means a
// race consumed the claim and the caller should retry.
//
// When neither s nor a steal from its siblings yields a frame, every frame
// is pinned: the claim waits for a pin to be released anywhere in the pool
// and tries again. When no pin is released for p.deadlockAfter the pool is
// deadlocked and growLocked decides between a new frame and
// ErrPoolExhausted. It also fails when ctx (nil never fires) is done.
func (p *Pool) claimLocked(ctx context.Context, s *shard) (f *Frame, dropped bool, err error) {
	// released is armed before each steal walk, so a pin dropped after the
	// walk looked at its frame still wakes the wait below.
	var released <-chan struct{}
	defer func() {
		if released != nil {
			p.claimers.Add(-1)
		}
	}()
	for {
		if f := s.victimLocked(); f != nil {
			if f.state == stateReady && f.dirty {
				ok, werr := p.writeBackLocked(s, f)
				dropped = true
				if werr != nil {
					return nil, dropped, werr
				}
				if !ok {
					// Re-pinned during the write; rescan.
					continue
				}
			}
			return f, dropped, nil
		}
		if released != nil {
			// The steal walk and the rescan after it both came up empty.
			grown := p.grown.Load()
			s.mu.Unlock()
			werr := p.awaitRelease(ctx, released)
			s.lock()
			dropped = true
			if errors.Is(werr, ErrPoolExhausted) {
				if f := p.growLocked(s); f != nil {
					return f, dropped, nil
				}
				if p.grown.Load() != grown {
					// Others waiting with us got new frames and are
					// running: their pins will come back.
					werr = nil
				}
			}
			if werr != nil {
				return nil, dropped, werr
			}
		} else {
			p.claimers.Add(1)
		}
		p.releaseMu.Lock()
		released = p.released
		p.releaseMu.Unlock()
		// Local shard exhausted: steal a batch of evictable frames from
		// sibling shards and adopt them. Group eviction — taking several
		// clean frames per sibling-lock acquisition — amortizes the
		// cross-shard locking during warm-up bursts; the extras beyond the
		// first become local victims for the rescan (and for the next
		// misses on this shard).
		s.mu.Unlock()
		var stealStart time.Time
		if stats.Enabled {
			stealStart = time.Now()
		}
		stolen := p.stealFrames(s)
		if stats.Enabled {
			p.stealHist.Observe(time.Since(stealStart).Nanoseconds())
		}
		s.lock()
		dropped = true
		if len(stolen) > 0 {
			for _, f := range stolen {
				f.home = s
				s.frames = append(s.frames, f)
			}
			p.steals.Add(int64(len(stolen)))
			p.stealBatches.Inc()
		}
		// Rescan even when the steal failed: a local frame may have
		// been unpinned while the mutex was dropped.
	}
}

// awaitRelease parks a claimer until released closes, ctx fires, or the
// pool has gone p.deadlockAfter without releasing any pin.
func (p *Pool) awaitRelease(ctx context.Context, released <-chan struct{}) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(p.deadlockAfter)
	defer t.Stop()
	select {
	case <-released:
		return nil
	case <-done:
		return ctx.Err()
	case <-t.C:
		select {
		case <-released: // a release raced the deadline: not deadlocked
			return nil
		default:
			return ErrPoolExhausted
		}
	}
}

// growLocked adds a free frame to s (s.mu held) to break a pin deadlock:
// every frame pinned and no pin released for the deadlock period. Each
// operation pins its whole root-to-leaf path and a split also pins its new
// siblings while it holds node latches, so concurrent operations can
// together need more frames than a small pool has: the splits wait here
// for frames, the others wait for the splits' latches, and nobody
// releases a pin. One more frame lets one operation finish. The pool grows
// only when someone else is in the cycle — another claimer, or a goroutine
// parked on a latch — and by at most its configured capacity in total.
// Otherwise it returns nil and the caller gets ErrPoolExhausted: a lone
// claimer with nobody waiting on a latch can only be waiting on its own
// pins.
func (p *Pool) growLocked(s *shard) *Frame {
	if p.claimers.Load() < 2 && p.latchParked.Load() == 0 {
		return nil
	}
	if p.grown.Add(1) > int64(p.capacity) {
		p.grown.Add(-1)
		return nil
	}
	f := p.newFrame(s)
	s.frames = append(s.frames, f)
	return f
}

// unpinLocked drops one pin on f (its home shard's mutex held) and, when
// that was the last pin and claimers are parked on a fully pinned pool,
// wakes them: the frame may now be evicted or stolen.
func (p *Pool) unpinLocked(f *Frame) {
	f.pins--
	if f.pins == 0 && p.claimers.Load() > 0 {
		p.releaseMu.Lock()
		close(p.released)
		p.released = make(chan struct{})
		p.releaseMu.Unlock()
	}
}

// writeBackLocked writes f's dirty page to disk under the WAL rule. Called
// and returns with s.mu held (released around the I/O). ok reports that the
// frame is clean and unpinned on return, i.e. immediately reusable.
func (p *Pool) writeBackLocked(s *shard, f *Frame) (ok bool, err error) {
	f.state = stateWriting
	f.pins++
	oldID := f.id
	pageLSN := f.Page.LSN()
	img := make([]byte, page.Size)
	copy(img, f.Page.Bytes())
	s.mu.Unlock()

	werr := p.flushFor(pageLSN)
	if werr == nil {
		werr = p.disk.WritePage(oldID, img)
	}

	s.lock()
	f.state = stateReady
	p.unpinLocked(f)
	if werr != nil {
		s.cond.Broadcast()
		return false, fmt.Errorf("buffer: evict %d: %w", oldID, werr)
	}
	f.dirty = false
	f.recLSN = 0
	s.cond.Broadcast()
	return f.pins == 0, nil
}

// stealBatch is the group-eviction width: the most clean frames one steal
// operation migrates. Small enough that a burst of misses on one shard does
// not strip its siblings bare, large enough to amortize the sibling-lock
// round trips (the write-behind flusher keeps clean frames plentiful).
const stealBatch = 4

// stealFrames removes up to stealBatch evictable clean frames from shards
// other than s and returns them orphaned (stateFree, in no shard's frame
// list). If no sibling has a clean evictable frame, it falls back to
// writing back and stealing a single dirty one. Empty when every other
// frame in the pool is pinned. No locks are held on entry.
//
// Candidates are visited over the static neighbor ring starting after s,
// reordered so the shards stolen from least recently come first: under a
// skewed workload this stops two hot shards from ping-ponging the same
// frames back and forth while cold shards keep their surplus. A steal
// satisfied by the first-preference neighbor counts toward
// buffer.steal_ring_hits.
func (p *Pool) stealFrames(s *shard) []*Frame {
	order := p.stealOrder(s)
	var out []*Frame
	for i, t := range order {
		got := p.stealFrom(t, false, stealBatch-len(out))
		if len(got) > 0 {
			t.lastStolen.Store(p.stealClock.Add(1))
			if i == 0 {
				p.ringHits.Inc()
			}
		}
		out = append(out, got...)
		if len(out) >= stealBatch {
			return out
		}
	}
	if len(out) > 0 {
		return out
	}
	for _, t := range order {
		if got := p.stealFrom(t, true, 1); len(got) > 0 {
			t.lastStolen.Store(p.stealClock.Add(1))
			return got
		}
	}
	return nil
}

// stealOrder returns every shard but s in steal-preference order: the ring
// neighbors after s, stably resorted so least recently stolen-from wins
// ties toward ring proximity.
func (p *Pool) stealOrder(s *shard) []*shard {
	n := len(p.shards)
	order := make([]*shard, 0, n-1)
	for i := 1; i < n; i++ {
		order = append(order, p.shards[(s.idx+i)%n])
	}
	sort.SliceStable(order, func(a, b int) bool {
		return order[a].lastStolen.Load() < order[b].lastStolen.Load()
	})
	return order
}

// stealFrom extracts up to max evictable clean frames from t, writing back
// a dirty victim if allowDirty and none is clean. A shard is never drained
// below one frame.
func (p *Pool) stealFrom(t *shard, allowDirty bool, max int) []*Frame {
	if max <= 0 {
		return nil
	}
	t.lock()
	defer t.mu.Unlock()
	var out []*Frame
	for attempts := 0; attempts < 3; attempts++ {
		if len(t.frames) <= 1 {
			return out
		}
		// Sweep for clean victims first, then extract, so the removals do
		// not disturb the iteration.
		var clean []*Frame
		var dirtyCand *Frame
		for _, f := range t.frames {
			if f.pins > 0 {
				continue
			}
			if f.state == stateFree || (f.state == stateReady && !f.dirty) {
				if len(clean) < max && len(t.frames)-len(clean) > 1 {
					clean = append(clean, f)
				}
			} else if allowDirty && dirtyCand == nil && f.state == stateReady && f.dirty {
				dirtyCand = f
			}
		}
		for _, f := range clean {
			if f.state == stateReady {
				delete(t.table, f.id)
				p.evicts.Add(1)
			}
			t.removeFrameLocked(f)
			f.state = stateFree
			f.dirty = false
			f.recLSN = 0
			f.refbit = false
			out = append(out, f)
		}
		if len(out) > 0 || dirtyCand == nil {
			return out
		}
		if ok, err := p.writeBackLocked(t, dirtyCand); err != nil || !ok {
			continue // the world changed during the write; rescan
		}
		// The candidate is clean now; the next sweep extracts it.
	}
	return out
}

// removeFrameLocked drops f from the shard's frame list (t.mu held).
func (t *shard) removeFrameLocked(f *Frame) {
	for i, g := range t.frames {
		if g == f {
			t.frames = append(t.frames[:i], t.frames[i+1:]...)
			if t.hand > i {
				t.hand--
			}
			if t.hand >= len(t.frames) {
				t.hand = 0
			}
			return
		}
	}
}

// victimLocked selects an unpinned frame using the clock algorithm over the
// shard's frames, or nil when all are pinned or busy. The shard mutex must
// be held.
func (s *shard) victimLocked() *Frame {
	n := len(s.frames)
	if n == 0 {
		return nil
	}
	// Two full sweeps: the first clears reference bits, the second takes
	// any unpinned ready/free frame.
	for pass := 0; pass < 2*n; pass++ {
		f := s.frames[s.hand]
		s.hand = (s.hand + 1) % n
		if f.state == stateFree && f.pins == 0 {
			return f
		}
		if f.state != stateReady || f.pins > 0 {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		return f
	}
	// Last resort: any unpinned ready frame regardless of refbit.
	for _, f := range s.frames {
		if (f.state == stateReady || f.state == stateFree) && f.pins == 0 {
			return f
		}
	}
	return nil
}

// NewPage allocates a fresh disk page, formats it as a node at the given
// level, and returns it pinned. No disk read happens — the page content is
// created in the frame — so NewPage is safe to call with latches held (a
// split formats its new sibling while the original stays latched).
// Allocation is made recoverable by the caller via a Get-Page log record.
// When no frame can be claimed the disk page is given back.
func (p *Pool) NewPage(level uint16) (*Frame, error) {
	id, err := p.disk.Allocate()
	if err != nil {
		return nil, err
	}
	s := p.shardOf(id)
	s.lock()
	for {
		f, _, err := p.claimLocked(nil, s)
		if err != nil {
			s.mu.Unlock()
			return nil, errors.Join(err, p.disk.Deallocate(id))
		}
		if f == nil {
			continue
		}
		if f.state == stateReady {
			delete(s.table, f.id)
			p.evicts.Add(1)
		}
		// Same remap poison as the fetch miss path: the frame is about to
		// hold a different page, so outstanding optimistic versions die.
		f.Latch.BumpVersion()
		f.id = id
		f.state = stateReady
		f.pins = 1
		f.fixLSN = p.wal.FlushedLSN()
		f.dirty = true
		f.recLSN = 0
		f.refbit = true
		s.table[id] = f
		f.Page.Init(id, level)
		s.mu.Unlock()
		return f, nil
	}
}

// Unpin releases one pin on the frame. If dirty is true the page is marked
// dirty with updateLSN as its first-dirtying LSN (for the dirty-page table
// in checkpoints); pass 0 when no WAL is in use.
func (p *Pool) Unpin(f *Frame, dirty bool, updateLSN page.LSN) {
	s := f.home
	s.lock()
	if dirty {
		if !f.dirty || f.recLSN == 0 {
			f.recLSN = updateLSN
		}
		f.dirty = true
		f.mods++
	}
	p.unpinLocked(f)
	if f.pins < 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("buffer: negative pin count on page %d", f.id))
	}
	s.mu.Unlock()
}

// MarkDirty marks a pinned frame dirty with the given update LSN without
// changing its pin count.
func (p *Pool) MarkDirty(f *Frame, updateLSN page.LSN) {
	s := f.home
	s.lock()
	if !f.dirty || f.recLSN == 0 {
		f.recLSN = updateLSN
	}
	f.dirty = true
	f.mods++
	s.mu.Unlock()
}

// FlushPage writes the named page to disk if cached and dirty, honoring the
// WAL rule. It is a no-op for uncached pages.
func (p *Pool) FlushPage(id page.PageID) error {
	_, err := p.FlushWrote(id)
	return err
}

// FlushWrote is FlushPage plus a report of whether a disk write actually
// happened: false for uncached or already-clean pages (the DPT lists
// pinned-clean frames conservatively, and those need no I/O). The
// write-behind flusher paces its batches by real writes, not no-ops.
func (p *Pool) FlushWrote(id page.PageID) (bool, error) {
	s := p.shardOf(id)
	s.lock()
	f, ok := s.table[id]
	if !ok || !f.dirty || f.state != stateReady {
		s.mu.Unlock()
		return false, nil
	}
	f.pins++
	if f.pins == 1 {
		f.fixLSN = p.wal.FlushedLSN()
	}
	mods := f.mods
	s.mu.Unlock()

	// Shared latch so no concurrent modification tears the image.
	f.Latch.Acquire(latch.S)
	img := make([]byte, page.Size)
	copy(img, f.Page.Bytes())
	lsn := f.Page.LSN()
	f.Latch.Release(latch.S)

	err := p.flushFor(lsn)
	if err == nil {
		err = p.disk.WritePage(id, img)
	}

	s.lock()
	if err == nil && f.mods == mods {
		// No dirtying raced the I/O: the written image is the current one.
		// If f.mods moved, an update landed during (or after) the copy and
		// the page must stay dirty — clearing the bit here would strand
		// that update in memory, to be lost by the next clean eviction.
		// The durable image also resets the conservative floor: anything a
		// surviving pin holder logs from here on is above today's
		// watermark. Without the refresh, a permanently pinned frame (the
		// tree anchor) would pin every future checkpoint's redo point at
		// its original fix-time LSN.
		f.fixLSN = p.wal.FlushedLSN()
		f.dirty = false
		f.recLSN = 0
	}
	p.unpinLocked(f)
	s.mu.Unlock()
	return true, err
}

// FlushAll writes every dirty cached page to disk (used at checkpoint and
// clean shutdown).
func (p *Pool) FlushAll() error {
	var ids []page.PageID
	for _, s := range p.shards {
		s.lock()
		for id, f := range s.table {
			if f.dirty {
				ids = append(ids, id)
			}
		}
		s.mu.Unlock()
	}
	for _, id := range ids {
		if err := p.FlushPage(id); err != nil {
			return err
		}
	}
	return p.disk.Sync()
}

// DirtyPages returns the (pageID, recLSN) of every dirty cached page — the
// dirty page table recorded by fuzzy checkpoints. Frames whose first-update
// LSN is not yet known are reported conservatively at their pin-time floor:
// a freshly allocated page whose creation record is still being written, or
// a pinned clean frame whose holder may have logged an update without yet
// marking the frame dirty. Restart redo starting at the floor re-reads a
// few already-durable records (skipped by their page LSNs) but can never
// start past a logged update.
func (p *Pool) DirtyPages() map[page.PageID]page.LSN {
	noWAL := p.wal.FlushedLSN() == ^page.LSN(0)
	out := make(map[page.PageID]page.LSN)
	for _, s := range p.shards {
		s.lock()
		for id, f := range s.table {
			floor := f.fixLSN + 1
			if noWAL {
				floor = 0
			}
			switch {
			case f.dirty && f.recLSN != 0:
				out[id] = f.recLSN
			case f.dirty:
				out[id] = floor
			case f.pins > 0 && f.state != stateFree:
				out[id] = floor
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Discard drops a cached page without writing it back, used when a freshly
// allocated page is abandoned. The page must be pinned exactly once by the
// caller; the pin is consumed.
func (p *Pool) Discard(f *Frame) {
	s := f.home
	s.lock()
	p.unpinLocked(f)
	if f.pins == 0 {
		delete(s.table, f.id)
		f.state = stateFree
		f.dirty = false
	}
	s.mu.Unlock()
}

// EnsureAllocated forwards to the disk manager; restart undo of a Free-Page
// record uses it to resurrect the page before reconstructing its content.
func (p *Pool) EnsureAllocated(id page.PageID) error {
	return p.disk.EnsureAllocated(id)
}

// Deallocate returns the page to the disk manager's free pool, dropping any
// cached copy. The caller must guarantee (via the drain protocol, §7.2)
// that no operation still holds a pointer to the page.
func (p *Pool) Deallocate(id page.PageID) error {
	s := p.shardOf(id)
	s.lock()
	if f, ok := s.table[id]; ok {
		if f.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("%w %d", ErrPinned, id)
		}
		delete(s.table, id)
		f.state = stateFree
		f.dirty = false
	}
	s.mu.Unlock()
	return p.disk.Deallocate(id)
}

// Reset empties the pool without writing anything back — the simulated
// "loss of buffer pool contents" at a crash.
func (p *Pool) Reset() {
	for _, s := range p.shards {
		s.lock()
		s.table = make(map[page.PageID]*Frame, len(s.frames))
		for _, f := range s.frames {
			f.state = stateFree
			f.pins = 0
			f.dirty = false
			f.recLSN = 0
			f.refbit = false
		}
		s.mu.Unlock()
	}
}
