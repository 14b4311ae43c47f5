// Package latch provides the short-term physical synchronization primitive
// used on buffer-pool frames.
//
// Latches differ from locks in the two ways footnote 8 of the paper lists:
// they are addressed physically (a field of the frame, not an entry in a
// hash table) so they are cheap to set and check, and the DBMS performs no
// deadlock detection on them — the tree protocol must be (and is)
// deadlock-free by construction. Latches also do not interact with locks: a
// transaction may hold a lock on a node while another holds the latch on
// the frame caching it.
//
// Beyond the classic S/X modes the latch carries a version word maintained
// as a seqlock: every X acquisition makes it odd, every X release makes it
// even again. Readers can visit the protected page optimistically — copy
// the bytes with no latch at all, then check that the version is unchanged
// and was even throughout (TryOptimistic / Validate) — and only fall back
// to the shared mode when a writer keeps invalidating them. S acquisitions
// never touch the version, so optimistic readers and latched readers
// coexist freely.
package latch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Mode is a latch mode.
type Mode int

// Latch modes.
const (
	// S is the shared mode: any number of holders, no exclusive holder.
	S Mode = iota
	// X is the exclusive mode: a single holder.
	X
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// The package-level registry surfaces latch traffic through the unified
// metrics pipeline (DB.Metrics, gistbench -exp metrics). Latches are
// embedded in buffer frames with no constructor of their own, so the
// counters are process-global, exactly as the former GlobalStats struct
// was — but now readable by name alongside every other subsystem.
var (
	reg          = stats.NewRegistry()
	sAcquires    = reg.Counter("latch.s_acquires")
	xAcquires    = reg.Counter("latch.x_acquires")
	optReads     = reg.Counter("latch.opt_reads")
	optRestarts  = reg.Counter("latch.opt_restarts")
	optFallbacks = reg.Counter("latch.opt_fallbacks")
	sWaitHist    = reg.Histogram("latch.s_wait")
	xWaitHist    = reg.Histogram("latch.x_wait")
	xHoldHist    = reg.Histogram("latch.x_hold")
)

// Metrics exposes the process-wide latch counter registry
// (latch.s_acquires, latch.x_acquires, latch.opt_reads, latch.opt_restarts,
// latch.opt_fallbacks).
func Metrics() *stats.Registry { return reg }

// AddOptStats folds one operation's optimistic-read tallies into the
// registry. Callers accumulate per operation and flush once at operation
// exit so the hot visit path performs no shared atomic adds.
func AddOptStats(reads, restarts, fallbacks int64) {
	if reads != 0 {
		optReads.Add(reads)
	}
	if restarts != 0 {
		optRestarts.Add(restarts)
	}
	if fallbacks != 0 {
		optFallbacks.Add(fallbacks)
	}
}

// Latch is a shared/exclusive latch with an optimistic-read version word.
// The zero value is ready to use.
//
// Latch holders must follow a deadlock-free discipline; the GiST protocol
// guarantees this by never latch-coupling (at most one node latch per
// operation at a time except for the strictly bottom-up, two-phase-latched
// structure-modification atomic actions, which order acquisitions leaf to
// root and left to right).
type Latch struct {
	mu sync.RWMutex

	// ver is the seqlock word: odd while an X holder is inside, bumped to
	// the next even value on X release. BumpVersion adds two (parity
	// preserved) to invalidate outstanding optimistic reads when the
	// protected bytes change identity without an X acquisition — the
	// buffer pool poisons a frame this way when remapping it to a
	// different page.
	ver atomic.Uint64

	// holdT0 is the X acquisition time in Unix nanoseconds, written by the
	// current exclusive holder and read back by its Release — the X lock
	// itself orders the accesses, so a plain field suffices. Zero when
	// instrumentation is off.
	holdT0 int64

	// parked, when set, counts the goroutines blocked in Acquire on this
	// latch (see CountParked).
	parked *atomic.Int64
}

// CountParked makes Acquire count the goroutines that block on l in n,
// which several latches may share. The buffer pool shares one counter
// among its frames to tell a claimer that waits on its own pins from one
// whose pin holders wait on the claimer's latches. Call it before the
// latch is first used.
func (l *Latch) CountParked(n *atomic.Int64) { l.parked = n }

// park adds d to the parked counter, if any. Only the contended path calls
// it.
func (l *Latch) park(d int64) {
	if l.parked != nil {
		l.parked.Add(d)
	}
}

// Acquire takes the latch in the given mode, blocking until available.
func (l *Latch) Acquire(m Mode) {
	l.AcquireTimed(m)
}

// AcquireTimed takes the latch in the given mode, blocking until available,
// and returns the nanoseconds spent blocked (0 on the uncontended fast path,
// which never reads the clock, and always 0 in the statsoff build).
func (l *Latch) AcquireTimed(m Mode) int64 {
	if m == S {
		var wait int64
		if !l.mu.TryRLock() {
			l.park(1)
			if stats.Enabled {
				t0 := time.Now()
				l.mu.RLock()
				wait = time.Since(t0).Nanoseconds()
				sWaitHist.Observe(wait)
			} else {
				l.mu.RLock()
			}
			l.park(-1)
		}
		sAcquires.Add(1)
		return wait
	}
	if !stats.Enabled {
		if !l.mu.TryLock() {
			l.park(1)
			l.mu.Lock()
			l.park(-1)
		}
		l.ver.Add(1) // odd: writer inside; optimistic captures now fail
		xAcquires.Add(1)
		return 0
	}
	var wait int64
	if l.mu.TryLock() {
		// Uncontended: hold timing is sampled (1 in xHoldSample) off the
		// acquire counter we bump anyway, so the fast path usually skips
		// the clock entirely.
		if xAcquires.Inc64()%xHoldSample == 0 {
			l.holdT0 = time.Now().UnixNano()
		}
		l.ver.Add(1)
		return 0
	}
	t0 := time.Now()
	l.park(1)
	l.mu.Lock()
	l.park(-1)
	now := time.Now()
	wait = now.Sub(t0).Nanoseconds()
	xWaitHist.Observe(wait)
	l.holdT0 = now.UnixNano() // contended acquisitions always time the hold
	l.ver.Add(1)              // odd: writer inside; optimistic captures now fail
	xAcquires.Add(1)
	return wait
}

// xHoldSample is the uncontended X-hold sampling interval: one in every
// xHoldSample uncontended exclusive acquisitions times its hold for the
// latch.x_hold histogram. Contended acquisitions are always timed (the
// clock was already read for the wait).
const xHoldSample = 8

// Release releases the latch previously acquired in mode m.
func (l *Latch) Release(m Mode) {
	if m == S {
		l.mu.RUnlock()
		return
	}
	if stats.Enabled && l.holdT0 != 0 {
		xHoldHist.Observe(time.Now().UnixNano() - l.holdT0)
		l.holdT0 = 0
	}
	l.ver.Add(1) // even again, but different: outstanding validations fail
	l.mu.Unlock()
}

// TryAcquire attempts to take the latch without blocking and reports
// whether it succeeded.
func (l *Latch) TryAcquire(m Mode) bool {
	var ok bool
	if m == S {
		ok = l.mu.TryRLock()
		if ok {
			sAcquires.Add(1)
		}
		return ok
	}
	ok = l.mu.TryLock()
	if ok {
		if stats.Enabled && xAcquires.Inc64()%xHoldSample == 0 {
			l.holdT0 = time.Now().UnixNano()
		} else if !stats.Enabled {
			xAcquires.Add(1)
		}
		l.ver.Add(1)
	}
	return ok
}

// TryOptimistic captures the latch's version for an optimistic read.
// ok is false when an exclusive holder is currently inside (the version is
// odd) — the caller should retry or fall back to Acquire(S). On ok the
// caller may read the protected bytes (with RacyCopy, since the reads are
// deliberately unsynchronized) and must then call Validate before trusting
// anything it read.
func (l *Latch) TryOptimistic() (version uint64, ok bool) {
	v := l.ver.Load()
	return v, v&1 == 0
}

// Validate reports whether no exclusive holder entered (or the version was
// poisoned) since the given version was captured. A true return means every
// read between TryOptimistic and Validate observed bytes no X holder was
// concurrently mutating — equivalent to having held the S latch for that
// window.
func (l *Latch) Validate(version uint64) bool {
	return l.ver.Load() == version
}

// BumpVersion invalidates all outstanding optimistic reads without
// acquiring the latch, preserving the version's parity. The buffer pool
// calls it when a frame is remapped to a different page, so a reader that
// captured a version against the old page can never validate a copy of the
// new one (the eviction/recycle ABA).
func (l *Latch) BumpVersion() {
	l.ver.Add(2)
}
