package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/latch"
)

// handle is an open database with its indexes (rt is nil when there is no
// rtree).
type handle struct {
	db     *gistdb.DB
	bt, rt *gistdb.Index
}

// setupFile builds a file-backed starting state setupRuns times: load
// writes the database and closes it, the restart that replays the whole
// load log is timed (a restart_ms sample), then a checkpoint and prep,
// which readies the instance for the timed phase. It returns the last
// instance, open, and removes the others.
func setupFile(e *env, out *outcome, load func(dir string) error,
	open func(dir string) (*handle, error), prep func(dir string, h *handle) (*handle, error)) (*handle, string, error) {
	for r := 0; ; r++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", r))
		t0 := time.Now()
		if err := load(dir); err != nil {
			return nil, "", err
		}
		t1 := time.Now()
		h, err := open(dir)
		if err != nil {
			return nil, "", fmt.Errorf("restart after load: %w", err)
		}
		out.restart = append(out.restart, float64(time.Since(t1).Nanoseconds())/1e6)
		out.recovery = append(out.recovery, h.db.Metrics())
		if err := h.db.Checkpoint(); err != nil {
			return nil, "", err
		}
		if h, err = prep(dir, h); err != nil {
			return nil, "", err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		if r == setupRuns-1 {
			settle()
			return h, dir, nil
		}
		if err := h.db.Close(); err != nil {
			return nil, "", err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
		settle()
	}
}

// reopen opens a closed file-backed database for the checks after the
// timed phase; nil after a failure.
func (c *client) reopen(open func() (*handle, error)) *handle {
	t0 := time.Now()
	h, err := open()
	if !c.done(opRestart, t0, err) {
		return nil
	}
	c.db = h.db
	return h
}

// scanExpect scans [lo, hi] in its own ReadCommitted transaction; the keys
// must be exactly those of want (ascending) in that interval.
func (c *client) scanExpect(ix *gistdb.Index, lo, hi int64, want []int64) {
	a := sort.Search(len(want), func(j int) bool { return want[j] >= lo })
	b := sort.Search(len(want), func(j int) bool { return want[j] > hi })
	tx := c.begin(txnScan)
	if tx == nil {
		return
	}
	keys, ok := c.scan(tx, ix, lo, hi, gistdb.ReadCommitted)
	if ok && !slices.Equal(keys, want[a:b]) {
		ok = c.wrong(opScan, "keys in [%d, %d]: %d found, want %d", lo, hi, len(keys), b-a)
	}
	if ok {
		c.commit(tx, false)
	} else {
		c.abort(tx)
	}
}

// checkpointClose takes a checkpoint, so that the restarts measured next
// replay the same amount of log whatever the timed phase did, and closes db.
func (c *client) checkpointClose(db *gistdb.DB) bool {
	t0 := time.Now()
	if !c.done(opCheckpoint, t0, db.Checkpoint()) {
		return false
	}
	if err := db.Close(); err != nil {
		return c.wrong(opCheckpoint, "close: %v", err)
	}
	return true
}

// settle collects the garbage of set-up before the next step, so that each
// set-up and the timed phase start from the same heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// probeKeys checks that a database takes writes: n transactions insert four
// new keys each from base up, n more delete them again, and a sample of them
// must then be gone.
func (c *client) probeKeys(ix *gistdb.Index, base int64, recSize, n int) {
	type entry struct {
		k   int64
		rid gistdb.RID
	}
	var acked []entry
	for t := 0; t < n; t++ {
		tx := c.begin(txnInsert)
		if tx == nil {
			continue
		}
		var batch []entry
		ok := true
		for j := 0; j < 4 && ok; j++ {
			k := base + int64(4*t+j)
			var rid gistdb.RID
			rid, ok = c.insert(tx, ix, btree.EncodeKey(k), c.g.record(k, recSize))
			batch = append(batch, entry{k, rid})
		}
		if !ok {
			c.abort(tx)
		} else if c.commit(tx, true) {
			acked = append(acked, batch...)
		}
	}
	for lo := 0; lo < len(acked); lo += 4 {
		tx := c.begin(txnDelete)
		if tx == nil {
			continue
		}
		ok := true
		for _, en := range acked[lo:min(lo+4, len(acked))] {
			if ok = c.delete(tx, ix, btree.EncodeKey(en.k), en.rid); !ok {
				break
			}
		}
		if ok {
			c.commit(tx, true)
		} else {
			c.abort(tx)
		}
	}
	tx := c.begin(txnPoint)
	if tx == nil {
		return
	}
	for i := 0; i < len(acked); i += 37 {
		if !c.lookup(tx, ix, acked[i].k, recSize, false) {
			c.abort(tx)
			return
		}
	}
	c.commit(tx, false)
}

// spaceAmp is the page file's size per live user byte.
func spaceAmp(dir string, liveBytes int64) float64 {
	st, err := os.Stat(filepath.Join(dir, "pages.db"))
	if err != nil || liveBytes == 0 {
		return 0
	}
	return float64(st.Size()) / float64(liveBytes)
}

// traceRun runs body as the traced window on db: the process-global latch
// registry and the log's registry are reset so their histograms cover the
// window only, and every counter is taken as a difference across it. The
// buffer and transaction registries are fresh because db was just opened.
func traceRun(db *gistdb.DB, ext extOps, body func() phase) traceWindow {
	latch.Metrics().Reset()
	db.WAL().Metrics().Reset()
	before := db.Metrics()
	e0 := ext.s.snap()
	t0 := time.Now()
	p := body()
	after := db.Metrics()
	return traceWindow{
		calls:  p,
		delta:  metricsDelta(before, after),
		after:  after,
		traces: inWindow(db.RecentOps(), t0),
		ext:    ext.s.snap().plus(e0, -1),
	}
}
