package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// restartCell is one restart timing measurement: the same crash state
// recovered with a given worker fan-out (minimum of three trials).
type restartCell struct {
	Workers      int     `json:"workers"`
	TotalMillis  float64 `json:"total_ms"`
	ScanMillis   float64 `json:"scan_ms"`
	RedoMillis   float64 `json:"redo_ms"`
	Speedup      float64 `json:"speedup_vs_serial"`
	Analyzed     int     `json:"analyzed"`
	Redone       int     `json:"redone"`
	QueuePages   int64   `json:"queue_pages"`
	PrefetchHits int64   `json:"prefetch_hits"`
	Digest       string  `json:"digest"`
}

// expRestart measures time-to-recover: it builds a large crash state once —
// half the keys durable on disk, half alive only in the log, everything
// committed so the recovered images are byte-comparable across fan-outs —
// then restarts clones of it at each -threads worker count under -iolat
// simulated I/O latency. Self-checking: every restart must produce the
// byte-identical recovered state (digest over all page images + final LSN),
// and at workers > 1 restart must not be slower than serial.
func expRestart() {
	baseLog, baseDisk, anchor, cfg := buildRestartState()

	counts := []int{1}
	for _, w := range parseThreads() {
		if w > 1 {
			counts = append(counts, w)
		}
	}

	var cells []restartCell
	for _, w := range counts {
		var best restartCell
		for trial := 0; trial < 3; trial++ {
			c := restartTrial(baseLog, baseDisk, anchor, cfg, w)
			if trial == 0 || c.TotalMillis < best.TotalMillis {
				best = c
			}
		}
		if len(cells) > 0 {
			best.Speedup = cells[0].TotalMillis / best.TotalMillis
		} else {
			best.Speedup = 1
		}
		cells = append(cells, best)
	}

	if *jsonFlag {
		out, err := json.MarshalIndent(map[string]any{"cells": cells}, "", "  ")
		must(err)
		fmt.Println(string(out))
	} else {
		fmt.Printf("%-8s %10s %10s %10s %9s %9s %9s %11s %10s  %s\n",
			"workers", "total_ms", "scan_ms", "redo_ms", "speedup", "analyzed", "redone", "queue_pages", "prefetch", "digest")
		for _, c := range cells {
			fmt.Printf("%-8d %10.1f %10.1f %10.1f %8.2fx %9d %9d %11d %10d  %s\n",
				c.Workers, c.TotalMillis, c.ScanMillis, c.RedoMillis, c.Speedup,
				c.Analyzed, c.Redone, c.QueuePages, c.PrefetchHits, c.Digest[:12])
		}
	}

	// Acceptance: byte-identical recovered state at every fan-out, and no
	// parallel cell slower than serial (small tolerance for timer noise).
	var bad []string
	serial := cells[0]
	if serial.Redone == 0 {
		bad = append(bad, "serial restart redid nothing; the crash state is too small to measure")
	}
	for _, c := range cells[1:] {
		if c.Digest != serial.Digest {
			bad = append(bad, fmt.Sprintf("workers=%d recovered state digest %s != serial %s",
				c.Workers, c.Digest[:12], serial.Digest[:12]))
		}
		if c.TotalMillis > serial.TotalMillis*1.20 {
			bad = append(bad, fmt.Sprintf("workers=%d restart took %.1fms, slower than serial %.1fms",
				c.Workers, c.TotalMillis, serial.TotalMillis))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "gistbench: restart bench FAILED: %s\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
	if !*jsonFlag {
		fmt.Println("RESULT: parallel restart recovered the identical state at least as fast as serial")
	}
}

// buildRestartState constructs the crash state the cells all recover from:
// a committed B-tree + heap workload over -keys keys where the first half
// was flushed and synced (durable base images) and the second half lives
// only in the log (a large dirty page table for redo to rebuild).
func buildRestartState() (*wal.Log, *storage.MemDisk, page.PageID, gist.Config) {
	disk := storage.NewMemDisk()
	log := wal.NewMemLog()
	pool := buffer.New(disk, 8192, log)
	tm := txn.NewManager(log, lock.NewManager(), predicate.NewManager())
	hp := heap.New(pool)
	hp.RegisterUndo(tm)
	cfg := gist.Config{Ops: btree.Ops{}, MaxEntries: 32}
	tree, err := gist.Create(pool, tm, cfg)
	must(err)
	insert := func(lo, hi int) {
		for k := lo; k < hi; {
			tx, err := tm.Begin()
			must(err)
			for j := 0; j < 50 && k < hi; j++ {
				rid, err := hp.Insert(tx, []byte(fmt.Sprintf("rec-%d", k)))
				must(err)
				must(tree.Insert(tx, btree.EncodeKey(int64(k)), rid))
				k++
			}
			must(tx.Commit())
		}
	}
	n := *keysFlag
	insert(0, n/2)
	must(pool.FlushAll())
	must(disk.Sync())
	insert(n/2, n)
	must(log.FlushAll())
	return log, disk, tree.Anchor(), cfg
}

// restartTrial recovers one clone of the crash state with the given worker
// fan-out, under -iolat per-page simulated latency.
func restartTrial(baseLog *wal.Log, baseDisk *storage.MemDisk, anchor page.PageID, cfg gist.Config, workers int) restartCell {
	disk := baseDisk.Snapshot()
	slow := storage.NewSlowDisk(disk, *iolatFlag)
	log := baseLog.TruncatedCopy(baseLog.LastLSN())
	pool := buffer.New(slow, 8192, log)
	tm := txn.NewManager(log, lock.NewManager(), predicate.NewManager())
	rec := &recovery.Recovery{Log: log, Pool: pool, Disk: slow, TM: tm, Workers: workers}
	t0 := time.Now()
	st, err := rec.Run(func() error {
		_, oerr := gist.Open(pool, tm, cfg, anchor)
		return oerr
	})
	must(err)
	elapsed := time.Since(t0)
	m := stats.Merged(rec.Metrics())
	return restartCell{
		Workers:      workers,
		TotalMillis:  float64(elapsed.Microseconds()) / 1e3,
		ScanMillis:   float64(m["recovery.scan_nanos"]) / 1e6,
		RedoMillis:   float64(m["recovery.redo_nanos"]) / 1e6,
		Analyzed:     st.Analyzed,
		Redone:       st.Redone,
		QueuePages:   m["recovery.redo_queue_pages"],
		PrefetchHits: m["recovery.prefetch_hits"],
		Digest:       restartDigest(disk, log),
	}
}

// restartDigest hashes the complete recovered durable state: every live
// page id and image in id order, plus the final LSN.
func restartDigest(d *storage.MemDisk, l *wal.Log) string {
	h := sha256.New()
	buf := make([]byte, page.Size)
	for _, id := range d.PageIDs() {
		if err := d.ReadPage(id, buf); err != nil {
			must(err)
		}
		fmt.Fprintf(h, "%d:", id)
		h.Write(buf)
	}
	fmt.Fprintf(h, "lsn%d", l.LastLSN())
	return fmt.Sprintf("%x", h.Sum(nil))
}
