package wal

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/page"
)

// benchRecord builds a representative mid-size record (a leaf insert with a
// small key/value body) so the benchmarks exercise real encoding cost.
func benchRecord(txn page.TxnID) *Record {
	return &Record{
		Type: RecAddLeafEntry,
		Txn:  txn,
		Pg:   42,
		Body: []byte("benchmark-key:benchmark-value-payload"),
	}
}

// BenchmarkWALAppend measures raw append throughput on an in-memory log:
// LSN assignment plus record publication, no durability. Run with
// -cpu 1,4,16 to see how appends scale when goroutines contend for LSNs.
func BenchmarkWALAppend(b *testing.B) {
	l := NewMemLog()
	var txns atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		id := page.TxnID(txns.Add(1))
		for pb.Next() {
			l.Append(benchRecord(id))
		}
	})
}

// BenchmarkWALAppendFile measures append throughput on a file-backed log
// (encoding + CRC framing on every append) without any explicit flush; the
// cost of staging bytes for the group flush is included, fsyncs are not.
func BenchmarkWALAppendFile(b *testing.B) {
	l, err := OpenFileLog(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var txns atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		id := page.TxnID(txns.Add(1))
		for pb.Next() {
			l.Append(benchRecord(id))
		}
	})
	b.StopTimer()
	appends, syncs := l.Metrics().Value("wal.appends"), l.Metrics().Value("wal.syncs")
	b.ReportMetric(float64(appends), "appends")
	b.ReportMetric(float64(syncs), "fsyncs")
}

// BenchmarkWALCommit measures the commit force path on a file-backed log:
// every iteration appends a commit record and forces it durable. Under
// parallelism group commit should amortize fsyncs across committers; the
// fsyncs-per-commit metric makes the batching visible.
func BenchmarkWALCommit(b *testing.B) {
	l, err := OpenFileLog(filepath.Join(b.TempDir(), "commit.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var txns atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		id := page.TxnID(txns.Add(1))
		for pb.Next() {
			lsn := l.Append(benchRecord(id))
			if err := l.FlushTo(lsn); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	appends, syncs := l.Metrics().Value("wal.appends"), l.Metrics().Value("wal.syncs")
	if appends > 0 {
		b.ReportMetric(float64(syncs)/float64(appends), "fsyncs/commit")
	}
}

// BenchmarkWALLastLSN measures the traversal-side counter read (the NSN
// source of §10.1) while one goroutine appends continuously — the reader
// hot path that every tree descent pays.
func BenchmarkWALLastLSN(b *testing.B) {
	l := NewMemLog()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Append(benchRecord(1))
			}
		}
	}()
	defer close(stop)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink page.LSN
		for pb.Next() {
			sink = l.LastLSN()
		}
		_ = sink
	})
}
