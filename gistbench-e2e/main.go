// Command gistbench-e2e is the repository's end-to-end benchmark: it runs
// one named workload through the public gistdb facade, checks every answer,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// flushPolicy is the engine's own: every committing transaction forces the
// log, with concurrent committers sharing a group-commit fsync.
const flushPolicy = "force-at-commit, group commit"

// setupRuns is how many times a run builds its starting state; setup_s is
// the median.
const setupRuns = 3

// clients is the closed-loop client count of the mixed workloads.
const clients = 2

// env is one run's configuration.
type env struct {
	seconds float64
	traced  bool
	dir     string // data directory of this run, removed at exit
	g       *gen
}

// outcome is what a workload measured. A call kind's end-to-end latency
// comes from the main phase when the main phase made such calls, and from
// the verification phase otherwise.
type outcome struct {
	main, verify phase
	setup        []float64          // seconds per set-up
	restart      []float64          // milliseconds per restart
	spaceAmp     float64            // page-file bytes per live user byte; 0 when in memory
	recovery     []map[string]int64 // DB.Metrics() right after each restart
	trace        *traceWindow       // traced runs: the traced window
}

// workloads are described, with the reason for each, in README.md and
// BENCHMARK.json.
var workloads = map[string]func(e *env) (*outcome, error){
	"read_cached": runReadCached,
	"write_churn": runWriteChurn,
	"restart":     runRestart,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"txn_per_s", "1/s"},
	{"point_p50_us", "us"},
	{"insert_p50_us", "us"},
	{"delete_p50_us", "us"},
	{"ro_commit_p50_us", "us"},
	{"restart_ms", "ms"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

func main() {
	name := flag.String("workload", "", "workload: read_cached, write_churn or restart")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	data := flag.String("data", ".bench_build/gistbench-e2e-data", "parent of the run's data directory")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := &env{
		seconds: *seconds,
		traced:  *trace == 1,
		dir:     filepath.Join(*data, fmt.Sprintf("%s-%d", *name, os.Getpid())),
		g:       newGen(*seed),
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: %v\n", err)
		os.Exit(1)
	}
	fs := fsType(e.dir)
	out, err := run(e)
	if rerr := os.RemoveAll(e.dir); rerr != nil {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: removing %s: %v\n", e.dir, rerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: %s: %v\n", *name, err)
		os.Exit(1)
	}

	all := merge(out.main, out.verify)
	attempted, failed := all.tally()
	metrics := make(map[string]metric)
	if e.traced {
		w := *out.trace
		w.recovery = out.recovery
		layers := layerMetrics(w)
		for _, m := range perLayer {
			metrics[m.name] = metric{layers[m.name], m.unit}
		}
	} else {
		e2e := endToEndValues(out)
		for _, m := range endToEnd {
			metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}

	meta := map[string]any{
		"workload":     *name,
		"seed":         *seed,
		"seconds":      *seconds,
		"trace":        *trace,
		"clients":      clients,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"data_fs":      fs,
		"flush_policy": flushPolicy,
		"info":         infoValues(out),
	}
	printJSON(meta)
	printJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
}

// pick returns the samples of call kind o: from the main phase if it made
// such calls, else from the verification phase.
func (o *outcome) pick(k op) []int64 {
	if s := o.main.samples(k); len(s) > 0 {
		return s
	}
	return o.verify.samples(k)
}

func (o *outcome) tps() float64 {
	if o.main.txns() > 0 {
		return o.main.tps()
	}
	return o.verify.tps()
}

func endToEndValues(o *outcome) map[string]float64 {
	return map[string]float64{
		"txn_per_s":        o.tps(),
		"point_p50_us":     quantile(o.pick(opPoint), 0.50),
		"insert_p50_us":    quantile(o.pick(opInsert), 0.50),
		"delete_p50_us":    quantile(o.pick(opDelete), 0.50),
		"ro_commit_p50_us": quantile(o.pick(opROCommit), 0.50),
		"restart_ms":       median(o.restart),
		"max_rss_mb":       maxRSSMB(),
		"setup_s":          median(o.setup),
	}
}

// infoValues are the figures printed beside the result but not gated: the
// point tail, the scan latency and the write-commit latency (too unsteady
// from run to run on a shared 2-core machine for a 25% gate), windows (only two of the workloads hold an
// rtree), space amplification (only the file-backed workloads have a page
// file) and sample counts.
func infoValues(o *outcome) map[string]float64 {
	info := map[string]float64{
		"point_p99_us":  quantile(o.pick(opPoint), 0.99),
		"commit_p50_us": quantile(o.pick(opCommit), 0.50),
		"scan_p50_us":   quantile(o.pick(opScan), 0.50),
		"scan_p99_us":   quantile(o.pick(opScan), 0.99),
		"window_p50_us": quantile(o.pick(opWindow), 0.50),
		"window_p99_us": quantile(o.pick(opWindow), 0.99),
		"insert_p99_us": quantile(o.pick(opInsert), 0.99),
		"space_amp":     o.spaceAmp,
		"restarts":      float64(len(o.restart)),
		"main_seconds":  o.main.elapsed.Seconds(),
	}
	for _, k := range []op{opPoint, opScan, opWindow, opInsert, opDelete, opCommit, opROCommit} {
		info["n_"+opNames[k]] = float64(len(o.pick(k)))
	}
	return info
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gistbench-e2e: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// timeLeft reports whether the phase that started at t0 may start another
// transaction.
func timeLeft(t0 time.Time, seconds float64) bool {
	return time.Since(t0).Seconds() < seconds
}
