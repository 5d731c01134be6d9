// Command perfbench is the repository's end-to-end benchmark. It drives
// the real odad binary over loopback TCP (wire protocol) and HTTP with
// simulator-shaped telemetry generated from a seed, checks every answer,
// and prints one JSON result line. With -trace 1 it also replays the same
// input through an in-process copy of odad's stack with a span around
// every call into a layer, and reports per-layer numbers and a ledger.
//
//	perfbench -odad BIN -work DIR -workload ingest-flood -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with -trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_sps", "samples/s"},
	{"fresh_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"recover_s", "s"},
	{"disk_bytes_per_sample", "B"},
	{"rss_peak_mb", "MiB"},
}

// layerMetrics are reported by every workload with -trace 1; a layer the
// workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"e2e.fresh_p99_ms", "ms"},
	{"e2e.query_p99_ms", "ms"},
	{"collector.tick_us_p50", "us"},
	{"collector.allocs_per_tick", "count"},
	{"wire.bytes_per_sample", "B"},
	{"wire.decode_us_per_batch", "us"},
	{"wire.batches", "count"},
	{"wire.errors", "count"},
	{"wire.ref_batches", "count"},
	{"odad.cpu_ms_per_ksample", "ms"},
	{"harness.cpu_ms_per_ksample", "ms"},
	{"persist.append_us_p50", "us"},
	{"persist.append_us_p99", "us"},
	{"persist.wal_bytes_per_sample", "B"},
	{"persist.fsyncs", "count"},
	{"persist.coalesced_ratio", "ratio"},
	{"persist.replay_records_per_s", "1/s"},
	{"timeseries.append_ns_per_sample", "ns"},
	{"timeseries.ref_sample_ratio", "ratio"},
	{"timeseries.rollup_folds_per_sample", "ratio"},
	{"timeseries.bytes_per_sample", "B"},
	{"timeseries.plan_us_p50", "us"},
	{"timeseries.exec_us_p50", "us"},
	{"timeseries.plan_us_p50.long", "us"},
	{"timeseries.exec_us_p50.long", "us"},
	{"timeseries.plan_us_p50.day", "us"},
	{"timeseries.exec_us_p50.day", "us"},
	{"timeseries.plan_us_p50.tail", "us"},
	{"timeseries.exec_us_p50.tail", "us"},
	{"timeseries.plan_us_p50.p95_week", "us"},
	{"timeseries.exec_us_p50.p95_week", "us"},
	{"timeseries.tier_pick_ratio", "ratio"},
	{"timeseries.chunk_cache_hit_ratio", "ratio"},
	{"timeseries.cursor_reuse_ratio", "ratio"},
	{"queryfront.serve_us_p50", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.evictions", "count"},
	{"quota.rejected", "count"},
	{"cluster.route_us_p50", "us"},
	{"cluster.forwarded_ratio", "ratio"},
	{"cluster.failed_sends", "count"},
	{"cluster.hinted_batches", "count"},
	{"cluster.repl_lag_max", "B"},
	{"cluster.query_us_p50.local", "us"},
	{"cluster.query_us_p50.remote", "us"},
	{"cluster.join_s", "s"},
	{"cluster.join_moved_samples", "count"},
	{"oda.analyze_ms_p50", "ms"},
	{"oda.runall_ms", "ms"},
	{"oda.waves", "count"},
	{"oda.cap_errors", "count"},
	{"harness.late_ms_p99", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.ledger_error_pct", "%"},
}

// ledgerTolerancePct is how far the traced run's per-layer self times may
// stray from its wall time before the ledger fails.
const ledgerTolerancePct = 5.0

var workloads = map[string]func(*Env) (*Run, error){
	"ingest-flood": runFlood,
	"dashboard":    runDashboard,
	"cluster-rf2":  runCluster,
}

func main() {
	workload := flag.String("workload", "", "ingest-flood | dashboard | cluster-rf2")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	odad := flag.String("odad", "", "odad binary to drive")
	work := flag.String("work", "", "scratch directory for data and logs (removed afterwards)")
	spansOut := flag.String("spans", "", "with -trace 1, write the traced run's spans to this file")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *odad == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -odad BIN -work DIR -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	fatal := func(err error) {
		os.RemoveAll(*work)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(*work)

	env := &Env{Seed: *seed, Seconds: *seconds, Dir: *work, L: &procLauncher{bin: *odad, dir: *work}, HTTP: newHTTPClient()}
	res, err := run(env)
	if err != nil {
		fatal(err)
	}
	info := describe(*workload, *seed, *seconds, *trace, res)
	metrics := map[string]any{}
	var problems []string
	attempted, failed := res.Attempted, res.Failed
	problems = append(problems, res.Problems...)
	if *trace == 0 {
		for _, m := range e2eMetrics {
			v, ok := res.E2E[m.name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				problems = append(problems, "no measurement for "+m.name)
				failed++
				continue
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		tr := NewTracer()
		tenv := &Env{Seed: *seed, Seconds: *seconds, Dir: filepath.Join(*work, "traced"), L: &inprocLauncher{tr: tr}, Tr: tr, HTTP: newHTTPClient(), Replay: res.Ticks}
		if err := os.MkdirAll(tenv.Dir, 0o755); err != nil {
			fatal(err)
		}
		traced, err := run(tenv)
		if err != nil {
			fatal(fmt.Errorf("traced run: %w", err))
		}
		attempted += traced.Attempted
		failed += traced.Failed
		problems = append(problems, traced.Problems...)
		layers, ledgers, verdict := analyzeTrace(res, traced, tr)
		if verdict != "" {
			problems = append(problems, verdict)
			failed++
		}
		info["ledgers"] = ledgers
		info["saturating_layer"] = saturating(ledgers)
		for _, m := range layerMetrics {
			v := layers[m.name]
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
		if *spansOut != "" {
			if err := tr.Write(*spansOut); err != nil {
				problems = append(problems, "write spans: "+err.Error())
			}
		}
	}
	info["problems"] = problems
	report(info, metrics)
	out := map[string]any{"correct": failed == 0 && len(problems) == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
	line, _ := json.Marshal(out)
	infoLine, _ := json.Marshal(map[string]any{"run": info})
	fmt.Println(string(infoLine))
	fmt.Println(string(line))
	if failed != 0 || len(problems) != 0 {
		os.RemoveAll(*work)
		os.Exit(1)
	}
}

// describe records what the run was: the machine, the exact odad flags and
// fsync policy, the seed and the workload sizes, so a result names its
// benchmark and its machine.
func describe(workload string, seed int64, seconds float64, trace int, r *Run) map[string]any {
	info := map[string]any{
		"benchmark":  "perfbench",
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"fsync":      "interval",
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"sizes":      r.Info,
		"end_to_end": r.E2E,
	}
	return info
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints every metric by name with its unit to standard error.
func report(info map[string]any, metrics map[string]any) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %v seed=%v on %v (%v CPUs, GOMAXPROCS %v, %v)\n",
		info["workload"], info["seed"], info["cpu_model"], info["nproc"], info["gomaxprocs"], info["go_version"])
	for _, k := range names {
		m := metrics[k].(map[string]any)
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, m["value"], m["unit"])
	}
	if s, ok := info["saturating_layer"]; ok {
		fmt.Fprintf(os.Stderr, "  saturating layer: %v\n", s)
	}
	for _, p := range info["problems"].([]string) {
		fmt.Fprintf(os.Stderr, "  FAIL: %s\n", p)
	}
}
