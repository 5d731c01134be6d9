package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Phase is a stretch of a workload whose request streams the ledger
// reconciles with its wall time.
type Phase struct {
	Name       string
	Root       string   // root span name of the phase's requests
	Streams    []string // root span attributes: one sequential sender each
	Start, End time.Time
}

// analyzeTrace turns the untraced run's counters and the traced run's
// spans into the per-layer metrics, builds the ledger, and checks stack
// parity. A non-empty verdict is a failed check.
func analyzeTrace(untraced, traced *Run, tr *Tracer) (map[string]float64, []Ledger, string) {
	spans := tr.Spans()
	layers := map[string]float64{}
	for k, v := range untraced.Layer {
		layers[k] = v
	}
	// The traced run adds what only it can measure (offline decode and
	// append timings); counters and /proc readings come from odad itself.
	for k, v := range traced.Layer {
		if _, ok := layers[k]; !ok {
			layers[k] = v
		}
	}
	p := func(name, attr string, q float64) float64 {
		v, _ := Percentile(durationsUs(spans, name, attr), q)
		return v
	}
	layers["collector.tick_us_p50"] = p("collector.tick", "", 0.5)
	layers["persist.append_us_p50"] = p("persist.append", "", 0.5)
	layers["persist.append_us_p99"] = p("persist.append", "", 0.99)
	layers["cluster.route_us_p50"] = p("cluster.route", "", 0.5)
	layers["cluster.query_us_p50.local"] = p("cluster.query", "local", 0.5)
	layers["cluster.query_us_p50.remote"] = p("cluster.query", "remote", 0.5)
	layers["timeseries.plan_us_p50"] = p("timeseries.plan", "", 0.5)
	layers["timeseries.exec_us_p50"] = p("timeseries.exec", "", 0.5)
	for _, c := range []string{"long", "day", "tail", "p95_week"} {
		layers["timeseries.plan_us_p50."+c] = p("timeseries.plan", c, 0.5)
		layers["timeseries.exec_us_p50."+c] = p("timeseries.exec", c, 0.5)
	}
	self := SelfTimes(spans)
	var serve []float64
	for _, s := range spans {
		if s.Name == "queryfront.serve" {
			serve = append(serve, float64(self[s.ID])/1e3)
		}
	}
	layers["queryfront.serve_us_p50"], _ = Percentile(serve, 0.5)
	runall := durationsUs(spans, "oda.runall", "")
	layers["oda.runall_ms"] = median(runall) / 1e3

	var ledgers []Ledger
	worst := 0.0
	for _, ph := range traced.Phases {
		for _, st := range ph.Streams {
			l := BuildLedger(spans, st, ph.Root, ph.Start.Sub(tr.t0).Nanoseconds(), ph.End.Sub(tr.t0).Nanoseconds())
			l.Stream = ph.Name + "/" + st
			ledgers = append(ledgers, l)
			worst = math.Max(worst, math.Abs(l.ErrorPct))
		}
	}
	layers["harness.ledger_error_pct"] = worst
	if u, t := untraced.E2E["fresh_p50_ms"], traced.E2E["fresh_p50_ms"]; u > 0 {
		layers["harness.trace_overhead_pct"] = 100 * (t - u) / u
	}
	var verdicts []string
	if worst > ledgerTolerancePct {
		verdicts = append(verdicts, fmt.Sprintf("ledger: self times stray %.2f%% from wall time (tolerance %.1f%%)", worst, ledgerTolerancePct))
	}
	if v := stackParity(untraced, traced); v != "" {
		verdicts = append(verdicts, v)
	}
	return layers, ledgers, strings.Join(verdicts, "; ")
}

// stackParity checks that the traced in-process stack ended in the same
// state as the odad subprocess fed the same input, so the trace cannot
// drift from odad's wiring unnoticed. Cluster members forward in
// time-dependent batch boundaries, so their WAL byte counts are left out.
func stackParity(untraced, traced *Run) string {
	if len(untraced.Final) != len(traced.Final) {
		return fmt.Sprintf("stack parity: %d nodes traced, %d untraced", len(traced.Final), len(untraced.Final))
	}
	keys := []string{"series", "samples", "compressed_bytes", "persist.wal_bytes"}
	if len(untraced.Final) > 1 {
		keys = keys[:3]
	}
	for i := range untraced.Final {
		for _, k := range keys {
			if a, b := untraced.Final[i].Num(k), traced.Final[i].Num(k); a != b {
				return fmt.Sprintf("stack parity: node %d %s is %v in odad, %v in the traced stack", i, k, a, b)
			}
		}
	}
	return ""
}

// saturating names the layer with the most self time on the ingest
// streams' blocking paths, idle time aside.
func saturating(ledgers []Ledger) string {
	sum := map[string]float64{}
	for _, l := range ledgers {
		if !strings.HasPrefix(l.Stream, "ingest/") {
			continue
		}
		for k, v := range l.Layers {
			if k != "harness.idle" {
				sum[k] += v
			}
		}
	}
	best, bestV := "", -1.0
	for k, v := range sum {
		if v > bestV {
			best, bestV = k, v
		}
	}
	return best
}

// measureCaptured times, off the blocking path, the two layers the traced
// stack cannot span from outside: decoding the captured wire frames
// (wire.DecodeBatch / ConnDict.DecodeRefBatch) and appending the decoded
// batches to a fresh in-memory store with odad's rollup tiers through a
// RefCache (Store.AppendRefs without the WAL in front).
func measureCaptured(r *Run, agents []*Agent) {
	var decode time.Duration
	var batches int
	var all []*wire.Batch
	for _, a := range agents {
		rd := bytes.NewReader(a.Captured())
		dict := wire.NewConnDict()
		for {
			ft, payload, err := wire.ReadFrame(rd)
			if err != nil {
				break
			}
			t0 := time.Now()
			var b *wire.Batch
			switch ft {
			case wire.FrameDict:
				_, err = dict.AddDefs(payload)
			case wire.FrameRefBatch:
				b, err = dict.DecodeRefBatch(payload)
			case wire.FrameBatch:
				b, err = wire.DecodeBatch(payload)
			default:
				continue
			}
			decode += time.Since(t0)
			if err != nil {
				r.fail(1, "decode captured frame: %v", err)
				break
			}
			if b != nil {
				batches++
				all = append(all, b)
			}
		}
	}
	if batches == 0 {
		return
	}
	r.Layer["wire.decode_us_per_batch"] = float64(decode) / float64(time.Microsecond) / float64(batches)
	steps := []int64{timeseries.TierStep1m, timeseries.TierStep1h}
	cache := timeseries.NewRefCache(timeseries.NewStore(0, timeseries.WithRollups(steps...)))
	var appendT time.Duration
	var samples int
	for _, b := range all {
		var entries []timeseries.BatchEntry
		for _, rec := range b.Records {
			for _, sm := range rec.Samples {
				entries = append(entries, timeseries.BatchEntry{ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V})
			}
		}
		t0 := time.Now()
		n, _ := cache.AppendBatch(entries)
		appendT += time.Since(t0)
		samples += n
	}
	if samples > 0 {
		r.Layer["timeseries.append_ns_per_sample"] = float64(appendT) / float64(samples)
	}
}
