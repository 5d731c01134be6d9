package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// ingest-flood sizes.
const (
	floodNodes      = 512
	floodTicks      = 128   // generated rows, replayed cyclically
	floodStepMs     = 10000 // virtual time per tick
	floodTickRate   = 125   // ticks per agent per --seconds: a fixed amount of work
	floodQueryRate  = 2500  // timed post-barrier queries per --seconds
	floodWarmQ      = 2000  // asked untimed first, to warm caches
	floodRecheck    = 200   // of the timed ones, re-asked after the restarts
	floodRecoveries = 5
	floodVerify     = 64 // answers recomputed on the reference store
	setupReps       = 7
)

// runFlood is the ingest-flood workload: two agents flood one durable odad
// in a closed loop, then a barrier, a fixed query set, SIGKILL and
// recovery.
func runFlood(e *Env) (*Run, error) {
	r := newRun()
	fleet := NewFleet(e.Seed, floodNodes, floodTicks, floodStepMs)
	r.Info["nodes"], r.Info["series"], r.Info["tick_virtual_ms"] = floodNodes, len(fleet.Series), floodStepMs

	nodes, setup, err := setupNodes(e, setupReps, func() ([]*Node, error) {
		n, err := newNode(e.Dir, "single", false)
		return []*Node{n}, err
	}, func(ns []*Node) error { return e.L.Start(ns[0]) })
	if err != nil {
		return nil, err
	}
	node := nodes[0]
	defer e.L.Kill(node)
	r.E2E["setup_s"] = setup
	r.Info["odad_flags"] = node.Flags()

	agents, err := dialAgents(e, fleet, []*Node{node, node})
	if err != nil {
		return nil, err
	}
	defer closeAgents(agents)

	if err := warmUp(agents); err != nil {
		return nil, err
	}
	warmSent := sentBy(agents)
	st0, err := fetchStats(e.HTTP, node)
	if err != nil {
		return nil, err
	}
	_, cpu0 := e.L.Usage(node)
	hcpu0 := selfCPU()
	allocs0 := heapAllocs()
	wrote0 := written(agents)

	fresh, rates, start, end := closedLoop(r, agents, tickBudget(e, len(agents), int64(floodTickRate*e.Seconds)))
	r.Phases = append(r.Phases, Phase{Name: "ingest", Root: "harness.tick", Streams: agentNames(agents), Start: start, End: end})
	for _, a := range agents {
		r.Ticks = append(r.Ticks, a.next)
	}
	sent := sentBy(agents)
	phaseSent := sent - warmSent
	r.attempt(warmSent)
	r.E2E["ingest_sps"] = median(rates)
	r.Info["ingest_slices_sps"] = rates
	r.latencies("fresh", fresh, start, end)
	_, cpu1 := e.L.Usage(node)
	hcpu1 := selfCPU()
	allocs1 := heapAllocs()
	if e.Tr != nil {
		measureCaptured(r, agents)
	}
	var ticks int64
	for _, a := range agents {
		ticks += a.next
	}
	r.Layer["collector.allocs_per_tick"] = float64(allocs1-allocs0) / float64(ticks-int64(len(agents)))
	r.Layer["odad.cpu_ms_per_ksample"] = msPerK(cpu1-cpu0, phaseSent)
	r.Layer["harness.cpu_ms_per_ksample"] = msPerK(hcpu1-hcpu0, phaseSent)

	st1, err := fetchStats(e.HTTP, node)
	if err != nil {
		return nil, err
	}
	conserve(r, st1, sent)
	r.Final = []Stats{st1}
	ingestLayers(r, st0, st1, phaseSent, written(agents)-wrote0)

	// The fixed query set, asked after the barrier: closed loop over the
	// two HTTP connections.
	tickOf := seriesTicks(fleet, agents)
	qs := floodQuerySet(fleet, e.Seed, tickOf, floodWarmQ+int(floodQueryRate*e.Seconds))
	closedQueries(e, r, fleet, []*Node{node}, qs[:floodWarmQ], "warm")
	q0 := time.Now()
	recs, lat := closedQueries(e, r, fleet, []*Node{node}, qs[floodWarmQ:], "q")
	q1 := time.Now()
	r.Phases = append(r.Phases, Phase{Name: "query", Root: "harness.query", Streams: []string{"query0", "query1"}, Start: q0, End: q1})
	r.latencies("query", lat, q0, q1)
	r.Info["query_phase_s"] = q1.Sub(q0).Seconds()
	verify(r, fleet, recs, floodVerify, e.Seed+1, tickOf)

	bytes := dirBytes(node.DataDir)
	r.E2E["disk_bytes_per_sample"] = float64(bytes) / float64(sent)
	rss, _ := e.L.Usage(node)
	r.E2E["rss_peak_mb"] = rss
	r.Info["samples"], r.Info["ticks"] = sent, ticks

	if e.Tr == nil {
		recoverNode(e, r, node, st1, fleet, firstN(recs, floodRecheck), floodRecoveries, nil)
	}
	return r, nil
}

// floodQuerySet draws the fixed post-barrier query set over series chosen
// uniformly: half 1h windows at 1m steps (mean), a quarter 15-minute
// maxima, a quarter whole-history p95 scans — so the median sits inside
// one class rather than on the edge between two.
func floodQuerySet(f *Fleet, seed int64, ticks func(int) int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed + 7))
	qs := make([]Query, 0, n)
	for len(qs) < n {
		i := rng.Intn(len(f.Series))
		n := ticks(i)
		end := f.TimeOf(n-1) + 1
		switch len(qs) % 4 {
		case 0, 2:
			to := end - rng.Int63n(end-f.Start)
			qs = append(qs, Query{Class: "hour", Series: i, From: to - 3600000, To: to, Step: 60000, Fn: timeseries.AggMean})
		case 1:
			qs = append(qs, Query{Class: "tail", Series: i, From: end - 900000, To: end, Fn: timeseries.AggMax})
		default:
			qs = append(qs, Query{Class: "p95_all", Series: i, From: f.Start, To: end, Fn: timeseries.AggP95})
		}
	}
	return qs
}

// dialAgents connects one agent per node in targets, each with its share
// of the fleet.
func dialAgents(e *Env, f *Fleet, targets []*Node) ([]*Agent, error) {
	split := f.AgentSources(len(targets))
	var agents []*Agent
	for i, n := range targets {
		a, err := dialAgent(fmt.Sprintf("agent%d", i), n.Wire, f, split[i], e.Tr)
		if err != nil {
			closeAgents(agents)
			return nil, err
		}
		agents = append(agents, a)
	}
	return agents, nil
}

// sentBy sums the samples the agents have sent.
func sentBy(agents []*Agent) int64 {
	var n int64
	for _, a := range agents {
		n += a.sent
	}
	return n
}

// written sums the bytes the agents have written to their connections.
func written(agents []*Agent) int64 {
	var n int64
	for _, a := range agents {
		n += a.conn.written.Load()
	}
	return n
}

func agentNames(agents []*Agent) []string {
	var out []string
	for _, a := range agents {
		out = append(out, a.Name)
	}
	return out
}

func closeAgents(agents []*Agent) {
	for _, a := range agents {
		a.Close()
	}
}

// warmUp ships one tick per agent, one agent after the other, before
// timing starts: connections and dictionaries are set up, and odad assigns
// its WAL series refs in the same order on every run, so the WAL bytes of
// two runs fed the same ticks are equal.
func warmUp(agents []*Agent) error {
	for _, a := range agents {
		if _, err := a.Step(time.Now(), true); err != nil {
			return fmt.Errorf("%s warm-up: %w", a.Name, err)
		}
	}
	return nil
}

// tickBudget is how many ticks in all each agent sends in a closed-loop
// phase: ticks (plus the warm-up tick), or, in a traced replay, exactly
// what the untraced run sent. A fixed amount of work, rather than a fixed
// time, keeps the data volume — and so the recovery time and the bytes on
// disk — the same on every run.
func tickBudget(e *Env, agents int, ticks int64) []int64 {
	if e.Replay != nil {
		return e.Replay
	}
	out := make([]int64, agents)
	for i := range out {
		out[i] = 1 + ticks
	}
	return out
}

// pingEvery is how many closed-loop ticks an agent streams per barrier
// ping.
const pingEvery = 4

// closedLoop runs every agent in a closed loop — each ticks as soon as its
// previous tick's batch is written — until agent i has sent limit[i] ticks
// in all. Every pingEvery-th tick, and the last, is followed by a ping, so
// batches stream while odad works, and the pong proves every earlier batch
// on the connection is handled. It returns each pinged tick's latency
// (from its start to its pong, charged to its start), the acknowledged
// samples per second in each slice of the phase (sliceRates), and the
// phase's start and end; the end is
// the last pong, which proves every sample sent is handled. Pings count as
// attempted operations, a failed ping or send as a failed one.
func closedLoop(r *Run, agents []*Agent, limit []int64) ([]Timed, []float64, time.Time, time.Time) {
	var (
		mu    sync.Mutex
		fresh []Timed
		ticks []tickDone
		wg    sync.WaitGroup
	)
	sent0 := make([]int64, len(agents))
	for i, a := range agents {
		sent0[i] = a.sent
	}
	start := time.Now()
	for i, a := range agents {
		wg.Add(1)
		go func(a *Agent, limit int64) {
			defer wg.Done()
			var local []Timed
			var done []tickDone
			acked := a.sent
			for a.next < limit {
				ping := (a.next+1)%pingEvery == 0 || a.next+1 == limit
				t0 := time.Now()
				d, err := a.Step(t0, ping)
				if err != nil {
					break
				}
				if ping {
					local = append(local, Timed{At: t0, V: float64(d) / float64(time.Millisecond)})
					done = append(done, tickDone{at: time.Now(), samples: a.sent - acked})
					acked = a.sent
				}
			}
			mu.Lock()
			fresh = append(fresh, local...)
			ticks = append(ticks, done...)
			mu.Unlock()
		}(a, limit[i])
	}
	wg.Wait()
	end := time.Now()
	for i, a := range agents {
		r.attempt(a.sent - sent0[i] + a.pings)
		if a.failed > 0 {
			r.fail(a.failed, "%s: %d pings failed", a.Name, a.failed)
		}
		if se := a.SinkErrors(); se > 0 {
			r.fail(int64(se), "%s: %d batches not sent", a.Name, se)
		}
	}
	return fresh, sliceRates(ticks, start, end), start, end
}

// tickDone is one pong: when it arrived, and how many samples sent since
// the previous one it acknowledged.
type tickDone struct {
	at      time.Time
	samples int64
}

// sliceRates is the samples acknowledged per second in each slice of
// [start, end) (see slicing). Their median is the phase's rate: a stall
// in one stretch moves one slice, not the whole measurement.
func sliceRates(ticks []tickDone, start, end time.Time) []float64 {
	n, width := slicing(start, end)
	if width <= 0 {
		return nil
	}
	per := make([]int64, n)
	for _, t := range ticks {
		per[sliceOf(t.at, start, width, n)] += t.samples
	}
	rates := make([]float64, n)
	for i, c := range per {
		rates[i] = float64(c) / width.Seconds()
	}
	return rates
}

// seriesTicks maps a series to the number of ticks its agent sent.
func seriesTicks(f *Fleet, agents []*Agent) func(int) int64 {
	owner := make([]int64, len(f.Series))
	for _, a := range agents {
		for _, i := range a.series {
			owner[i] = a.next
		}
	}
	return func(i int) int64 { return owner[i] }
}

// conserve checks that every sample sent was archived.
func conserve(r *Run, st Stats, sent int64) {
	if got := int64(st.Num("samples")); got != sent {
		r.fail(max(sent-got, 1), "conservation: odad archived %d samples, agents sent %d", got, sent)
	}
}

// msPerK is CPU milliseconds per thousand samples.
func msPerK(d time.Duration, samples int64) float64 {
	if samples == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / (float64(samples) / 1000)
}

// ingestLayers derives the write-path counter metrics from two /stats
// documents taken around the ingest phase.
// wrote is what the agents wrote to their connections in the phase.
func ingestLayers(r *Run, a, b Stats, sent, wrote int64) {
	d := func(k string) float64 { return b.Num(k) - a.Num(k) }
	s := float64(sent)
	r.Layer["wire.batches"] = d("batches")
	r.Layer["wire.errors"] = d("ingest_errors")
	r.Layer["wire.ref_batches"] = d("ref_batches")
	r.Layer["wire.bytes_per_sample"] = float64(wrote) / s
	r.Layer["persist.wal_bytes_per_sample"] = d("persist.wal_bytes") / s
	r.Layer["persist.fsyncs"] = d("persist.fsyncs")
	if syncs := d("persist.fsyncs") + d("persist.coalesced_syncs"); syncs > 0 {
		r.Layer["persist.coalesced_ratio"] = d("persist.coalesced_syncs") / syncs
	}
	r.Layer["timeseries.ref_sample_ratio"] = d("refs.ref_samples") / s
	r.Layer["timeseries.rollup_folds_per_sample"] = d("rollup.folds") / s
	if n := b.Num("samples"); n > 0 {
		r.Layer["timeseries.bytes_per_sample"] = b.Num("compressed_bytes") / n
	}
}

// recoverNode SIGKILLs node, restarts it on the same data directory, and
// times how long until it serves /stats with the pre-kill sample count —
// recoveries times, as a restart replays the same WAL again, and recover_s
// is the median; then it re-asks recheck and expects the pre-kill answers.
// settle, when set, runs after each restart and must succeed before the
// next kill, so every restart starts from the same quiet state.
func recoverNode(e *Env, r *Run, node *Node, before Stats, f *Fleet, recheck []Recorded, recoveries int, settle func() error) {
	want := before.Num("samples")
	var times, rates []float64
	for i := 0; i < recoveries; i++ {
		r.attempt(1)
		t0 := time.Now()
		e.L.Kill(node)
		if err := e.L.Start(node); err != nil {
			r.fail(1, "restart: %v", err)
			return
		}
		var st Stats
		for {
			var err error
			st, err = fetchStats(e.HTTP, node)
			if err == nil && st.Num("samples") == want {
				break
			}
			if time.Since(t0) > 60*time.Second {
				r.fail(1, "recovery: %v samples after restart, want %v", st.Num("samples"), want)
				return
			}
			time.Sleep(time.Millisecond)
		}
		rec := time.Since(t0).Seconds()
		times = append(times, rec)
		rates = append(rates, st.Num("persist.replayed_records")/rec)
		if settle != nil {
			if err := settle(); err != nil {
				r.fail(1, "after restart: %v", err)
				return
			}
		}
	}
	r.E2E["recover_s"] = median(times)
	r.Info["recover_runs_s"] = times
	r.Layer["persist.replay_records_per_s"] = median(rates)
	r.attempt(int64(len(recheck)))
	for i, old := range recheck {
		got, err := old.Q.send(e.HTTP, node.HTTP, f, fmt.Sprintf("recheck%d", i))
		if err != nil {
			r.fail(1, "recovery query: %v", err)
			continue
		}
		if !sameAnswer(got, old.A) {
			r.fail(1, "recovery parity: %s answer changed across the restart", old.Q.Class)
		}
	}
}
