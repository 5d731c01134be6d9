package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// dashboard sizes.
const (
	dashNodes       = 32
	dashStepMs      = 60000       // collection interval, virtual
	dashPreload     = 7 * 24 * 60 // 7 virtual days of ticks
	dashPreloadPing = 64          // preload barrier every this many ticks
	dashTickRate    = 64          // measured-phase ticks per second per agent
	dashQueryRate   = 150         // queries per second
	dashAnalyzeGap  = 5 * time.Second
	dashHotPanels   = 32
	dashVerify      = 96
	dashMaxLate     = time.Second // generator lag that invalidates a run
	dashRecoveries  = 7
)

const (
	hourMs = 3600 * 1000
	dayMs  = 24 * hourMs
)

// dashReq is one scheduled dashboard request: a query, or an /analyze
// sweep when analyze is set.
type dashReq struct {
	q       Query
	tail    bool // window resolved at send time: the last 15 acknowledged minutes
	hot     bool
	analyze bool
}

// dashSchedule draws the measured phase's requests from the seed: seeded
// Poisson query arrivals at dashQueryRate, an /analyze sweep every
// dashAnalyzeGap. 20% of queries are tail maxima over the newest 15
// minutes, 70% come from a fixed hot panel set whose windows align to
// their step (repeats can hit the result cache), and 10% are ad hoc
// long/day/p95 queries at random series and offsets (they miss).
func dashSchedule(f *Fleet, seed int64, seconds float64) ([]Arrival, []dashReq) {
	rng := rand.New(rand.NewSource(seed + 11))
	end := f.TimeOf(dashPreload-1) / hourMs * hourMs
	nodeSeries := len(f.Series) - 13
	classes := []func(series int, end int64) Query{
		func(i int, end int64) Query {
			return Query{Class: "long", Series: i, From: end - 7*dayMs, To: end, Step: hourMs, Fn: timeseries.AggMean}
		},
		func(i int, end int64) Query {
			return Query{Class: "day", Series: i, From: end - dayMs, To: end, Step: 60000, Fn: timeseries.AggMean}
		},
		func(i int, end int64) Query {
			return Query{Class: "p95_week", Series: i, From: end - 7*dayMs, To: end, Fn: timeseries.AggP95}
		},
	}
	hot := make([]dashReq, dashHotPanels)
	for i := range hot {
		hot[i] = dashReq{q: classes[i%3](rng.Intn(nodeSeries), end), hot: true}
	}
	var reqs []dashReq
	var arr []Arrival
	limit := time.Duration(seconds * float64(time.Second))
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / dashQueryRate * float64(time.Second))
		if at >= limit {
			break
		}
		var r dashReq
		switch x := rng.Float64(); {
		case x < 0.2:
			r = dashReq{q: Query{Class: "tail", Series: rng.Intn(len(f.Series)), Fn: timeseries.AggMax}, tail: true}
		case x < 0.9:
			r = hot[rng.Intn(len(hot))]
		default:
			c := rng.Intn(3)
			back := []int64{hourMs * (1 + rng.Int63n(72)), 60000 * (1 + rng.Int63n(2880)), 60000 * (1 + rng.Int63n(1440))}[c]
			r = dashReq{q: classes[c](rng.Intn(nodeSeries), end-back)}
		}
		arr = append(arr, Arrival{Due: at, Req: len(reqs)})
		reqs = append(reqs, r)
	}
	for at := dashAnalyzeGap / 2; at < limit; at += dashAnalyzeGap {
		arr = append(arr, Arrival{Due: at, Req: len(reqs)})
		reqs = append(reqs, dashReq{analyze: true})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Due < arr[j].Due })
	return arr, reqs
}

// dashKeep picks the requests whose answers are kept for checking: the
// first request of each hot panel, and a seeded sample of the rest.
func dashKeep(reqs []dashReq, seed int64) []bool {
	keep := make([]bool, len(reqs))
	seen := map[Query]bool{}
	rng := rand.New(rand.NewSource(seed + 17))
	for i, rq := range reqs {
		switch {
		case rq.analyze:
		case rq.hot && !seen[rq.q]:
			seen[rq.q], keep[i] = true, true
		case rng.Intn(len(reqs)) < 2*dashVerify:
			keep[i] = true
		}
	}
	return keep
}

// runDashboard is the dashboard workload: a durable odad preloaded with a
// week of telemetry serves a seeded open-loop mix of panel queries and
// analytics sweeps while ingest continues on a fixed schedule.
func runDashboard(e *Env) (*Run, error) {
	r := newRun()
	measuredTicks := int(e.Seconds*dashTickRate) + 8
	fleet := NewFleet(e.Seed, dashNodes, dashPreload+measuredTicks, dashStepMs)
	r.Info["nodes"], r.Info["series"] = dashNodes, len(fleet.Series)
	r.Info["preload_ticks"], r.Info["tick_rate_per_agent"], r.Info["query_rate"] = dashPreload, dashTickRate, dashQueryRate

	nodes, setup, err := setupNodes(e, setupReps, func() ([]*Node, error) {
		n, err := newNode(e.Dir, "single", false)
		return []*Node{n}, err
	}, func(ns []*Node) error { return e.L.Start(ns[0]) })
	if err != nil {
		return nil, err
	}
	node := nodes[0]
	defer e.L.Kill(node)
	r.Info["odad_flags"] = node.Flags()
	agents, err := dialAgents(e, fleet, []*Node{node, node})
	if err != nil {
		return nil, err
	}
	defer closeAgents(agents)

	// Preload: a week at 60 s collection, closed loop, a barrier every
	// dashPreloadPing ticks.
	p0 := time.Now()
	if err := warmUp(agents); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(agents))
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			for a.next < dashPreload {
				_, errs[i] = a.Step(time.Now(), (a.next+1)%dashPreloadPing == 0 || a.next+1 == dashPreload)
				if errs[i] != nil {
					return
				}
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	var preloaded int64
	for _, a := range agents {
		preloaded += a.sent
	}
	r.attempt(preloaded)
	r.E2E["setup_s"] = setup + time.Since(p0).Seconds()
	r.Info["preload_samples"] = preloaded

	// Warm-up, untimed: each hot panel once, so the timed phase starts
	// with the caches a running dashboard has rather than empty ones.
	arrivals, reqs := dashSchedule(fleet, e.Seed, e.Seconds)
	warmed := map[Query]bool{}
	for _, rq := range reqs {
		if !rq.hot || warmed[rq.q] {
			continue
		}
		warmed[rq.q] = true
		r.attempt(1)
		if _, err := rq.q.send(e.HTTP, node.HTTP, fleet, fmt.Sprintf("warm%d", len(warmed))); err != nil {
			r.fail(1, "warm-up query: %v", err)
		}
	}

	st0, err := fetchStats(e.HTTP, node)
	if err != nil {
		return nil, err
	}
	_, cpu0 := e.L.Usage(node)
	hcpu0 := selfCPU()
	wrote0 := written(agents)

	owner := make([]*Agent, len(fleet.Series))
	for _, a := range agents {
		for _, i := range a.series {
			owner[i] = a
		}
	}
	start := time.Now().Add(50 * time.Millisecond)

	// Ingest on a fixed schedule, one agent per goroutine, the second
	// offset by half a period.
	var fresh Recorder
	tickEvery := time.Second / dashTickRate
	nTicks := int(e.Seconds * dashTickRate)
	if e.Replay != nil {
		nTicks = int(e.Replay[0] - dashPreload)
	}
	var ingestEnd time.Time
	var mu sync.Mutex
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			off := time.Duration(i) * tickEvery / time.Duration(len(agents))
			for k := 0; k < nTicks; k++ {
				due := start.Add(off + time.Duration(k)*tickEvery)
				sleepUntil(due)
				lat, err := a.Step(due, true)
				if err != nil {
					return
				}
				fresh.Add(due, lat)
			}
			mu.Lock()
			if now := time.Now(); now.After(ingestEnd) {
				ingestEnd = now
			}
			mu.Unlock()
		}(i, a)
	}

	// Queries and sweeps, open loop over the two HTTP connections.
	resolved := make([]Query, len(reqs))
	isQuery := make([]bool, len(reqs))
	var capErrs, sweeps int64
	var analyzeMs Recorder
	roots := make([]int64, len(reqs))
	for i := range roots {
		roots[i] = e.Tr.NewID()
	}
	// Every response's status and headers are checked as it arrives; the
	// bodies kept for checking afterwards (a seeded sample, and the first
	// answer of each hot panel) are parsed after the phase, so the
	// harness's JSON work does not compete with odad while it is timed.
	keep := dashKeep(reqs, e.Seed)
	bodies := make([][]byte, len(reqs))
	res, qerrs := RunOpenLoop(start, arrivals, 2, func(i int) (time.Time, error) {
		rq := reqs[i]
		req := fmt.Sprintf("d%d", i)
		if rq.analyze {
			t0 := time.Now()
			n, err := analyze(e.HTTP, node, req)
			done := time.Now()
			e.Tr.Record(0, roots[i], req, "http.roundtrip", "", t0, done)
			analyzeMs.Add(t0, done.Sub(t0))
			mu.Lock()
			capErrs += int64(n)
			sweeps++
			mu.Unlock()
			return done, err
		}
		q := rq.q
		if rq.tail {
			t := fleet.TimeOf(owner[q.Series].acked.Load())
			q.From, q.To = t-15*60000, t+1
		}
		resolved[i], isQuery[i] = q, true
		t0 := time.Now()
		body, done, err := q.fetch(e.HTTP, node.HTTP, fleet, req)
		e.Tr.Record(0, roots[i], req, "http.roundtrip", "", t0, done)
		if keep[i] {
			bodies[i] = body
		}
		return done, err
	})
	wg.Wait()
	phaseEnd := time.Now()
	if ingestEnd.After(phaseEnd) {
		phaseEnd = ingestEnd
	}

	var lat []Timed
	var late []float64
	var recs []Recorded
	var hotAnswers []Recorded
	for k, rr := range res {
		late = append(late, float64(rr.Late)/float64(time.Millisecond))
		i := arrivals[k].Req
		due := start.Add(arrivals[k].Due)
		e.Tr.Record(roots[i], 0, fmt.Sprintf("d%d", i), "harness.query", fmt.Sprintf("query%d", rr.Worker), due, due.Add(rr.Latency))
		if err := qerrs[k]; err != nil {
			r.fail(1, "dashboard request: %v", err)
			continue
		}
		if !isQuery[i] {
			continue
		}
		lat = append(lat, Timed{At: due, V: float64(rr.Latency) / float64(time.Millisecond)})
		if !keep[i] {
			continue
		}
		a, err := parseAnswer(bodies[i])
		if err != nil {
			r.fail(1, "dashboard query: %v", err)
			continue
		}
		recs = append(recs, Recorded{Q: resolved[i], A: a})
		if reqs[i].hot {
			hotAnswers = append(hotAnswers, recs[len(recs)-1])
		}
	}
	r.attempt(int64(len(res)))
	var measured int64
	var sentTotal int64
	for _, a := range agents {
		sentTotal += a.sent
	}
	measured = sentTotal - preloaded
	for _, a := range agents {
		r.Ticks = append(r.Ticks, a.next)
		r.attempt(a.pings)
		if a.failed > 0 {
			r.fail(a.failed, "%s: %d pings failed", a.Name, a.failed)
		}
		if se := a.SinkErrors(); se > 0 {
			r.fail(int64(se), "%s: %d batches not sent", a.Name, se)
		}
	}
	r.attempt(measured)
	r.E2E["ingest_sps"] = float64(measured) / phaseEnd.Sub(start).Seconds()
	// Every tick and query is due within the schedule's span.
	schedEnd := start.Add(time.Duration(e.Seconds * float64(time.Second)))
	r.latencies("fresh", fresh.Timed(), start, schedEnd)
	r.latencies("query", lat, start, schedEnd)
	r.Layer["harness.late_ms_p99"], _ = Percentile(late, 0.99)
	r.Layer["oda.analyze_ms_p50"] = median(analyzeMs.Values())
	r.Layer["oda.cap_errors"] = float64(capErrs)
	if n := len(res); n > 0 && res[n-1].Late > dashMaxLate {
		r.fail(1, "run invalid: the generator fell %v behind its schedule", res[n-1].Late)
	}
	r.Info["queries"], r.Info["sweeps"], r.Info["measured_samples"] = len(lat), sweeps, measured

	_, cpu1 := e.L.Usage(node)
	r.Layer["odad.cpu_ms_per_ksample"] = msPerK(cpu1-cpu0, measured)
	r.Layer["harness.cpu_ms_per_ksample"] = msPerK(selfCPU()-hcpu0, measured)
	st1, err := fetchStats(e.HTTP, node)
	if err != nil {
		return nil, err
	}
	conserve(r, st1, sentTotal)
	r.Final = []Stats{st1}
	ingestLayers(r, st0, st1, measured, written(agents)-wrote0)
	queryLayers(r, st0, st1)
	if e.Tr != nil {
		measureCaptured(r, agents)
		r.Phases = append(r.Phases,
			Phase{Name: "ingest", Root: "harness.tick", Streams: agentNames(agents), Start: start, End: phaseEnd},
			Phase{Name: "query", Root: "harness.query", Streams: []string{"query0", "query1"}, Start: start, End: phaseEnd})
	}

	// Tail windows end at the newest acknowledged tick, so every answer is
	// final by now; the reference store gets every tick sent.
	all := seriesTicks(fleet, agents)
	verify(r, fleet, recs, dashVerify, e.Seed+3, all)

	r.E2E["disk_bytes_per_sample"] = float64(dirBytes(node.DataDir)) / float64(sentTotal)
	r.E2E["rss_peak_mb"], _ = e.L.Usage(node)
	if e.Tr == nil {
		recoverNode(e, r, node, st1, fleet, firstN(hotAnswers, dashHotPanels), dashRecoveries, nil)
	}
	return r, nil
}

func firstN(recs []Recorded, n int) []Recorded {
	if len(recs) > n {
		return recs[:n]
	}
	return recs
}

// analyze runs one /analyze sweep and returns how many capabilities
// reported an error.
func analyze(c *http.Client, n *Node, req string) (int, error) {
	hr, err := http.NewRequest(http.MethodGet, "http://"+n.HTTP+"/analyze?window_hours=6", nil)
	if err != nil {
		return 0, err
	}
	hr.Header.Set(reqHeader, req)
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/analyze: %s", resp.Status)
	}
	var doc struct {
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("/analyze: %w", err)
	}
	return len(doc.Errors), nil
}

// queryLayers derives the read-path counter metrics from two /stats
// documents taken around the query phase.
func queryLayers(r *Run, a, b Stats) {
	d := func(k string) float64 { return b.Num(k) - a.Num(k) }
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	picks := d("rollup.tier_60000ms_picks") + d("rollup.tier_3600000ms_picks")
	r.Layer["timeseries.tier_pick_ratio"] = ratio(picks, picks+d("rollup.raw_plans"))
	r.Layer["timeseries.chunk_cache_hit_ratio"] = ratio(d("query_cache_hits"), d("query_cache_hits")+d("query_cache_misses"))
	r.Layer["timeseries.cursor_reuse_ratio"] = ratio(d("cursor_pool_gets")-d("cursor_pool_news"), d("cursor_pool_gets"))
	r.Layer["resultcache.hit_ratio"] = ratio(d("rollup.result_cache_hits"), d("rollup.result_cache_hits")+d("rollup.result_cache_misses"))
	r.Layer["resultcache.evictions"] = d("rollup.result_cache_evictions")
	r.Layer["quota.rejected"] = d("rollup.quota_rejected")
	r.Layer["oda.waves"] = d("scheduler.waves")
	if q := d("rollup.quota_rejected"); q != 0 {
		r.fail(int64(q), "quota rejected %v queries with quotas off", q)
	}
}
