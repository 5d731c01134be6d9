package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// cluster-rf2 sizes.
const (
	clusterNodes      = 256
	clusterTicks      = 128
	clusterStepMs     = 10000
	clusterFloodTicks = 1000 // phase-1 ticks per agent, whatever --seconds is (see runCluster)
	clusterMembers    = 3
	clusterRF         = 2
	clusterReps       = 9
	clusterRounds     = 5 // phase-1 flood rounds
	clusterVerify     = 64
	clusterRecheck    = 100
	clusterRecoveries = 9
	clusterQueryPool  = 150000
	convergeLimit     = 60 * time.Second
)

// runCluster is the cluster-rf2 workload: three durable odad members at
// RF=2 take a closed-loop flood through two coordinators, then closed-loop
// single-series queries through both, then a member restarts and a fresh
// fourth member joins.
func runCluster(e *Env) (*Run, error) {
	r := newRun()
	fleet := NewFleet(e.Seed, clusterNodes, clusterTicks, clusterStepMs)
	r.Info["nodes"], r.Info["series"], r.Info["members"], r.Info["rf"] = clusterNodes, len(fleet.Series), clusterMembers, clusterRF

	members, setup, err := setupNodes(e, clusterReps, func() ([]*Node, error) {
		var ns []*Node
		var peers []string
		for i := 1; i <= clusterMembers; i++ {
			n, err := newNode(e.Dir, fmt.Sprintf("m%d", i), true)
			if err != nil {
				return nil, err
			}
			ns = append(ns, n)
			peers = append(peers, n.ID+"="+n.Cluster)
		}
		for _, n := range ns {
			n.Peers, n.RF = strings.Join(peers, ","), clusterRF
		}
		return ns, nil
	}, func(ns []*Node) error { return startAll(e.L, ns) })
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range members {
			e.L.Kill(n)
		}
	}()
	r.E2E["setup_s"] = setup
	r.Info["odad_flags"] = members[0].Flags()

	// Phase 1: closed-loop flood through m1 and m2, in rounds. Its size is
	// fixed rather than scaled by --seconds: each donor's join snapshot
	// must stay below the single-frame limit (16 MiB), which about twice
	// this volume exceeds.
	coords := members[:2]
	agents, err := dialAgents(e, fleet, coords)
	if err != nil {
		return nil, err
	}
	defer closeAgents(agents)
	if err := warmUp(agents); err != nil {
		return nil, err
	}
	st0, err := statsAll(e.HTTP, members)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuAll(e.L, members)
	hcpu0 := selfCPU()
	wrote0 := written(agents)
	warmSent := sentBy(agents)
	r.attempt(warmSent)
	// The flood runs in clusterRounds rounds. A round's clock stops when
	// the owners hold every sample sent; every replica is then back at lag
	// 0 before the next round starts, so each round starts from the same
	// quiet state. ingest_sps is the median of the rounds' rates.
	budget := tickBudget(e, len(agents), clusterFloodTicks)
	var (
		fresh      []Timed
		rates      []float64
		start, end time.Time
		lagAtStop  float64
		st1        []Stats
		sent       int64
	)
	for k := int64(1); k <= clusterRounds; k++ {
		limit := make([]int64, len(budget))
		for i, b := range budget {
			limit[i] = 1 + (b-1)*k/clusterRounds
		}
		before := sentBy(agents)
		f, _, s, _ := closedLoop(r, agents, limit)
		sent = sentBy(agents)
		atStop, _ := statsAll(e.HTTP, members)
		lagAtStop = max(lagAtStop, maxLag(atStop))
		if st1, err = converge(e.HTTP, members, sent, false); err != nil {
			r.fail(1, "cluster conservation: %v", err)
			return r, nil
		}
		now := time.Now()
		rates = append(rates, float64(sent-before)/now.Sub(s).Seconds())
		fresh = append(fresh, f...)
		r.Phases = append(r.Phases, Phase{Name: "ingest", Root: "harness.tick", Streams: agentNames(agents), Start: s, End: now})
		if k == 1 {
			start = s
		}
		end = now
		if _, err := converge(e.HTTP, members, sent, true); err != nil {
			r.fail(1, "replication: %v", err)
			return r, nil
		}
	}
	for _, a := range agents {
		r.Ticks = append(r.Ticks, a.next)
	}
	phaseSent := sent - warmSent
	r.E2E["ingest_sps"] = median(rates)
	r.Info["ingest_round_sps"] = rates
	r.latencies("fresh", fresh, start, end)
	r.Layer["odad.cpu_ms_per_ksample"] = msPerK(cpuAll(e.L, members)-cpu0, phaseSent)
	r.Layer["harness.cpu_ms_per_ksample"] = msPerK(selfCPU()-hcpu0, phaseSent)
	r.Layer["cluster.repl_lag_max"] = lagAtStop
	r.Info["rounds"] = clusterRounds
	r.Final = st1
	clusterLayers(r, st0, st1, phaseSent, written(agents)-wrote0)
	if e.Tr != nil {
		measureCaptured(r, agents)
	}

	// Phase 2: closed-loop single-series queries, one sender per
	// coordinator, so about 2/3 route to a remote owner, for --seconds/2.
	// The pool holds several times what that takes, so the deadline ends
	// the phase rather than the pool.
	tickOf := seriesTicks(fleet, agents)
	rng := rand.New(rand.NewSource(e.Seed + 13))
	var qs []Query
	for len(qs) < clusterQueryPool {
		i := rng.Intn(len(fleet.Series))
		last := fleet.TimeOf(tickOf(i) - 1)
		to := last + 1 - rng.Int63n(last-fleet.Start)/60000*60000
		qs = append(qs, Query{Class: "range", Series: i, From: to - hourMs, To: to, Step: 60000, Fn: timeseries.AggMean})
	}
	q0 := time.Now()
	recs, lat := timedQueries(e, r, fleet, coords, qs, e.Seconds/2)
	q1 := time.Now()
	r.Phases = append(r.Phases, Phase{Name: "query", Root: "harness.query", Streams: []string{"query0", "query1"}, Start: q0, End: q1})
	r.latencies("query", lat, q0, q1)
	verify(r, fleet, recs, clusterVerify, e.Seed+5, tickOf)
	r.Info["samples"], r.Info["queries"] = sent, len(lat)

	var bytes int64
	for _, n := range members {
		bytes += dirBytes(n.DataDir)
	}
	r.E2E["disk_bytes_per_sample"] = float64(bytes) / float64(sent)
	r.E2E["rss_peak_mb"] = rssMax(e.L, members)
	if e.Tr != nil {
		return r, nil
	}

	// Recovery: SIGKILL the member no agent talks to and restart it, and
	// let the cluster heal before the join.
	m3 := members[2]
	before, err := fetchStats(e.HTTP, m3)
	if err != nil {
		return nil, err
	}
	// Between restarts the followers must catch up again (they re-pull the
	// restarted leader's WAL), so no restart overlaps that catch-up.
	recoverNode(e, r, m3, before, fleet, nil, clusterRecoveries, func() error {
		_, err := converge(e.HTTP, members, sent, true)
		return err
	})

	// Phase 3: a fresh fourth member joins through m1.
	m4, err := newNode(e.Dir, "m4", true)
	if err != nil {
		return nil, err
	}
	m4.Peers, m4.RF = "m4="+m4.Cluster, clusterRF
	if err := e.L.Start(m4); err != nil {
		return nil, err
	}
	members = append(members, m4)
	t0 := time.Now()
	r.attempt(1)
	if err := join(e.HTTP, m4, members[0]); err != nil {
		r.fail(1, "join: %v", err)
		return r, nil
	}
	r.Layer["cluster.join_s"] = time.Since(t0).Seconds()
	if st, err := fetchStats(e.HTTP, m4); err == nil {
		r.Layer["cluster.join_moved_samples"] = st.Num("samples")
	}
	// Join parity: the same questions, asked through the joiner (whose
	// result cache is empty), get the same answers.
	recheck := firstN(recs, clusterRecheck)
	r.attempt(int64(len(recheck)))
	for i, old := range recheck {
		got, err := old.Q.send(e.HTTP, m4.HTTP, fleet, fmt.Sprintf("join%d", i))
		if err != nil {
			r.fail(1, "query after join: %v", err)
			continue
		}
		if !sameAnswer(got, old.A) {
			r.fail(1, "join parity: answer for %s changed", fleet.Series[old.Q.Series].ID.Key())
		}
	}
	r.E2E["rss_peak_mb"] = max(r.E2E["rss_peak_mb"], rssMax(e.L, members))
	return r, nil
}

// startAll starts the members concurrently (each waits for its peers'
// listeners only lazily) and returns once every one serves /stats.
func startAll(l Launcher, ns []*Node) error {
	errs := make([]error, len(ns))
	var wg sync.WaitGroup
	for i, n := range ns {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = l.Start(n)
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func statsAll(c *http.Client, ns []*Node) ([]Stats, error) {
	out := make([]Stats, len(ns))
	for i, n := range ns {
		st, err := fetchStats(c, n)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func cpuAll(l Launcher, ns []*Node) time.Duration {
	var total time.Duration
	for _, n := range ns {
		_, cpu := l.Usage(n)
		total += cpu
	}
	return total
}

func rssMax(l Launcher, ns []*Node) float64 {
	m := 0.0
	for _, n := range ns {
		rss, _ := l.Usage(n)
		m = max(m, rss)
	}
	return m
}

// replicas lists a member's replica sections.
func replicas(st Stats) []map[string]any {
	var out []map[string]any
	if c := st.Section("cluster"); c != nil {
		if rs, ok := c["replicas"].([]any); ok {
			for _, x := range rs {
				if m, ok := x.(map[string]any); ok {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// maxLag is the largest replication lag (bytes) any follower reports.
func maxLag(sts []Stats) float64 {
	m := 0.0
	for _, st := range sts {
		for _, rp := range replicas(st) {
			if v, _ := rp["lag_bytes"].(float64); v > m {
				m = v
			}
		}
	}
	return m
}

// converge polls the members until the owners' stores hold exactly sent
// samples — and, with replicas set, every follower is at lag 0 holding
// them too — and returns the members' /stats at that moment.
func converge(c *http.Client, ns []*Node, sent int64, withReplicas bool) ([]Stats, error) {
	deadline := time.Now().Add(convergeLimit)
	var last string
	for time.Now().Before(deadline) {
		sts, err := statsAll(c, ns)
		if err == nil {
			var owned, replicated float64
			for _, st := range sts {
				owned += st.Num("samples")
				for _, rp := range replicas(st) {
					v, _ := rp["samples"].(float64)
					replicated += v
				}
			}
			ok := owned == float64(sent)
			if withReplicas {
				ok = ok && maxLag(sts) == 0 && replicated == float64(sent*(clusterRF-1))
			}
			if ok {
				return sts, nil
			}
			last = fmt.Sprintf("owners hold %v samples, replicas %v, max lag %v B; sent %d", owned, replicated, maxLag(sts), sent)
		} else {
			last = err.Error()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("no convergence within %v: %s", convergeLimit, last)
}

// clusterLayers derives the cluster and write-path counters of phase 1.
func clusterLayers(r *Run, a, b []Stats, sent, wrote int64) {
	sum := func(sts []Stats, k string) float64 {
		t := 0.0
		for _, st := range sts {
			t += st.Num(k)
		}
		return t
	}
	d := func(k string) float64 { return sum(b, k) - sum(a, k) }
	s := float64(sent)
	r.Layer["wire.batches"] = d("batches")
	r.Layer["wire.errors"] = d("ingest_errors")
	r.Layer["wire.ref_batches"] = d("ref_batches")
	r.Layer["wire.bytes_per_sample"] = float64(wrote) / s
	r.Layer["persist.wal_bytes_per_sample"] = d("persist.wal_bytes") / s
	r.Layer["persist.fsyncs"] = d("persist.fsyncs")
	r.Layer["timeseries.ref_sample_ratio"] = d("refs.ref_samples") / s
	r.Layer["timeseries.rollup_folds_per_sample"] = d("rollup.folds") / s
	r.Layer["timeseries.bytes_per_sample"] = sum(b, "compressed_bytes") / s
	local, fwd := d("cluster.local_entries"), d("cluster.forwarded_entries")
	if local+fwd > 0 {
		r.Layer["cluster.forwarded_ratio"] = fwd / (local + fwd)
	}
	var failed, hinted float64
	for i := range b {
		if c := b[i].Section("cluster"); c != nil {
			if ps, ok := c["peers"].([]any); ok {
				for _, x := range ps {
					p, _ := x.(map[string]any)
					f, _ := p["failed_sends"].(float64)
					h, _ := p["hinted_batches"].(float64)
					failed += f
					hinted += h
				}
			}
		}
	}
	r.Layer["cluster.failed_sends"], r.Layer["cluster.hinted_batches"] = failed, hinted
}

// timedQueries runs closedQueries until seconds have passed.
func timedQueries(e *Env, r *Run, f *Fleet, coords []*Node, qs []Query, seconds float64) ([]Recorded, []Timed) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return closedQueriesUntil(e, r, f, coords, qs, "q", deadline)
}

// join asks joiner to join the cluster through seed's cluster listener.
func join(c *http.Client, joiner, seed *Node) error {
	resp, err := c.Post("http://"+joiner.HTTP+"/cluster/join?seed="+seed.Cluster, "text/plain", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}
