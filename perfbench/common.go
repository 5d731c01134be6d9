package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// Run collects what one pass of a workload measured and checked.
type Run struct {
	Attempted int64
	Failed    int64
	Problems  []string
	E2E       map[string]float64 // end-to-end metrics
	Layer     map[string]float64 // per-layer metrics
	Info      map[string]any     // workload sizes and settings
	Spans     []Span             // traced runs only
	Ledgers   []Ledger           // traced runs only
	Final     []Stats            // /stats of every node at the end of ingest, for stack parity
	Ticks     []int64            // ticks each agent sent, so the traced run can replay them
	Phases    []Phase            // traced runs only: what the ledger reconciles
	mu        sync.Mutex
}

func newRun() *Run {
	return &Run{E2E: map[string]float64{}, Layer: map[string]float64{}, Info: map[string]any{}}
}

// attempt books n attempted operations.
func (r *Run) attempt(n int64) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail books n failed operations with the reason.
func (r *Run) fail(n int64, format string, args ...any) {
	r.mu.Lock()
	r.Failed += n
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// latencies reports a latency distribution taken over [start, end): as
// the end-to-end metric name_p50_ms, the median over the phase's slices of
// each slice's median (SlicedPercentile), and as the per-layer metric
// e2e.name_p99_ms, the 99th percentile of all of it. A p99 read at most a
// few thousand times a run moves too much from run to run to bound a
// regression on, so it is reported without a bound, and left out (read as
// 0) when a short run has too few samples for it.
func (r *Run) latencies(name string, xs []Timed, start, end time.Time) {
	r.Info[name+"_samples"] = len(xs)
	if sl := slicePercentiles(xs, start, end, 0.50); len(sl) > 0 {
		r.E2E[name+"_p50_ms"] = median(sl)
		r.Info[name+"_p50_slices_ms"] = sl
	} else {
		r.fail(1, "%s_p50_ms: %d samples are too few for a percentile with %d beyond it", name, len(xs), minTail)
	}
	if v, ok := Percentile(values(xs), 0.99); ok {
		r.Layer["e2e."+name+"_p99_ms"] = v
	}
}

// Env is what every workload gets.
type Env struct {
	Seed    int64
	Seconds float64
	Dir     string   // scratch directory for data dirs and logs
	L       Launcher // odad processes, or in-process stacks when traced
	Tr      *Tracer  // nil when untraced
	HTTP    *http.Client
	Replay  []int64 // traced run: the tick counts the untraced run sent
}

// newHTTPClient is the harness's HTTP budget: at most two connections to
// any node.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
}

// Query is one /query or /query_range request.
type Query struct {
	Class  string
	Series int // fleet series index
	From   int64
	To     int64
	Step   int64 // 0: /query (one reduction)
	Fn     timeseries.AggFunc
}

// Answer is a parsed query response.
type Answer struct {
	Value  float64
	Count  int
	Points []timeseries.AggPoint
}

// send performs q against node host and parses the answer. A non-200
// status or a partial answer is an error.
func (q Query) send(c *http.Client, host string, f *Fleet, req string) (Answer, error) {
	body, _, err := q.fetch(c, host, f, req)
	if err != nil {
		return Answer{}, err
	}
	return parseAnswer(body)
}

// fetch performs q and returns the response body and when it had been
// read in full — the end of the query's latency; parsing is the checker's
// work, not the system's.
func (q Query) fetch(c *http.Client, host string, f *Fleet, req string) ([]byte, time.Time, error) {
	v := url.Values{}
	v.Set("series", f.Series[q.Series].ID.Key())
	v.Set("from", strconv.FormatInt(q.From, 10))
	v.Set("to", strconv.FormatInt(q.To, 10))
	v.Set("fn", string(q.Fn))
	path := "/query"
	if q.Step > 0 {
		path = "/query_range"
		v.Set("step", strconv.FormatInt(q.Step, 10))
	}
	hr, err := http.NewRequest(http.MethodGet, "http://"+host+path+"?"+v.Encode(), nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	hr.Header.Set(reqHeader, req)
	hr.Header.Set(classHeader, q.Class)
	resp, err := c.Do(hr)
	if err != nil {
		return nil, time.Time{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("%s %s: %s", path, resp.Status, body)
	}
	if p := resp.Header.Get("X-ODA-Partial"); p != "" {
		return nil, done, fmt.Errorf("%s: partial answer (%s)", path, p)
	}
	return body, done, nil
}

// parseAnswer decodes a /query or /query_range response body.
func parseAnswer(body []byte) (Answer, error) {
	var doc struct {
		Value  float64 `json:"value"`
		Count  int     `json:"count"`
		Points []struct {
			Start int64   `json:"start"`
			Value float64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return Answer{}, fmt.Errorf("query response: %w", err)
	}
	a := Answer{Value: doc.Value, Count: doc.Count}
	for _, p := range doc.Points {
		a.Points = append(a.Points, timeseries.AggPoint{Start: p.Start, Value: p.Value})
	}
	return a, nil
}

// sameAnswer compares two answers bit for bit.
func sameAnswer(a, b Answer) bool {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Count != b.Count || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i].Start != b.Points[i].Start || math.Float64bits(a.Points[i].Value) != math.Float64bits(b.Points[i].Value) {
			return false
		}
	}
	return true
}

// Recorded is a query with the answer the system gave.
type Recorded struct {
	Q Query
	A Answer
}

// verify recomputes a seeded sample of recorded answers on an in-process
// reference timeseries.Store, fed the same samples, through its raw
// Aggregate/Reduce, and compares them bit for bit. ticks(i) is how many
// ticks of series i were ingested when the answers were taken.
func verify(r *Run, f *Fleet, recs []Recorded, sample int, seed int64, ticks func(series int) int64) {
	if len(recs) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	picked := make([]Recorded, 0, sample)
	for _, i := range rng.Perm(len(recs)) {
		if len(picked) == sample {
			break
		}
		picked = append(picked, recs[i])
	}
	ref := timeseries.NewStore(0)
	loaded := map[int]bool{}
	for _, rec := range picked {
		if !loaded[rec.Q.Series] {
			loaded[rec.Q.Series] = true
			if _, err := ref.AppendBatch(f.Entries(rec.Q.Series, 0, ticks(rec.Q.Series))); err != nil {
				r.fail(1, "reference store: %v", err)
				return
			}
		}
		id := f.Series[rec.Q.Series].ID
		var want Answer
		if rec.Q.Step > 0 {
			pts, err := ref.Aggregate(id, rec.Q.From, rec.Q.To, rec.Q.Step, rec.Q.Fn)
			if err != nil {
				r.fail(1, "reference aggregate: %v", err)
				continue
			}
			want.Points = pts
		} else {
			v, n, err := ref.Reduce(id, rec.Q.From, rec.Q.To, rec.Q.Fn)
			if err != nil {
				r.fail(1, "reference reduce: %v", err)
				continue
			}
			want.Value, want.Count = v, n
		}
		if !sameAnswer(rec.A, want) {
			r.fail(1, "wrong answer: %s %s [%d,%d) step %d fn %s", rec.Q.Class, id.Key(), rec.Q.From, rec.Q.To, rec.Q.Step, rec.Q.Fn)
		}
	}
}

// setupNodes starts the nodes a workload needs reps times over (fresh
// data each time, all but the last set killed) and returns the median
// start-to-ready time: one start is too noisy to bound a regression on.
func setupNodes(e *Env, reps int, mk func() ([]*Node, error), start func([]*Node) error) ([]*Node, float64, error) {
	var times []float64
	var nodes []*Node
	retries := 0
	for i := 0; i < reps; i++ {
		ns, err := mk()
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := start(ns); err != nil {
			for _, n := range ns {
				e.L.Kill(n)
			}
			// A port picked free can be taken by another process before
			// odad binds it; pick new ones.
			if retries++; retries <= 3 {
				i--
				continue
			}
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			for _, n := range ns {
				e.L.Kill(n)
				_ = os.RemoveAll(n.DataDir)
			}
			continue
		}
		nodes = ns
	}
	return nodes, median(times), nil
}

// heapAllocs is the harness's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// closedQueries asks qs in a closed loop over two senders, sender w bound
// to coords[w % len(coords)], and returns the answers and each query's
// latency from send to answer, charged to its send. Request IDs are tag
// plus the query's index.
func closedQueries(e *Env, r *Run, f *Fleet, coords []*Node, qs []Query, tag string) ([]Recorded, []Timed) {
	return closedQueriesUntil(e, r, f, coords, qs, tag, time.Time{})
}

// closedQueriesUntil is closedQueries that stops sending at deadline (zero:
// none); unsent queries are neither attempted nor timed.
func closedQueriesUntil(e *Env, r *Run, f *Fleet, coords []*Node, qs []Query, tag string, deadline time.Time) ([]Recorded, []Timed) {
	const senders = 2
	var (
		mu   sync.Mutex
		next int
		lat  = make([]Timed, len(qs))
		recs = make([]Recorded, len(qs))
		ok   = make([]bool, len(qs))
		sent = make([]bool, len(qs))
		wg   sync.WaitGroup
	)
	wg.Add(senders)
	for w := 0; w < senders; w++ {
		go func(w int) {
			defer wg.Done()
			host := coords[w%len(coords)].HTTP
			stream := fmt.Sprintf("query%d", w)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(qs) || !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				req := fmt.Sprintf("%s%d", tag, i)
				root := e.Tr.NewID()
				t0 := time.Now()
				body, t1, err := qs[i].fetch(e.HTTP, host, f, req)
				e.Tr.Record(0, root, req, "http.roundtrip", "", t0, t1)
				e.Tr.Record(root, 0, req, "harness.query", stream, t0, t1)
				lat[i] = Timed{At: t0, V: float64(t1.Sub(t0)) / float64(time.Millisecond)}
				sent[i] = true
				var a Answer
				if err == nil {
					a, err = parseAnswer(body)
				}
				if err != nil {
					r.fail(1, "query: %v", err)
					continue
				}
				recs[i], ok[i] = Recorded{Q: qs[i], A: a}, true
			}
		}(w)
	}
	wg.Wait()
	var out []Recorded
	var times []Timed
	for i := range qs {
		if sent[i] {
			times = append(times, lat[i])
		}
		if ok[i] {
			out = append(out, recs[i])
		}
	}
	r.attempt(int64(len(times)))
	return out, times
}
