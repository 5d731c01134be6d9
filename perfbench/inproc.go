package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/oda"
	"repro/internal/persist"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Stack is the traced run's in-process copy of one odad: built from the
// same public constructors odad's main uses, with the same defaults as the
// flags Node.Flags passes, and a handler that mirrors odad's. Around every
// call into a layer it records a span.
type Stack struct {
	tr         *Tracer
	durable    *persist.DurableStore
	store      *timeseries.Store
	srv        *wire.Server
	router     *cluster.Router
	clusterSrv *cluster.Server
	qf         *queryfront.Front
	grid       *oda.Grid
	httpSrv    *http.Server
	pend       *pending
	latest     atomic.Int64
}

// odad's defaults for the flags the benchmark leaves alone.
const (
	odadRollups       = "1m,1h"
	odadSnapshotEvery = 5 * time.Minute
	odadCacheEntries  = 1024
	odadCacheTTL      = 10 * time.Second
	odadQueryBurst    = 20
)

// inprocLauncher starts Stacks instead of processes.
type inprocLauncher struct{ tr *Tracer }

func (l *inprocLauncher) Start(n *Node) error {
	s, err := startStack(n, l.tr)
	if err != nil {
		return err
	}
	n.stack = s
	return waitReady(n, 10*time.Second, func() bool { return false })
}

func (l *inprocLauncher) Kill(n *Node) {
	if n.stack != nil {
		n.stack.Close()
		n.stack = nil
	}
}

// Usage is not separable from the harness in process; the traced run
// reports no /proc numbers.
func (l *inprocLauncher) Usage(*Node) (float64, time.Duration) { return 0, 0 }

func startStack(n *Node, tr *Tracer) (*Stack, error) {
	s := &Stack{tr: tr}
	steps, err := queryfront.ParseRollupSteps(odadRollups)
	if err != nil {
		return nil, err
	}
	storeOpts := []timeseries.Option{timeseries.WithRollups(steps...)}
	s.durable, err = persist.Open(n.DataDir, persist.Options{
		StoreOptions:     storeOpts,
		Fsync:            persist.FsyncInterval,
		SnapshotInterval: odadSnapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	s.store = s.durable.Store()
	var refs *timeseries.RefCache
	if n.Peers != "" {
		var peers []cluster.Peer
		for _, p := range strings.Split(n.Peers, ",") {
			id, addr, _ := strings.Cut(p, "=")
			peers = append(peers, cluster.Peer{ID: id, Addr: addr})
		}
		s.router, err = cluster.New(cluster.Config{
			Self: n.ID, Peers: peers, Replication: n.RF,
			Local: s.durable, Store: s.store, Durable: s.durable, ReplicaOptions: storeOpts,
		})
		if err != nil {
			return nil, err
		}
		if s.clusterSrv, err = cluster.Listen(n.Cluster, s.router); err != nil {
			return nil, err
		}
		s.router.Start(0, 0)
	} else {
		refs = timeseries.NewRefCache(s.durable)
	}

	ln, err := net.Listen("tcp", n.Wire)
	if err != nil {
		return nil, err
	}
	s.srv = wire.NewServerListener(ln, func(b *wire.Batch) {
		start := time.Now()
		var entries []timeseries.BatchEntry
		for _, rec := range b.Records {
			for _, sm := range rec.Samples {
				entries = append(entries, timeseries.BatchEntry{ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V})
				for {
					cur := s.latest.Load()
					if sm.T <= cur || s.latest.CompareAndSwap(cur, sm.T) {
						break
					}
				}
			}
		}
		req := batchReq(b)
		id := tr.NewID()
		t1 := time.Now()
		if s.router != nil {
			_, _ = s.router.AppendBatch(entries)
			tr.Record(0, id, req, "cluster.route", "", t1, time.Now())
		} else {
			_, _ = refs.AppendBatch(entries)
			tr.Record(0, id, req, "persist.append", "", t1, time.Now())
		}
		tr.Record(id, 0, req, "odad.handle", "", start, time.Now())
	})

	grid, err := repro.FullGrid()
	if err != nil {
		return nil, err
	}
	s.grid = grid
	s.pend = &pending{m: make(map[string][]*reqInfo)}
	var backend queryfront.Backend = &tracedStore{store: s.store, tr: tr, pend: s.pend}
	if s.router != nil {
		backend = &tracedRouter{r: s.router, tr: tr, pend: s.pend}
	}
	s.qf = queryfront.New(backend, odadCacheEntries, odadCacheTTL, 0, odadQueryBurst)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.traced(s.qf.HandleQuery))
	mux.HandleFunc("/query_range", s.traced(s.qf.HandleQueryRange))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.statsPayload())
	})
	mux.HandleFunc("/analyze", s.analyze)
	if s.router != nil {
		mux.HandleFunc("/cluster/join", func(w http.ResponseWriter, r *http.Request) {
			if err := s.router.JoinCluster(r.URL.Query().Get("seed")); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Fprintf(w, "{\"joined\":true,\"epoch\":%d}\n", s.router.Epoch())
		})
	}
	hln, err := net.Listen("tcp", n.HTTP)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: mux}
	go func() { _ = s.httpSrv.Serve(hln) }()
	return s, nil
}

// batchReq names the request a batch belongs to: its agent and collection
// time, the same key the agent loop records its spans under.
func batchReq(b *wire.Batch) string {
	var t int64
	if len(b.Records) > 0 && len(b.Records[0].Samples) > 0 {
		t = b.Records[0].Samples[0].T
	}
	return tickReq(b.Agent, t)
}

func tickReq(agent string, t int64) string { return agent + "@" + strconv.FormatInt(t, 10) }

// reqHeader carries the harness's request ID to the traced stack; odad
// ignores it.
const reqHeader = "X-Bench-Req"

// classHeader carries the query class (long, day, tail, ...).
const classHeader = "X-Bench-Class"

// reqInfo identifies the query a backend call serves.
type reqInfo struct {
	req, class string
	parent     int64 // the queryfront.serve span
}

// pending maps a query's signature to the requests in flight with it. The
// queryfront Backend interface carries no request context, so the backend
// wrappers find the request they serve by the signature of the call;
// identical concurrent requests are interchangeable for timing.
type pending struct {
	mu sync.Mutex
	m  map[string][]*reqInfo
}

func (p *pending) add(sig string, info *reqInfo) {
	p.mu.Lock()
	p.m[sig] = append(p.m[sig], info)
	p.mu.Unlock()
}

func (p *pending) remove(sig string, info *reqInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.m[sig]
	for i, x := range l {
		if x == info {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(p.m, sig)
		return
	}
	p.m[sig] = l
}

func (p *pending) lookup(sig string) *reqInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := p.m[sig]; len(l) > 0 {
		return l[0]
	}
	return nil
}

// querySig is the signature shared by a query's URL and its backend call.
func querySig(key string, from, to, step int64, fn timeseries.AggFunc) string {
	if fn == "" {
		fn = timeseries.AggMean
	}
	return fmt.Sprintf("%s|%d|%d|%d|%s", key, from, to, step, fn)
}

// traced wraps a queryfront handler in a queryfront.serve span and
// registers the request for the backend wrapper.
func (s *Stack) traced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := r.URL.Query()
		from, _ := strconv.ParseInt(q.Get("from"), 10, 64)
		to, _ := strconv.ParseInt(q.Get("to"), 10, 64)
		step, _ := strconv.ParseInt(q.Get("step"), 10, 64)
		sig := querySig(q.Get("series"), from, to, step, timeseries.AggFunc(q.Get("fn")))
		info := &reqInfo{req: r.Header.Get(reqHeader), class: r.Header.Get(classHeader), parent: s.tr.NewID()}
		s.pend.add(sig, info)
		h(w, r)
		s.pend.remove(sig, info)
		s.tr.Record(info.parent, 0, info.req, "queryfront.serve", info.class, start, time.Now())
	}
}

// analyze mirrors odad's /analyze handler with an oda.runall span around
// the grid sweep.
func (s *Stack) analyze(w http.ResponseWriter, r *http.Request) {
	windowHours := 6.0
	if v, err := strconv.ParseFloat(r.URL.Query().Get("window_hours"), 64); err == nil && v > 0 {
		windowHours = v
	}
	to := s.latest.Load() + 1
	from := max(to-int64(windowHours*3600*1000), 0)
	start := time.Now()
	results, errs := s.grid.RunAll(&oda.RunContext{Store: s.store, From: from, To: to})
	s.tr.Record(0, 0, r.Header.Get(reqHeader), "oda.runall", "", start, time.Now())
	errMsgs := make(map[string]string, len(errs))
	for name, err := range errs {
		errMsgs[name] = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"from": from, "to": to, "results": len(results), "errors": errMsgs, "waves": s.grid.Waves()})
}

// Close shuts the stack down in odad's drain order.
func (s *Stack) Close() {
	_ = s.srv.Close()
	if s.router != nil {
		s.router.Stop()
		_ = s.clusterSrv.Close()
	}
	_ = s.durable.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx)
}

// statsPayload mirrors the /stats keys of odad that the benchmark reads.
func (s *Stack) statsPayload() map[string]any {
	st := s.store
	hits, misses := st.QueryCacheStats()
	gets, news := st.CursorPoolStats()
	rf := st.RefStats()
	ps := s.durable.Stats()
	rs := st.RollupStats()
	cs := s.qf.CacheStats()
	qs := s.qf.QuotaStats()
	rollup := map[string]any{
		"folds": rs.Folds, "seals": rs.Seals, "raw_plans": rs.RawPlans,
		"result_cache_hits": cs.Hits, "result_cache_misses": cs.Misses, "result_cache_evictions": cs.Evictions,
		"quota_rejected": qs.Rejected,
	}
	for _, ts := range rs.Tiers {
		rollup[fmt.Sprintf("tier_%dms_picks", ts.Step)] = ts.Picks
	}
	sched := s.grid.ScheduleStats()
	out := map[string]any{
		"series": st.NumSeries(), "samples": st.NumSamples(), "compressed_bytes": st.CompressedBytes(),
		"query_cache_hits": hits, "query_cache_misses": misses, "cursor_pool_gets": gets, "cursor_pool_news": news,
		"refs":    map[string]any{"resolves": rf.Resolves, "ref_samples": rf.RefSamples},
		"batches": s.srv.Batches(), "ingest_samples": s.srv.Samples(), "ingest_errors": s.srv.Errors(),
		"dict_defs": s.srv.DictDefs(), "ref_batches": s.srv.RefBatches(),
		"persist": map[string]any{"wal_records": ps.WALRecords, "wal_bytes": ps.WALBytes, "fsyncs": ps.Fsyncs,
			"coalesced_syncs": ps.CoalescedSyncs, "replayed_records": ps.ReplayedRecords},
		"rollup":    rollup,
		"scheduler": map[string]any{"sweeps": sched.Sweeps, "waves": sched.Waves},
	}
	if s.router != nil {
		out["cluster"] = s.router.Stats()
	}
	return out
}

// tracedStore is queryfront's single-store backend with spans around the
// planner and the planned execution; its two methods mirror the backend
// queryfront.ForStore builds.
type tracedStore struct {
	store *timeseries.Store
	tr    *Tracer
	pend  *pending
}

func (b *tracedStore) span(info *reqInfo, name string, start, end time.Time) {
	if info != nil {
		b.tr.Record(0, info.parent, info.req, name, info.class, start, end)
	}
}

func (b *tracedStore) Reduce(key string, from, to int64, fn timeseries.AggFunc) (float64, int, int64, bool, bool, error) {
	id, ok := b.store.IDForKey(key)
	if !ok {
		return 0, 0, 0, false, false, nil
	}
	info := b.pend.lookup(querySig(key, from, to, 0, fn))
	t0 := time.Now()
	plan := b.store.Plan(id, from, to, 0, fn)
	t1 := time.Now()
	v, n, err := b.store.ReducePlanned(id, from, to, fn)
	t2 := time.Now()
	b.span(info, "timeseries.plan", t0, t1)
	b.span(info, "timeseries.exec", t1, t2)
	if err != nil {
		return 0, 0, 0, false, false, err
	}
	return v, n, plan.TierStep, true, false, nil
}

func (b *tracedStore) AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, int64, bool, bool, error) {
	id, ok := b.store.IDForKey(key)
	if !ok {
		return nil, 0, false, false, nil
	}
	info := b.pend.lookup(querySig(key, from, to, step, fn))
	t0 := time.Now()
	plan := b.store.Plan(id, from, to, step, fn)
	t1 := time.Now()
	pts, err := b.store.AggregatePlanned(id, from, to, step, fn)
	t2 := time.Now()
	b.span(info, "timeseries.plan", t0, t1)
	b.span(info, "timeseries.exec", t1, t2)
	if err != nil {
		return nil, 0, false, false, err
	}
	return pts, plan.TierStep, true, false, nil
}

// tracedRouter wraps the cluster router's query path in a cluster.query
// span, attributed local or remote by the series' primary owner. It
// implements queryfront.PeerBackend, as the router does, so the front door
// takes the same path it takes in odad.
type tracedRouter struct {
	r    *cluster.Router
	tr   *Tracer
	pend *pending
}

func (b *tracedRouter) span(key string, from, to, step int64, fn timeseries.AggFunc, start time.Time) {
	info := b.pend.lookup(querySig(key, from, to, step, fn))
	if info == nil {
		return
	}
	where := "remote"
	if b.r.Ring().Primary(key) == b.r.Self() {
		where = "local"
	}
	b.tr.Record(0, info.parent, info.req, "cluster.query", where, start, time.Now())
}

func (b *tracedRouter) Reduce(key string, from, to int64, fn timeseries.AggFunc) (float64, int, int64, bool, bool, error) {
	defer b.span(key, from, to, 0, fn, time.Now())
	return b.r.Reduce(key, from, to, fn)
}

func (b *tracedRouter) AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, int64, bool, bool, error) {
	defer b.span(key, from, to, step, fn, time.Now())
	return b.r.AggregateRange(key, from, to, step, fn)
}

func (b *tracedRouter) ReducePeers(key string, from, to int64, fn timeseries.AggFunc) (float64, int, int64, bool, []string, error) {
	defer b.span(key, from, to, 0, fn, time.Now())
	return b.r.ReducePeers(key, from, to, fn)
}

func (b *tracedRouter) AggregateRangePeers(key string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, int64, bool, []string, error) {
	defer b.span(key, from, to, step, fn, time.Now())
	return b.r.AggregateRangePeers(key, from, to, step, fn)
}
