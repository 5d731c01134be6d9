package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// The cluster leg: a seeded three-node cluster (RF=2, WAL-backed) driven on
// virtual ticks through one coordinator, with one non-coordinator peer
// killed mid-campaign — its transport torn down, dials refused, live
// connections severed — and later revived under the same identity. The leg
// holds the cluster to the invariants that make a distributed TSDB
// trustworthy under failure:
//
//	conservation   every emitted sample lands on exactly its primary once
//	               the cluster heals — hinted handoff may delay delivery,
//	               never lose or duplicate it;
//	handoff        hint queues fully drain after the heal (and the kill
//	               window actually exercised them — coverage, not luck);
//	degraded reads a query for the dead peer's series answers from a
//	               follower's replica, is MARKED partial, and is still
//	               bit-exact for fully-replicated history;
//	convergence    after a settle-and-pump every replica reports lag 0 and
//	               matches its leader sample for sample;
//	parity         after the heal, every planner function answers
//	               bit-identically (math.Float64bits) to a single store fed
//	               the same samples, with no partial markers.
//
// Everything is deterministic from cfg.Seed: dyadic values, fixed tick
// grid, seeded kill/heal window and victim choice — a failing campaign
// replays exactly from its repro string.

// clusterNode is one member of the leg's cluster.
type clusterNode struct {
	id      string
	durable *persist.DurableStore
	router  *cluster.Router
	srv     *cluster.Server
}

// runClusterLeg executes the leg and returns its invariant failures plus a
// fingerprint over the seed-determined end state.
func runClusterLeg(cfg Config, dir string, res *Result) (failures, string) {
	var f failures
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0DA7C125))

	ids := []string{"c1", "c2", "c3"}
	const coordinator = "c1"
	victim := ids[1+rng.Intn(2)] // never the coordinator

	// Per-node transports behind one address-keyed dialer. Killing a node
	// replaces its transport wholesale, so a revival is a genuine restart:
	// fresh listener, severed old connections, same identity.
	var netMu sync.Mutex
	nets := make(map[string]*NetFaults, len(ids))
	for _, id := range ids {
		nets[id] = NewNetFaults()
	}
	dial := func(addr string) (net.Conn, error) {
		netMu.Lock()
		nf := nets[addr]
		netMu.Unlock()
		if nf == nil {
			return nil, fmt.Errorf("chaos: no cluster transport for %s", addr)
		}
		return nf.Dialer()(addr)
	}

	peers := make([]cluster.Peer, len(ids))
	for i, id := range ids {
		peers[i] = cluster.Peer{ID: id, Addr: id}
	}
	nodes := make(map[string]*clusterNode, len(ids))
	for _, id := range ids {
		d, err := persist.Open(filepath.Join(dir, "cluster-"+id), persist.Options{
			ChunkSize: 8,
			Fsync:     persist.FsyncAlways,
		})
		if err != nil {
			f.addf("open durable store for %s: %v", id, err)
			return f, ""
		}
		r, err := cluster.New(cluster.Config{
			Self:        id,
			Peers:       peers,
			Replication: 2,
			Dial:        dial,
			Local:       d,
			Store:       d.Store(),
			Durable:     d,
		})
		if err != nil {
			f.addf("build router for %s: %v", id, err)
			return f, ""
		}
		nodes[id] = &clusterNode{
			id:      id,
			durable: d,
			router:  r,
			srv:     cluster.NewServer(nets[id].Listener(), r),
		}
	}
	defer func() {
		for _, n := range nodes {
			n.router.Stop()
			n.srv.Close()
			_ = n.durable.Close()
		}
		netMu.Lock()
		for _, nf := range nets {
			nf.Close()
		}
		netMu.Unlock()
	}()

	// The series set: enough keys that every node owns some, and at least
	// one key is guaranteed to belong to the victim (the handoff coverage
	// guarantee depends on it).
	ring := nodes[coordinator].router.Ring()
	var seriesIDs []metric.ID
	owned := map[string]int{}
	for i := 0; len(seriesIDs) < 12 || owned[victim] == 0; i++ {
		if i > 10000 {
			f.addf("could not find a victim-owned series in 10000 candidates")
			return f, ""
		}
		id := metric.ID{Name: fmt.Sprintf("chaos.cluster.%03d", i)}
		seriesIDs = append(seriesIDs, id)
		owned[ring.Primary(id.Key())]++
	}
	keys := make([]string, len(seriesIDs))
	for i, id := range seriesIDs {
		keys[i] = id.Key()
	}
	var victimKey string
	for _, k := range keys {
		if ring.Primary(k) == victim {
			victimKey = k
			break
		}
	}

	// Reference: one plain store fed the identical sample stream.
	ref := timeseries.NewStore(8)

	// settle pushes buffered forwards out and runs one failure-detector
	// round; the ping doubles as an application barrier on live links.
	settle := func() {
		for _, id := range ids {
			nodes[id].router.Flush()
		}
		for _, id := range ids {
			nodes[id].router.CheckPeers()
		}
	}
	pumpAll := func() {
		for _, id := range ids {
			nodes[id].router.PumpReplication()
		}
	}

	const ticks = 36
	killAt := 8 + rng.Intn(6)          // 8..13
	healAt := killAt + 6 + rng.Intn(6) // killAt+6 .. killAt+11
	probeAt := killAt + 2              // degraded read inside the window
	coord := nodes[coordinator].router

	emitted := 0
	for t := 0; t < ticks; t++ {
		if t == killAt {
			// Converge replication first: the degraded-read invariant is
			// about fully replicated history, so pin the replicas to the
			// pre-kill state, then tear the victim down.
			settle()
			pumpAll()
			netMu.Lock()
			nets[victim].Close()
			netMu.Unlock()
			nodes[victim].srv.Close()
		}
		if t == healAt {
			netMu.Lock()
			nets[victim] = NewNetFaults()
			nodes[victim].srv = cluster.NewServer(nets[victim].Listener(), nodes[victim].router)
			netMu.Unlock()
		}
		if t == probeAt && victimKey != "" {
			// Mid-outage read of the dead peer's series, over the window
			// replication had fully shipped: answered by a follower's
			// replica, marked partial, bit-exact.
			to := int64(killAt)*1000 + 1
			wantV, wantN, refErr := reduceRef(ref, victimKey, 1, to)
			gotV, gotN, _, found, partial, err := coord.Reduce(victimKey, 1, to, timeseries.AggSum)
			switch {
			case refErr != nil || err != nil:
				f.addf("degraded read: ref err %v, cluster err %v", refErr, err)
			case !found || !partial:
				f.addf("degraded read: found=%v partial=%v, want a partial-marked hit", found, partial)
			case math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN:
				f.addf("degraded read: (%v,%d) vs replicated history (%v,%d)", gotV, gotN, wantV, wantN)
			}
		}

		// One sample per series per tick: dyadic values, fixed grid.
		entries := make([]timeseries.BatchEntry, len(seriesIDs))
		for i, id := range seriesIDs {
			entries[i] = timeseries.BatchEntry{
				ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
				T: int64(t+1) * 1000, V: float64(rng.Intn(1<<20)) / 1024,
			}
		}
		if _, err := ref.AppendBatch(entries); err != nil {
			f.addf("reference append at tick %d: %v", t, err)
			return f, ""
		}
		n, err := coord.AppendBatch(entries)
		if err != nil {
			f.addf("cluster append at tick %d: %v", t, err)
			return f, ""
		}
		emitted += n
		coord.Flush()
		coord.CheckPeers() // failure-detector cadence = one probe per tick
	}

	// Quiesce: drain handoff (second probe is the application barrier on
	// the revived link), then converge replication.
	settle()
	settle()
	pumpAll()

	// --- invariants ---------------------------------------------------------

	cst := coord.Stats()
	res.ClusterEmitted = uint64(emitted)
	res.ClusterForwardedEntries = cst.ForwardedEntries
	res.ClusterPartialQueries = cst.PartialQueries
	for _, ps := range cst.Peers {
		res.ClusterHintedBatches += ps.HintedBatches
		res.ClusterDrainedBatches += ps.DrainedBatches
	}

	if emitted != ticks*len(seriesIDs) {
		f.addf("coordinator accepted %d of %d emitted samples", emitted, ticks*len(seriesIDs))
	}
	// Coverage: the kill window must actually have parked and drained hints,
	// and the degraded read must have gone through the partial path.
	if res.ClusterHintedBatches == 0 || res.ClusterDrainedBatches == 0 {
		f.addf("kill window exercised no hinted handoff (hinted %d, drained %d)",
			res.ClusterHintedBatches, res.ClusterDrainedBatches)
	}
	if res.ClusterPartialQueries == 0 {
		f.addf("degraded read never took the replica-fallback path")
	}
	if pending := coord.PendingHints(); pending != 0 {
		f.addf("%d hinted batches still parked after heal and settle", pending)
	}
	if dropped := coord.DroppedHintEntries(); dropped != 0 {
		f.addf("%d entries dropped from hint queues (queue bound never approached)", dropped)
	}

	// Conservation: each sample on exactly its primary, nothing lost or
	// duplicated across the kill.
	total := 0
	for _, id := range ids {
		total += nodes[id].durable.Store().NumSamples()
	}
	if total != emitted {
		f.addf("conservation: primaries hold %d samples, %d emitted", total, emitted)
	}
	for _, k := range keys {
		owner := ring.Primary(k)
		st := nodes[owner].durable.Store()
		oid, ok := st.IDForKey(k)
		if !ok {
			f.addf("conservation: owner %s never saw %q", owner, k)
			continue
		}
		rid, _ := ref.IDForKey(k)
		_, wantN, _ := ref.ReducePlanned(rid, 0, 1<<62, timeseries.AggCount)
		_, gotN, _ := st.ReducePlanned(oid, 0, 1<<62, timeseries.AggCount)
		if gotN != wantN {
			f.addf("conservation: %q has %d samples on %s, want %d", k, gotN, owner, wantN)
		}
	}

	// Convergence: every replica caught up and sample-identical.
	for _, id := range ids {
		n := nodes[id]
		for _, leader := range ring.Leaders(id) {
			if lag := n.router.ReplicationLag(leader); lag != 0 {
				f.addf("convergence: %s lags %s by %d bytes", id, leader, lag)
				continue
			}
			rep, ok := n.router.ReplicaOf(leader)
			if !ok {
				f.addf("convergence: %s holds no replica of %s", id, leader)
				continue
			}
			lst := nodes[leader].durable.Store()
			if rep.NumSamples() != lst.NumSamples() || rep.NumSeries() != lst.NumSeries() {
				f.addf("convergence: replica of %s on %s has %d/%d samples/series, leader %d/%d",
					leader, id, rep.NumSamples(), rep.NumSeries(), lst.NumSamples(), lst.NumSeries())
			}
		}
	}

	// Post-heal parity: exact answers, no partial markers, bit-identical to
	// the reference for every planner function.
	from, to := int64(0), int64(ticks+2)*1000
	for _, fn := range []timeseries.AggFunc{
		timeseries.AggMean, timeseries.AggSum, timeseries.AggMin,
		timeseries.AggMax, timeseries.AggCount, timeseries.AggRate,
		timeseries.AggStd, timeseries.AggP95,
	} {
		for _, k := range keys {
			rid, _ := ref.IDForKey(k)
			wantV, wantN, refErr := ref.ReducePlanned(rid, from, to, fn)
			gotV, gotN, _, found, partial, err := coord.Reduce(k, from, to, fn)
			if (refErr == nil) != (err == nil) {
				f.addf("parity: %s(%q) ref err %v vs cluster err %v", fn, k, refErr, err)
				continue
			}
			if refErr != nil {
				continue
			}
			if !found || partial {
				f.addf("parity: %s(%q) found=%v partial=%v after heal", fn, k, found, partial)
				continue
			}
			if math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN {
				f.addf("parity: %s(%q) = (%v,%d), single-store = (%v,%d)", fn, k, gotV, gotN, wantV, wantN)
			}
		}
	}
	for _, fn := range []timeseries.AggFunc{timeseries.AggMean, timeseries.AggSum, timeseries.AggCount} {
		wantV, wantN, err1 := cluster.MergedReduce(ref, keys, from, to, fn)
		gotV, gotN, partialPeers, err2 := coord.ReduceMany(keys, from, to, fn)
		if err1 != nil || err2 != nil || len(partialPeers) != 0 {
			f.addf("parity: ReduceMany(%s) errs %v/%v partialPeers %v", fn, err1, err2, partialPeers)
			continue
		}
		if math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN {
			f.addf("parity: ReduceMany(%s) = (%v,%d), oracle = (%v,%d)", fn, gotV, gotN, wantV, wantN)
		}
	}

	// Fingerprint over the seed-determined end state: placement, per-node
	// content, and the handoff ledger.
	h := fnv.New64a()
	fmt.Fprintf(h, "victim=%s|killAt=%d|healAt=%d|emitted=%d", victim, killAt, healAt, emitted)
	for _, id := range ids {
		fmt.Fprintf(h, "|%s=%+v", id, nodes[id].durable.Store().Dump())
	}
	return f, fmt.Sprintf("%016x", h.Sum64())
}

// reduceRef is ref.ReducePlanned(AggSum) by key.
func reduceRef(ref *timeseries.Store, key string, from, to int64) (float64, int, error) {
	id, ok := ref.IDForKey(key)
	if !ok {
		return 0, 0, fmt.Errorf("reference store missing %q", key)
	}
	return ref.ReducePlanned(id, from, to, timeseries.AggSum)
}
