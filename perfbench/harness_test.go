package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the helper must sort
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
		v  float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	} {
		v, ok := Percentile(xs(c.n), c.q)
		if ok != c.ok || v != c.v {
			t.Errorf("Percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.v, c.ok)
		}
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 120 * time.Millisecond
	var arr []Arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, Arrival{Due: time.Duration(i) * gap, Req: i})
	}
	start := time.Now().Add(20 * time.Millisecond)
	res, errs := RunOpenLoop(start, arr, 1, func(req int) (time.Time, error) {
		if req == 0 {
			time.Sleep(stall)
		}
		return time.Time{}, nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Requests due while the single sender was stuck are charged the wait
	// from their due time, not from when they could finally be sent.
	for i := 1; i*int(gap) < int(stall); i++ {
		want := stall - time.Duration(i)*gap
		if res[i].Latency < want || res[i].Late < want {
			t.Errorf("request %d: latency %v, late %v; want both >= %v", i, res[i].Latency, res[i].Late, want)
		}
	}
	if last := res[len(res)-1]; last.Late > stall {
		t.Errorf("the backlog did not drain: last request %v late", last.Late)
	}
}

func TestSameSeedSameStreamAndSchedule(t *testing.T) {
	hash := func(seed int64) [2][32]byte {
		f := NewFleet(seed, 8, dashPreload+64, dashStepMs)
		arr, reqs := dashSchedule(f, seed, 2)
		h := sha256.New()
		for _, a := range arr {
			fmt.Fprintf(h, "%d %+v\n", a.Due, reqs[a.Req])
		}
		var sched [32]byte
		copy(sched[:], h.Sum(nil))
		return [2][32]byte{f.Hash(), sched}
	}
	a, b, c := hash(7), hash(7), hash(8)
	if a != b {
		t.Fatal("the same seed gave a different telemetry stream or query schedule")
	}
	if a[0] == c[0] || a[1] == c[1] {
		t.Fatal("different seeds gave the same telemetry stream or query schedule")
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 25},
	}
	self := SelfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSlicedPercentileShrugsOffABurst(t *testing.T) {
	start := time.Unix(1000, 0)
	end := start.Add(10 * time.Second)
	var xs []Timed
	for i := 0; i < 1000; i++ {
		at := start.Add(time.Duration(i) * 10 * time.Millisecond)
		v := 1.0
		if i >= 300 && i < 500 { // a two-second slow burst
			v = 5
		}
		xs = append(xs, Timed{At: at, V: v})
	}
	if v, ok := SlicedPercentile(xs, start, end, 0.5); !ok || v != 1 {
		t.Errorf("SlicedPercentile = %v, %v; want 1, true", v, ok)
	}
	if v, ok := Percentile(values(xs), 0.5); !ok || v != 1 {
		t.Errorf("pooled median = %v, %v; want 1, true", v, ok)
	}
	// Fifteen values in the first slice are too few for a median with ten
	// beyond it, and the other slices are empty.
	if _, ok := SlicedPercentile(xs[:15], start, end, 0.5); ok {
		t.Error("SlicedPercentile reported a median with no slice holding enough samples")
	}
}

func TestLedgerChargesStreamedBatchesToTheLaterWait(t *testing.T) {
	// Tick a streams its batch without a ping; tick b pings. odad handles
	// batch a partly while the agent collects tick b (beside the blocking
	// path) and partly during b's ping (on it).
	spans := []Span{
		{ID: 1, Req: "a", Name: "harness.tick", Attr: "agent0", Start: 0, End: 10},
		{ID: 2, Parent: 1, Req: "a", Name: "collector.tick", Start: 0, End: 10},
		{ID: 3, Req: "b", Name: "harness.tick", Attr: "agent0", Start: 10, End: 40},
		{ID: 4, Parent: 3, Req: "b", Name: "collector.tick", Start: 10, End: 20},
		{ID: 5, Parent: 3, Req: "b", Name: "wire.ping", Start: 20, End: 40},
		{ID: 6, Req: "a", Name: "odad.handle", Start: 12, End: 25},
		{ID: 7, Parent: 6, Req: "a", Name: "persist.append", Start: 13, End: 24},
		{ID: 8, Req: "b", Name: "odad.handle", Start: 25, End: 38},
		{ID: 9, Parent: 8, Req: "b", Name: "persist.append", Start: 26, End: 37},
	}
	l := BuildLedger(spans, "agent0", "harness.tick", 0, 40)
	want := map[string]float64{"collector": 20e-6, "wire": 2e-6, "odad": 3e-6, "persist": 15e-6, "harness": 0}
	for k, v := range want {
		if math.Abs(l.Layers[k]-v) > 1e-12 {
			t.Errorf("layer %s: %v ms, want %v ms", k, l.Layers[k], v)
		}
	}
	if math.Abs(l.ErrorPct) > 1e-9 {
		t.Errorf("ledger strays %v%% from wall time, want 0", l.ErrorPct)
	}
}
