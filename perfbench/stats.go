package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// Percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and ok=false when fewer than minTail samples lie beyond it — a
// percentile resting on fewer is noise, not a measurement.
func Percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], true
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count); 0 for none. It is for small sets of repeated
// measurements, where Percentile's tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Timed is one measurement and when it was taken.
type Timed struct {
	At time.Time
	V  float64
}

// values returns the measurements without their times.
func values(xs []Timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.V
	}
	return out
}

// sliceWidth is about how long a stretch of a phase one slice covers: the
// unit over which sliceRates reads a rate and SlicedPercentile a percentile.
const sliceWidth = time.Second

// slicing divides [start, end) into n equal slices of about sliceWidth.
func slicing(start, end time.Time) (n int, width time.Duration) {
	n = max(int(math.Round(float64(end.Sub(start))/float64(sliceWidth))), 1)
	return n, end.Sub(start) / time.Duration(n)
}

// sliceOf is the slice of n, each width wide from start, that t falls in;
// a moment outside [start, end) counts to the nearest slice.
func sliceOf(t, start time.Time, width time.Duration, n int) int {
	i := 0
	if width > 0 {
		i = int(t.Sub(start) / width)
	}
	return min(max(i, 0), n-1)
}

// SlicedPercentile is the median, over the slices of [start, end), of the
// q-percentile of the values taken in each slice (slicePercentiles); ok is
// false when no slice holds enough values. The host lends the benchmark
// its CPUs in bursts of a second or a few: a slow burst moves the slices
// it covers, and the median over slices only when it covers most of them.
func SlicedPercentile(xs []Timed, start, end time.Time, q float64) (float64, bool) {
	got := slicePercentiles(xs, start, end, q)
	if len(got) == 0 {
		return 0, false
	}
	return median(got), true
}

// slicePercentiles is the q-percentile of the values taken in each slice
// of [start, end), in slice order; slices holding too few values for
// Percentile are left out.
func slicePercentiles(xs []Timed, start, end time.Time, q float64) []float64 {
	n, width := slicing(start, end)
	per := make([][]float64, n)
	for _, x := range xs {
		i := sliceOf(x.At, start, width, n)
		per[i] = append(per[i], x.V)
	}
	var got []float64
	for _, vs := range per {
		if v, ok := Percentile(vs, q); ok {
			got = append(got, v)
		}
	}
	return got
}

// Recorder collects latencies (in ms) from concurrent goroutines, each
// with the moment it is charged to.
type Recorder struct {
	mu sync.Mutex
	xs []Timed
}

// Add records one latency, charged to the moment at.
func (r *Recorder) Add(at time.Time, d time.Duration) {
	r.mu.Lock()
	r.xs = append(r.xs, Timed{At: at, V: float64(d) / float64(time.Millisecond)})
	r.mu.Unlock()
}

// Timed returns a copy of the recorded latencies with their moments.
func (r *Recorder) Timed() []Timed {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Timed(nil), r.xs...)
}

// Values returns a copy of the recorded latencies.
func (r *Recorder) Values() []float64 { return values(r.Timed()) }

// sleepUntil blocks until t. The runtime's timers wake a sleeper up to a
// millisecond late (the poller waits in whole milliseconds), which would
// count as generator lateness in every open-loop latency; nanosleep(2)
// wakes within tens of microseconds. The blocked thread gives up its P,
// so other goroutines keep running.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// Arrival is one open-loop request: when it is due, relative to the start
// of the schedule, and what to send.
type Arrival struct {
	Due time.Duration
	Req int // index into the caller's request list
}

// OpenLoopResult is what RunOpenLoop measured for one request.
type OpenLoopResult struct {
	Req     int
	Worker  int           // which sender sent it
	Latency time.Duration // completion − due: includes any wait behind a stall
	Late    time.Duration // send − due: how far the generator ran behind
}

// RunOpenLoop sends arrivals on their schedule through workers concurrent
// senders (the connection budget). A request is due at start+Due whatever
// happened before it, and its latency is counted from that instant: when
// every sender is stuck behind a slow request, the requests queued behind
// it are charged the wait. send performs one request and returns when it
// completed (zero: when send returned).
func RunOpenLoop(start time.Time, arrivals []Arrival, workers int, send func(req int) (time.Time, error)) ([]OpenLoopResult, []error) {
	var (
		mu   sync.Mutex
		next int
		res  = make([]OpenLoopResult, len(arrivals))
		errs = make([]error, len(arrivals))
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.Due)
				sleepUntil(due)
				sent := time.Now()
				var done time.Time
				done, errs[i] = send(a.Req)
				if done.IsZero() {
					done = time.Now()
				}
				res[i] = OpenLoopResult{Req: a.Req, Worker: w, Latency: done.Sub(due), Late: sent.Sub(due)}
			}
		}(w)
	}
	wg.Wait()
	return res, errs
}
