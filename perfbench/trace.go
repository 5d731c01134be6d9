package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer's public function. Spans of one
// batch or query share Req; Parent links a span to the span that caused
// it (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewID reserves a span ID, so children can name their parent before the
// parent span ends.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span under a reserved id (0 reserves one).
func (t *Tracer) Record(id, parent int64, req, name, attr string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name, Attr: attr, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write dumps the spans as JSON.
func (t *Tracer) Write(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations returns the durations (µs) of the spans named name (and with
// attribute attr, when attr is not empty).
func durationsUs(spans []Span, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// SelfTimes computes each span's self time: its duration minus the part of
// its interval that its children cover (the union of their intervals,
// clipped to the parent). Spans whose parent was not recorded are treated
// as roots.
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals within [lo, hi).
func covered(lo, hi int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// Ledger attributes the blocking path of every request of one stream (an
// agent or a query sender) to layers, and checks that it reconciles with
// the wall time of the phase it ran in.
type Ledger struct {
	Stream   string             `json:"stream"`
	WallMs   float64            `json:"wall_ms"`
	Layers   map[string]float64 `json:"self_ms"` // layer → self time (ms)
	SumMs    float64            `json:"sum_ms"`
	ErrorPct float64            `json:"error_pct"`
}

// layerOf maps a span name ("persist.append") to its layer ("persist").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// BuildLedger sums, per layer, the self time along the blocking path of
// the stream's requests (roots named rootName whose Attr is the stream,
// within the phase; see blockingTree), plus the idle time between
// consecutive requests, charged to "harness.idle". For a closed loop the
// idle share is the harness's own loop overhead; for an open loop it is
// the schedule's slack. The sum must equal the phase's wall time: a gap
// means a blocking step no span covers, an excess means spans that overlap
// on what should be one blocking path.
func BuildLedger(spans []Span, stream, rootName string, phaseStart, phaseEnd int64) Ledger {
	var roots []Span
	for _, s := range spans {
		if s.Name == rootName && s.Attr == stream && s.Start >= phaseStart && s.End <= phaseEnd {
			roots = append(roots, s)
		}
	}
	want := make(map[string]bool, len(roots))
	for _, r := range roots {
		want[r.Req] = true
	}
	var group []Span
	for _, s := range spans {
		if want[s.Req] && !(s.Name == rootName && s.Attr == stream) {
			group = append(group, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	l := Ledger{Stream: stream, WallMs: float64(phaseEnd-phaseStart) / 1e6, Layers: map[string]float64{}}
	prev := phaseStart
	for i := range roots {
		r := &roots[i]
		if r.Start > prev {
			l.Layers["harness.idle"] += float64(r.Start-prev) / 1e6
		}
		// An open-loop request that waited behind its predecessor on the
		// same sender is charged from when the sender was free, so waits
		// are not counted twice.
		r.Start = max(r.Start, prev)
		prev = max(prev, r.End)
	}
	if phaseEnd > prev {
		l.Layers["harness.idle"] += float64(phaseEnd-prev) / 1e6
	}
	tree := blockingTree(roots, group)
	self := SelfTimes(tree)
	for _, s := range tree {
		l.Layers[layerOf(s.Name)] += float64(self[s.ID]) / 1e6
	}
	for _, v := range l.Layers {
		l.SumMs += v
	}
	if l.WallMs > 0 {
		l.ErrorPct = 100 * (l.SumMs - l.WallMs) / l.WallMs
	}
	return l
}

// waitSpans name the client spans during which a stream waits for the
// server: the ping after a batch, and a query's HTTP round trip.
var waitSpans = map[string]bool{"wire.ping": true, "http.roundtrip": true}

// blockingTree arranges one stream's spans on its blocking path: the
// stream's sequential roots and their spans, and the spans recorded on
// the server side — which cannot know the client's span IDs — each under
// the client wait (waitSpans), among all of the stream's requests, that it
// overlaps most. A batch's server work can happen during a later
// request's wait, when batches stream ahead of a ping. Server spans that
// overlap no wait ran beside the stream's blocking path, not on it, and
// are left out; every other span is clipped to its parent, so the self
// times of a root's tree add up to the root's duration.
func blockingTree(roots, spans []Span) []Span {
	known := make(map[int64]bool, len(roots)+len(spans))
	for _, s := range roots {
		known[s.ID] = true
	}
	for _, s := range spans {
		known[s.ID] = true
	}
	var waits []Span
	for _, s := range spans {
		if waitSpans[s.Name] && known[s.Parent] {
			waits = append(waits, s)
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].Start < waits[j].Start })
	// best is the wait that s overlaps most (waits follow one another, so
	// the candidates are a window of the sorted list); 0 for none.
	best := func(s Span) int64 {
		var id, most int64
		i := sort.Search(len(waits), func(i int) bool { return waits[i].End > s.Start })
		for ; i < len(waits) && waits[i].Start < s.End; i++ {
			if ov := min(waits[i].End, s.End) - max(waits[i].Start, s.Start); ov > most {
				id, most = waits[i].ID, ov
			}
		}
		return id
	}
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent == 0 || !known[s.Parent] {
			if s.Parent = best(s); s.Parent == 0 {
				continue
			}
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := append([]Span(nil), roots...)
	for q := 0; q < len(out); q++ {
		p := out[q]
		for _, c := range children[p.ID] {
			c.Start, c.End = max(c.Start, p.Start), min(c.End, p.End)
			if c.End > c.Start {
				out = append(out, c)
			}
		}
	}
	return out
}
