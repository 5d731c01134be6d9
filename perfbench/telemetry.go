package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collector"
	"repro/internal/facility"
	"repro/internal/hardware"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// series is one telemetry stream of the simulated fleet.
type series struct {
	ID   metric.ID
	Kind metric.Kind
	Unit metric.Unit
}

// source is one collector.Source of the fleet: a contiguous run of series
// (a node's 7 sensors, the facility's 9, the scheduler's 4).
type source struct {
	name   string
	lo, hi int
}

// Fleet is the benchmark's telemetry, generated from the workload seed
// before any timing starts. It has the series names, kinds, units and
// noise model of hardware.Node.Source, facility.Facility.Source and the
// simulator's scheduler source; Values holds Ticks rows of one value per
// series, which the agents replay (cyclically when a run outlasts them).
type Fleet struct {
	Series  []series
	Sources []source
	Ticks   int
	Values  []float64 // Ticks × len(Series), row-major
	Start   int64     // virtual Unix ms of tick 0
	StepMs  int64     // virtual ms between ticks
}

// benchEpoch is the virtual time of the first generated tick (2021-01-01).
const benchEpoch int64 = 1609459200000

// NewFleet simulates nodes compute nodes plus the facility plant and the
// batch scheduler for ticks collection rounds stepMs apart. Every
// generator draws from its own rand.New seeded from seed, so the same seed
// always yields the same stream.
func NewFleet(seed int64, nodes, ticks int, stepMs int64) *Fleet {
	f := &Fleet{Ticks: ticks, Start: benchEpoch, StepMs: stepMs}
	root := rand.New(rand.NewSource(seed))
	hw := make([]*hardware.Node, nodes)
	var srcs []collector.Source
	for i := range hw {
		cfg := hardware.DefaultNodeConfig(fmt.Sprintf("n%04d", i), fmt.Sprintf("r%02d", i/32))
		hw[i] = hardware.NewNode(cfg, root.Int63())
		srcs = append(srcs, hw[i].Source())
	}
	fac := facility.New(facility.DefaultConfig(float64(nodes)*400), root.Int63())
	srcs = append(srcs, fac.Source())
	sched := newSchedModel(nodes, root.Int63())
	srcs = append(srcs, sched.source())
	load := rand.New(rand.NewSource(root.Int63()))
	util := make([]float64, nodes)
	for i := range util {
		util[i] = load.Float64()
	}

	per := nodes*7 + 9 + 4
	f.Values = make([]float64, 0, ticks*per)
	dt := float64(stepMs) / 1000
	for t := 0; t < ticks; t++ {
		now := f.Start + int64(t)*stepMs
		inlet := fac.State().SupplyTemp
		if inlet == 0 {
			inlet = 22
		}
		it := 0.0
		for i, n := range hw {
			// Job load drifts as a bounded random walk, as nodes pick up
			// and finish work under a batch scheduler.
			util[i] = math.Max(0, math.Min(1, util[i]+load.NormFloat64()*0.05))
			n.SetLoad(hardware.Load{Utilization: util[i], ComputeFrac: 0.6, MemoryFrac: 0.3, IOFrac: 0.1, NetworkSlowdown: 1})
			it += n.Step(dt, inlet)
		}
		fac.Step(dt, now, it)
		sched.step(util)
		for _, src := range srcs {
			rs := src.Collect(now)
			if t == 0 {
				lo := len(f.Series)
				for _, r := range rs {
					f.Series = append(f.Series, series{ID: r.ID, Kind: r.Kind, Unit: r.Unit})
				}
				f.Sources = append(f.Sources, source{name: src.Name(), lo: lo, hi: len(f.Series)})
			}
			for _, r := range rs {
				f.Values = append(f.Values, r.Value)
			}
		}
	}
	return f
}

// tickOf maps a virtual timestamp to its tick number.
func (f *Fleet) tickOf(now int64) int64 { return (now - f.Start) / f.StepMs }

// Value is series i's value at tick number tick (cycling through the
// generated rows).
func (f *Fleet) Value(tick int64, i int) float64 {
	return f.Values[int(tick%int64(f.Ticks))*len(f.Series)+i]
}

// TimeOf is the virtual timestamp of tick number tick.
func (f *Fleet) TimeOf(tick int64) int64 { return f.Start + tick*f.StepMs }

// replay is a collector.Source that serves one fleet source's generated
// readings: the same IDs, kinds and units the simulator's source reports,
// with the value of the tick the collection time falls on.
func (f *Fleet) replay(s source) collector.Source {
	return collector.SourceFunc{
		SourceName: s.name,
		Fn: func(now int64) []collector.Reading {
			tick := f.tickOf(now)
			out := make([]collector.Reading, s.hi-s.lo)
			for i := range out {
				sr := &f.Series[s.lo+i]
				out[i] = collector.Reading{ID: sr.ID, Kind: sr.Kind, Unit: sr.Unit, Value: f.Value(tick, s.lo+i)}
			}
			return out
		},
	}
}

// AgentSources splits the fleet between agents agents: each takes a
// contiguous share of the nodes; the facility goes to the first agent and
// the scheduler to the last, as on a real site where the plant and the
// batch system have their own collectors.
func (f *Fleet) AgentSources(agents int) [][]int {
	nodes := len(f.Sources) - 2
	out := make([][]int, agents)
	for a := 0; a < agents; a++ {
		for i := a * nodes / agents; i < (a+1)*nodes/agents; i++ {
			out[a] = append(out[a], i)
		}
	}
	out[0] = append(out[0], nodes)
	out[agents-1] = append(out[agents-1], nodes+1)
	return out
}

// SeriesOf lists the series indices an agent's sources cover.
func (f *Fleet) SeriesOf(srcs []int) []int {
	var out []int
	for _, k := range srcs {
		for i := f.Sources[k].lo; i < f.Sources[k].hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Hash fingerprints the generated stream: every series' identity and
// every value's bits, in order.
func (f *Fleet) Hash() [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, s := range f.Series {
		h.Write([]byte(s.ID.Key()))
		h.Write([]byte{byte(s.Kind)})
		h.Write([]byte(s.Unit))
	}
	for _, v := range f.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Entries returns series i's samples for ticks [from, to) as batch entries
// — what a reference store is fed to recompute query answers.
func (f *Fleet) Entries(i int, from, to int64) []timeseries.BatchEntry {
	s := &f.Series[i]
	out := make([]timeseries.BatchEntry, 0, to-from)
	for t := from; t < to; t++ {
		out = append(out, timeseries.BatchEntry{ID: s.ID, Kind: s.Kind, Unit: s.Unit, T: f.TimeOf(t), V: f.Value(t, i)})
	}
	return out
}

// schedModel is a small seeded batch-queue model with the simulator's
// scheduler source shape (queue length, running jobs, utilization, and a
// finished-jobs counter).
type schedModel struct {
	nodes    int
	rng      *rand.Rand
	queued   float64
	running  float64
	util     float64
	finished float64
}

func newSchedModel(nodes int, seed int64) *schedModel {
	return &schedModel{nodes: nodes, rng: rand.New(rand.NewSource(seed))}
}

func (s *schedModel) step(util []float64) {
	sum := 0.0
	for _, u := range util {
		sum += u
	}
	s.util = sum / float64(len(util))
	s.running = math.Round(s.util * float64(s.nodes) / 4)
	s.queued = math.Max(0, s.queued+math.Round(s.rng.NormFloat64()*2))
	s.finished += math.Floor(s.rng.Float64() * 3)
}

func (s *schedModel) source() collector.Source {
	labels := metric.NewLabels("site", "vdc")
	return collector.SourceFunc{
		SourceName: "scheduler",
		Fn: func(int64) []collector.Reading {
			return []collector.Reading{
				{ID: metric.ID{Name: "sched_queue_length", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitCount, Value: s.queued},
				{ID: metric.ID{Name: "sched_running_jobs", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitCount, Value: s.running},
				{ID: metric.ID{Name: "sched_utilization", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitPercent, Value: s.util * 100},
				{ID: metric.ID{Name: "sched_finished_jobs", Labels: labels}, Kind: metric.Counter, Unit: metric.UnitCount, Value: s.finished},
			}
		},
	}
}
