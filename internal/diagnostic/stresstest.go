package diagnostic

import (
	"fmt"
	"sort"

	"repro/internal/oda"
	"repro/internal/simulation"
)

// StressTest is the paper's active-probing diagnostic (Bortot et al.): it
// deliberately loads a few idle nodes for a short interval and verifies
// the cooling plant responds — rising node temperatures must be met by
// rising cooling power. A plant that fails to respond is flagged before a
// real workload burst finds out the hard way.
//
// Unlike passive capabilities, Run advances the live system's clock by the
// probe duration; it restores node state afterwards.
type StressTest struct {
	// ProbeNodes is how many idle nodes to load (default 2).
	ProbeNodes int
	// DurationS is the probe length in virtual seconds (default 600).
	DurationS float64
}

// Meta implements oda.Capability.
func (StressTest) Meta() oda.Meta {
	return oda.Meta{
		Name:        "stress-test",
		Description: "active load probe verifying cooling-plant responsiveness",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Diagnostic)},
		Refs:        []string{"[39]"},
		// The probe injects load and advances the whole simulation clock
		// (dc.RunFor), so it owns the entire system for its run.
		Writes: []oda.Resource{oda.ResWildcard},
	}
}

// Run implements oda.Capability.
func (c StressTest) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	want := c.ProbeNodes
	if want <= 0 {
		want = 2
	}
	duration := c.DurationS
	if duration <= 0 {
		duration = 600
	}
	// Select idle, healthy nodes (highest indices first: least likely to
	// be grabbed by the compact-packing scheduler mid-probe).
	var idle []int
	for idx := len(dc.Nodes) - 1; idx >= 0 && len(idle) < want; idx-- {
		n := dc.Nodes[idx]
		if !n.Failed() && n.LoadState().Utilization == 0 {
			idle = append(idle, idx)
		}
	}
	if len(idle) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no idle nodes available for a stress probe")
	}
	sort.Ints(idle)

	coolingBefore := dc.Facility.State().CoolingPower
	tempBefore := make(map[int]float64, len(idle))
	fanBefore := make(map[int]float64, len(idle))
	for _, idx := range idle {
		tempBefore[idx] = dc.Nodes[idx].Temperature()
		fanBefore[idx] = dc.Nodes[idx].FanSpeed()
		if err := dc.InjectAnomaly(idx, "power"); err != nil {
			return oda.Result{}, err
		}
	}
	dc.RunFor(duration)
	coolingAfter := dc.Facility.State().CoolingPower
	var tempRise float64
	for _, idx := range idle {
		if r := dc.Nodes[idx].Temperature() - tempBefore[idx]; r > tempRise {
			tempRise = r
		}
	}
	// Restore the probed nodes.
	for _, idx := range idle {
		dc.ClearAnomaly(idx)
		dc.Nodes[idx].SetFanSpeed(fanBefore[idx])
	}

	coolingDelta := coolingAfter - coolingBefore
	responsive := coolingDelta > 0 && tempRise > 1
	verdict := "plant responsive"
	if !responsive {
		verdict = "PLANT UNRESPONSIVE — investigate before peak load"
	}
	respVal := 0.0
	if responsive {
		respVal = 1
	}
	return oda.Result{
		Summary: fmt.Sprintf("probed %d nodes for %.0fs: max temp rise %.1fC, cooling power %+.0fW — %s",
			len(idle), duration, tempRise, coolingDelta, verdict),
		Values: map[string]float64{
			"probed_nodes":    float64(len(idle)),
			"temp_rise_c":     tempRise,
			"cooling_delta_w": coolingDelta,
			"responsive":      respVal,
		},
	}, nil
}
