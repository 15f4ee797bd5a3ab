package main

// Correctness checks. Each compares the program's output with a
// computation made apart from the code under test, or with a property the
// method must have; check_test.go feeds each a deliberately broken input.

import (
	"fmt"
	"math"

	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/workload"
)

// certify requires the independent oracle to certify a routing result as
// connected and deadlock-free within the VC budget.
func certify(net *graph.Network, res *routing.Result, vcs int) error {
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: vcs}); err != nil {
		return fmt.Errorf("oracle refutes the routing: %w", err)
	}
	return nil
}

// installedRows is what the fleet check reads from a switch agent.
type installedRows interface {
	Installed() (uint64, bool)
	NextHop(sw graph.NodeID, col int) graph.ChannelID
}

// fleetMember is one agent and the switches it owns.
type fleetMember struct {
	rows  installedRows
	owned []graph.NodeID
}

// checkFleet requires every agent to have installed epoch and, for each
// switch it owns, exactly the published table's next hop toward every
// destination column.
func checkFleet(epoch uint64, table *routing.Table, fleet []fleetMember) error {
	dests := table.Dests()
	for i, m := range fleet {
		got, ok := m.rows.Installed()
		if !ok || got != epoch {
			return fmt.Errorf("agent %d installed epoch %d (ok=%v), want %d", i, got, ok, epoch)
		}
		for _, sw := range m.owned {
			for col, d := range dests {
				if have, want := m.rows.NextHop(sw, col), table.Next(sw, d); have != want {
					return fmt.Errorf("agent %d, switch %d, destination %d: installed next hop %d, published %d",
						i, sw, d, have, want)
				}
			}
		}
	}
	return nil
}

// expectedLinkBytes computes each channel's byte total from the routing
// result's own path walk (routing.Result.PathFor), apart from flowsim's
// walker: every flow's bytes on every channel of its path. Flows flowsim
// skips (src == dst, a disconnected endpoint) carry nothing.
func expectedLinkBytes(net *graph.Network, res *routing.Result, flows []workload.Flow) ([]float64, error) {
	load := make([]float64, net.NumChannels())
	paths := map[uint64][]graph.ChannelID{}
	for _, f := range flows {
		if f.Src == f.Dst || net.Degree(f.Src) == 0 || net.Degree(f.Dst) == 0 {
			continue
		}
		key := routing.PairKey(f.Src, f.Dst)
		p, ok := paths[key]
		if !ok {
			var err error
			if p, err = res.PathFor(f.Src, f.Dst); err != nil {
				return nil, fmt.Errorf("flow %d -> %d: %w", f.Src, f.Dst, err)
			}
			paths[key] = p
		}
		for _, c := range p {
			load[c] += float64(f.Bytes)
		}
	}
	return load, nil
}

// checkTraffic requires a fluid run to have finished every flow it did
// not skip, to have carried on each channel exactly the bytes of the
// flows whose path crosses it (up to float rounding), to have kept every
// channel's utilisation at or below 1, and to have taken at least as long
// as the heaviest channel needs at the given capacity.
func checkTraffic(r flowsim.Result, expected []float64, capacity float64) error {
	if r.FlowsFinished != r.FlowsTotal-r.FlowsSkipped || r.FlowsUnfinished != 0 || r.TimedOut {
		return fmt.Errorf("%d of %d flows finished (%d skipped, %d unfinished, timed out %v)",
			r.FlowsFinished, r.FlowsTotal, r.FlowsSkipped, r.FlowsUnfinished, r.TimedOut)
	}
	if len(r.LinkBytes) != len(expected) {
		return fmt.Errorf("%d channels carried bytes, want %d", len(r.LinkBytes), len(expected))
	}
	heaviest := 0.0
	for c, want := range expected {
		if got := r.LinkBytes[c]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("channel %d carried %.3f bytes, the flows crossing it hold %.0f", c, got, want)
		}
		heaviest = math.Max(heaviest, want)
	}
	const slack = 1 + 1e-9
	for c, u := range r.LinkUtil {
		if u > slack {
			return fmt.Errorf("channel %d utilisation %.6f exceeds 1", c, u)
		}
	}
	if r.Makespan*capacity*slack < heaviest {
		return fmt.Errorf("makespan %.3f ticks is shorter than the heaviest channel's %.0f bytes at capacity %g",
			r.Makespan, heaviest, capacity)
	}
	return nil
}
