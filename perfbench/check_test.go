package main

// Negative controls: every correctness check of the benchmark must reject
// a deliberately broken input, and accept the unbroken one.
//
//	cd perfbench && go test ./...

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/distrib/agent"
	"repro/internal/fabric"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

func nueRoute(t *testing.T, net *graph.Network, vcs int) *routing.Result {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 1
	res, err := core.New(opts).Route(net, net.Terminals(), vcs)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	return res
}

// TestCertifyRefutesSwappedEntry swaps single table entries of a
// one-lane Nue routing until one closes a dependency cycle; the oracle
// check must refute that table with a cycle witness.
func TestCertifyRefutesSwappedEntry(t *testing.T) {
	net := topology.Torus3D(4, 4, 1, 1, 1).Net
	res := nueRoute(t, net, 1)
	if err := certify(net, res, 1); err != nil {
		t.Fatalf("unbroken routing refuted: %v", err)
	}
	for _, sw := range net.Switches() {
		for _, d := range res.Table.Dests() {
			cur := res.Table.Next(sw, d)
			if cur == graph.NoChannel {
				continue
			}
			for _, alt := range net.Out(sw) {
				if alt == cur || net.IsTerminal(net.Channel(alt).To) {
					continue
				}
				res.Table.Set(sw, d, alt)
				err := certify(net, res, 1)
				res.Table.Set(sw, d, cur)
				var cyc *oracle.CycleError
				if errors.As(err, &cyc) {
					if err := certify(net, res, 1); err != nil {
						t.Fatalf("restored routing refuted: %v", err)
					}
					return
				}
			}
		}
	}
	t.Fatal("no single swapped entry was refuted with a dependency cycle")
}

// alteredRows reports one entry of an agent's installed rows wrongly.
type alteredRows struct {
	installedRows
	sw  graph.NodeID
	col int
}

func (a alteredRows) NextHop(sw graph.NodeID, col int) graph.ChannelID {
	next := a.installedRows.NextHop(sw, col)
	if sw == a.sw && col == a.col {
		return next + 1
	}
	return next
}

// TestFleetCheckCatchesAlteredRow distributes one epoch to two agents over
// in-process pipes; the fleet check must accept their rows and reject
// them once a single entry of one agent's row is altered.
func TestFleetCheckCatchesAlteredRow(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	src := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify})
	m, err := fabric.NewManager(tp, fabric.Options{MaxVCs: 2, Seed: 1, OnPublish: func(s *fabric.Snapshot) {
		src.Publish(epochOf(s))
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var serving sync.WaitGroup
	defer func() {
		cancel()
		src.Close()
		serving.Wait()
	}()
	switches := tp.Net.Switches()
	var fleet []fleetMember
	for i := 0; i < 2; i++ {
		owned := switches[i*len(switches)/2 : (i+1)*len(switches)/2]
		a := agent.New(agent.Options{ID: fmt.Sprint(i), Switches: owned})
		srcSide, agentSide := net.Pipe()
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = a.Serve(ctx, agentSide)
		}()
		if err := src.AddConn(srcSide); err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, fleetMember{rows: a, owned: owned})
	}
	snap := m.View()
	if !src.WaitConverged(snap.Epoch, 10*time.Second) {
		t.Fatal("fleet did not converge")
	}
	if err := checkFleet(snap.Epoch, snap.Result.Table, fleet); err != nil {
		t.Fatalf("unbroken fleet rejected: %v", err)
	}
	broken := append([]fleetMember(nil), fleet...)
	broken[1].rows = alteredRows{installedRows: fleet[1].rows, sw: fleet[1].owned[3], col: 5}
	if err := checkFleet(snap.Epoch, snap.Result.Table, broken); err == nil {
		t.Fatal("fleet check accepted an agent row with one altered entry")
	}
	if err := checkFleet(snap.Epoch+1, snap.Result.Table, fleet); err == nil {
		t.Fatal("fleet check accepted agents holding an older epoch")
	}
}

// TestTrafficChecksCatchBrokenResults runs one small fluid batch; the
// traffic checks must accept it and reject each single defect.
func TestTrafficChecksCatchBrokenResults(t *testing.T) {
	net := topology.Torus3D(4, 4, 2, 2, 1).Net
	res := nueRoute(t, net, 2)
	flows := workload.Generate(net.Terminals(), trafficMix, 400, workload.Poisson{MeanGap: trafficMeanGap}, 7)
	r, err := flowsim.Run(net, res, flows, flowsim.Config{Capacity: capacity, Quantum: trafficQuantum})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := expectedLinkBytes(net, res, flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraffic(r, expected, capacity); err != nil {
		t.Fatalf("unbroken run rejected: %v", err)
	}

	// Remove one flow's bytes from one channel of its path.
	var f workload.Flow
	var path []graph.ChannelID
	for _, f = range flows {
		if path, err = res.PathFor(f.Src, f.Dst); err == nil && len(path) > 0 && f.Src != f.Dst {
			break
		}
	}
	short := append([]float64(nil), expected...)
	short[path[len(path)/2]] -= float64(f.Bytes)

	hot := r
	hot.LinkUtil = append([]float64(nil), r.LinkUtil...)
	hot.LinkUtil[path[0]] = 1.01

	heaviest := 0.0
	for _, b := range expected {
		heaviest = max(heaviest, b)
	}
	fast := r
	fast.Makespan = 0.9 * heaviest / capacity

	unfinished := r
	unfinished.FlowsFinished--

	for name, c := range map[string]struct {
		r        flowsim.Result
		expected []float64
	}{
		"one flow's bytes missing from a channel": {r, short},
		"a channel above capacity":                {hot, expected},
		"makespan below the heaviest load":        {fast, expected},
		"an unfinished flow":                      {unfinished, expected},
	} {
		if err := checkTraffic(c.r, c.expected, capacity); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestInterquartileMean pins the latency statistic: the lowest and the
// highest quarter of the values are dropped before averaging.
func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},
		{[]float64{9, 1, 2, 3, 4, 5, 6, 1000}, 4.5},
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
