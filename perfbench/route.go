package main

// The route workload: full Nue passes over a fixed set of paper-family
// topology classes. One operation is one pass over every class in a fixed
// order, so its median is not taken across classes of very different
// cost.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cdg"
	"repro/internal/centrality"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/topology"
)

const routeVCs = 4

// routeClass is one topology routed by every pass.
type routeClass struct {
	name   string
	net    *graph.Network
	dests  []graph.NodeID
	digest uint64 // table digest of the first pass (0 before it)
}

// routeClasses builds the classes in pass order. Only the random
// topology depends on the seed; the others are fixed instances of their
// family.
func routeClasses(seed int64) []*routeClass {
	tops := []struct {
		name string
		tp   *topology.Topology
	}{
		{"torus", topology.Torus3D(8, 8, 8, 1, 1)},
		{"dragonfly", topology.Dragonfly(8, 4, 4, 9)},
		{"ftree", topology.KAryNTree(8, 3, 4)},
		{"kautz", topology.Kautz(4, 3, 4, 2)},
		{"random", topology.RandomTopology(rand.New(rand.NewSource(seed)), 125, 500, 4)},
	}
	classes := make([]*routeClass, len(tops))
	for i, t := range tops {
		var dests []graph.NodeID
		for _, d := range t.tp.Net.Terminals() {
			if t.tp.Net.Degree(d) > 0 {
				dests = append(dests, d)
			}
		}
		classes[i] = &routeClass{name: t.name, net: t.tp.Net, dests: dests}
	}
	return classes
}

type routeBench struct {
	tr      *tracer
	workers int
	engine  routing.Engine
	classes []*routeClass
	results []*routing.Result
}

func newRoute(cfg config, tr *tracer) (instance, error) {
	opts := core.DefaultOptions()
	opts.Seed = 1
	opts.Workers = cfg.workers
	classes := routeClasses(cfg.seed)
	return &routeBench{
		tr:      tr,
		workers: cfg.workers,
		engine:  core.New(opts),
		classes: classes,
		results: make([]*routing.Result, len(classes)),
	}, nil
}

func (b *routeBench) step(tr *tracer) (time.Duration, error, error) {
	clk := tr.startClock()
	for i, c := range b.classes {
		t0 := time.Now()
		res, err := b.engine.Route(c.net, c.dests, routeVCs)
		tr.record("core.route_ms."+c.name, t0, time.Now())
		if err != nil {
			return tr.stopClock(clk), fmt.Errorf("%s: %w", c.name, err), nil
		}
		b.results[i] = res
	}
	return tr.stopClock(clk), nil, b.check()
}

// check certifies every result with the oracle and requires each class's
// table to be identical on every pass.
func (b *routeBench) check() error {
	for i, c := range b.classes {
		res := b.results[i]
		if err := certify(c.net, res, routeVCs); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		d := res.Table.Digest()
		if c.digest == 0 {
			c.digest = d
		} else if d != c.digest {
			return fmt.Errorf("%s: table digest %016x differs from the first pass's %016x", c.name, d, c.digest)
		}
	}
	if b.tr.active() {
		b.phases()
	}
	return nil
}

// phases times, on every class, the calls the engine makes into the
// partitioner, the betweenness root search and the complete-CDG
// construction, with the engine's own arguments.
func (b *routeBench) phases() {
	tr := b.tr
	for _, c := range b.classes {
		var parts [][]graph.NodeID
		tr.timed("partition.split_ms", func() {
			parts = partition.Split(c.net, c.dests, routeVCs, partition.MultilevelKWay, rand.New(rand.NewSource(1)))
		})
		bw := max(1, b.workers/len(parts))
		tr.timed("centrality.root_ms", func() {
			for _, p := range parts {
				centrality.RootForDestinationsN(c.net, p, bw)
			}
		})
		tr.timed("cdg.complete_ms", func() {
			for range parts {
				cdg.NewComplete(c.net).Release()
			}
		})
	}
}

func (b *routeBench) close() {}
