package main

// The traffic workload: fluid runs of seeded multi-tenant batches on a
// Nue-routed 8x8x8 torus with four terminals per switch. Batches are
// generated while setting up, so no generation, routing or certification
// runs inside the timed operation.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

const (
	trafficVCs = 4
	// trafficBatches are cycled through by the timed operations.
	trafficBatches = 8
	// trafficFlows per batch.
	trafficFlows = 6000
	// The arrival gap and rate-recompute quantum of `nuebench -exp
	// workload`.
	trafficMeanGap = 4
	trafficQuantum = 1 << 16
	capacity       = 1.0 // flowsim's default bytes per tick per channel
)

// trafficMix is the multi-tenant mix: uniform bulk transfers, a Zipf
// hotspot, incast waves of small messages and a permutation.
var trafficMix = workload.Mix{Tenants: []workload.TenantSpec{
	{Name: "bulk", Weight: 4, Pattern: workload.Uniform{}, Bytes: 64 << 10},
	{Name: "hotspot", Weight: 2, Pattern: workload.Hotspot{Skew: 1.2}, Bytes: 64 << 10},
	{Name: "incast", Weight: 1, Pattern: workload.Incast{Fanin: 8}, Bytes: 4 << 10},
	{Name: "permutation", Weight: 2, Pattern: workload.Permutation{}, Bytes: 64 << 10},
}}

type trafficBatch struct {
	flows    []workload.Flow
	expected []float64 // per-channel bytes from routing.Result.PathFor
}

type trafficBench struct {
	tr      *tracer
	workers int
	net     *graph.Network
	res     *routing.Result
	batches []trafficBatch
	next    int
}

func newTraffic(cfg config, tr *tracer) (instance, error) {
	tp := topology.Torus3D(8, 8, 8, 4, 1)
	opts := core.DefaultOptions()
	opts.Seed = 1
	opts.Workers = cfg.workers
	terms := tp.Net.Terminals()
	res, err := core.New(opts).Route(tp.Net, terms, trafficVCs)
	if err != nil {
		return nil, err
	}
	b := &trafficBench{tr: tr, workers: cfg.workers, net: tp.Net, res: res}
	for i := 0; i < trafficBatches; i++ {
		var flows []workload.Flow
		tr.timed("workload.generate_ms", func() {
			flows = workload.Generate(terms, trafficMix, trafficFlows, workload.Poisson{MeanGap: trafficMeanGap}, cfg.seed*trafficBatches+int64(i))
		})
		expected, err := expectedLinkBytes(tp.Net, res, flows)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		b.batches = append(b.batches, trafficBatch{flows: flows, expected: expected})
	}
	return b, nil
}

func (b *trafficBench) step(tr *tracer) (time.Duration, error, error) {
	batch := &b.batches[b.next%len(b.batches)]
	b.next++
	clk := tr.startClock()
	r, err := flowsim.Run(b.net, b.res, batch.flows, flowsim.Config{
		Workers:     b.workers,
		Capacity:    capacity,
		Quantum:     trafficQuantum,
		TenantNames: trafficMix.TenantNames(),
	})
	d := tr.stopClock(clk)
	if err != nil {
		return d, err, nil
	}
	tr.record("flowsim.run_ms", clk.start, clk.start.Add(d))
	if err := checkTraffic(r, batch.expected, capacity); err != nil {
		return d, nil, err
	}
	if tr.active() {
		tr.add("flowsim.events", float64(r.Events))
		tr.add("flowsim.recomputes", float64(r.Recomputes))
		tr.add("flowsim.events_per_s", float64(r.Events)/d.Seconds())
		var werr error
		tr.timed("flowsim.walk_ms", func() { werr = b.walk(batch.flows) })
		if werr != nil {
			return d, nil, werr
		}
	}
	return d, nil, nil
}

// walk resolves every simulated flow's path with flowsim's walker, the
// first stage of a fluid run.
func (b *trafficBench) walk(flows []workload.Flow) error {
	var buf []graph.ChannelID
	for _, f := range flows {
		if f.Src == f.Dst || b.net.Degree(f.Src) == 0 || b.net.Degree(f.Dst) == 0 {
			continue
		}
		p, err := flowsim.WalkFlowPath(b.net, b.res, f.Src, f.Dst, buf)
		if err != nil {
			return err
		}
		buf = p
	}
	return nil
}

func (b *trafficBench) close() {}
