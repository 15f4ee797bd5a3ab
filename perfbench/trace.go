package main

// The traced mode's span recorder. Spans are taken from outside the
// program, around the calls the benchmark makes into each layer's public
// functions (or around the hooks the program calls back into). They stay
// in memory and are written out when the run ends.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// kind says how a per-layer metric aggregates over operations.
type kind uint8

const (
	// spanMs: summed span time per operation, median over operations.
	spanMs kind = iota
	// countPerOp: summed count per operation, mean over operations.
	countPerOp
	// valuePerOp: one value per operation, median over operations.
	valuePerOp
)

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name string
	unit string
	kind kind
}

// layerMetrics lists every per-layer metric. A workload reports 0 for the
// metrics of layers it does not run; README.md maps each metric to its
// workload and to the end-to-end metric it should move.
var layerMetrics = []layerMetric{
	{"fabric.publish_ms", "ms", spanMs},
	{"fabric.repaired_dests", "count/op", countPerOp},
	{"fabric.layer_rebuilds", "count/op", countPerOp},
	{"fabric.full_recomputes", "count/op", countPerOp},
	{"verify.check_ms", "ms", spanMs},
	{"oracle.certify_ms", "ms", spanMs},
	{"oracle.transition_ms", "ms", spanMs},
	{"oracle.transition_calls", "count/op", countPerOp},
	{"routing.diff_ms", "ms", spanMs},
	{"routing.delta_encode_ms", "ms", spanMs},
	{"routing.delta_decode_ms", "ms", spanMs},
	{"distrib.publish_ms", "ms", spanMs},
	{"distrib.fleet_ms", "ms", spanMs},
	{"distrib.wire_bytes", "bytes/op", countPerOp},
	{"distrib.full_syncs", "count/op", countPerOp},
	{"shard.commit_ms", "ms", spanMs},
	{"shard.seam_certified", "count/op", countPerOp},
	{"shard.seam_jobs", "count/op", countPerOp},
	{"core.route_ms.torus", "ms", spanMs},
	{"core.route_ms.dragonfly", "ms", spanMs},
	{"core.route_ms.ftree", "ms", spanMs},
	{"core.route_ms.kautz", "ms", spanMs},
	{"core.route_ms.random", "ms", spanMs},
	{"partition.split_ms", "ms", spanMs},
	{"centrality.root_ms", "ms", spanMs},
	{"cdg.complete_ms", "ms", spanMs},
	{"workload.generate_ms", "ms", spanMs},
	{"flowsim.walk_ms", "ms", spanMs},
	{"flowsim.run_ms", "ms", spanMs},
	{"flowsim.events_per_s", "1/s", valuePerOp},
	{"flowsim.events", "count/op", countPerOp},
	{"flowsim.recomputes", "count/op", countPerOp},
}

// setupOp is the operation id of spans recorded while setting up.
const setupOp = -1

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent indexes the span that caused it (-1: none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// sample is one count or value attributed to an operation.
type sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    int     `json:"op"`
}

// tracer records spans and samples for the operations marked traced.
// Hooks the program calls on its own goroutines record through it too,
// so every method is safe for concurrent use.
type tracer struct {
	enabled bool
	origin  time.Time

	mu      sync.Mutex
	on      bool // the current operation (or set-up) is traced
	op      int
	root    int // the current operation's root span
	cpu     time.Duration
	ops     []int
	spans   []span
	samples []sample
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, origin: time.Now(), root: -1}
}

// active reports whether calls are being traced right now.
func (t *tracer) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// setupPhase attributes the following spans to set-up (traced mode only).
func (t *tracer) setupPhase() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on, t.op, t.root = t.enabled, setupOp, -1
}

// untraced stops recording until the next traced operation.
func (t *tracer) untraced() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
}

// beginOp starts operation op; when on, its spans are recorded under the
// root span stopClock adds.
func (t *tracer) beginOp(op int, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on, t.op, t.root, t.cpu = on, op, -1, 0
	if on {
		t.ops = append(t.ops, op)
	}
}

// clock brackets one timed part of an operation; an operation may have
// several (a churn flap times its two epochs and not the checks between).
type clock struct {
	start time.Time
	cpu   time.Duration
}

// startClock starts timing the current operation.
func (t *tracer) startClock() clock { return clock{time.Now(), processCPU()} }

// stopClock ends one timed part of the current operation, records it as
// a root span of the operation when tracing, and returns its wall time.
// The process CPU time spent meanwhile is added up for opCPU.
func (t *tracer) stopClock(c clock) time.Duration {
	end := time.Now()
	cpu := processCPU() - c.cpu
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cpu += cpu
	if t.on {
		t.spans = append(t.spans, span{Name: "op", Start: int64(c.start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: -1, Op: t.op})
		t.root = len(t.spans) - 1
		// Spans the program's hooks recorded during this timed part,
		// before its root existed, are re-parented now.
		for i := t.root - 1; i >= 0 && t.spans[i].Op == t.op && t.spans[i].Name != "op"; i-- {
			if t.spans[i].Start >= t.spans[t.root].Start {
				t.spans[i].Parent = t.root
			}
		}
	}
	return end.Sub(c.start)
}

// opCPU returns the process CPU time of the current operation's timed
// parts.
func (t *tracer) opCPU() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cpu
}

// record adds one span of the current operation.
func (t *tracer) record(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: t.root, Op: t.op})
}

// timed runs f and records it as a span when tracing.
func (t *tracer) timed(name string, f func()) {
	if !t.active() {
		f()
		return
	}
	start := time.Now()
	f()
	t.record(name, start, time.Now())
}

// add records a count or value of the current operation.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.samples = append(t.samples, sample{Name: name, Value: v, Op: t.op})
}

// layerMetrics aggregates the recorded spans and samples into every
// per-layer metric. A span recorded only while setting up
// (workload.generate_ms) aggregates per call; all others per traced
// operation.
func (t *tracer) layerMetrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	perOp := map[string]map[int]float64{}
	bump := func(name string, op int, v float64) {
		if perOp[name] == nil {
			perOp[name] = map[int]float64{}
		}
		perOp[name][op] += v
	}
	var setup = map[string][]float64{}
	for _, s := range t.spans {
		ms := float64(s.End-s.Start) / 1e6
		if s.Op == setupOp {
			setup[s.Name] = append(setup[s.Name], ms)
			continue
		}
		bump(s.Name, s.Op, ms)
	}
	for _, s := range t.samples {
		bump(s.Name, s.Op, s.Value)
	}
	out := map[string]metric{}
	for _, m := range layerMetrics {
		var v float64
		switch byOp := perOp[m.name]; m.kind {
		case spanMs, valuePerOp:
			xs := setup[m.name]
			if len(byOp) > 0 {
				xs = nil
				for _, x := range byOp {
					xs = append(xs, x)
				}
			}
			v = median(xs)
		case countPerOp:
			sum := 0.0
			for _, x := range byOp {
				sum += x
			}
			if len(t.ops) > 0 {
				v = sum / float64(len(t.ops))
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// write saves every span and sample as JSON in the build directory.
func (t *tracer) write(cfg config) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Ops      []int    `json:"traced_ops"`
		Spans    []span   `json:"spans"`
		Samples  []sample `json:"samples"`
	}{cfg.workload, cfg.seed, t.ops, t.spans, t.samples})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
