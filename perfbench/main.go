// Command perfbench is the repository's end-to-end benchmark of the epoch
// pipeline. One process runs one of four seeded workloads for a fixed wall
// time, checks every output against an independent computation or a
// property the method must have, and prints its metrics as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 12 --trace 0
//
// Workloads: churn (fabric.Manager + distrib fleet under link churn),
// churn-sharded (the same trace through shard.Plane), route (full Nue
// passes over five topology classes) and traffic (flowsim fluid runs of
// multi-tenant batches). --trace 1 times the calls into each layer's
// public functions from outside and reports the per-layer metrics
// instead of the end-to-end ones; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median. Only the last instance runs the timed phase.
const setupRounds = 3

// instance is one set-up workload.
type instance interface {
	// step runs one operation and returns its wall time; it then checks
	// the operation's outputs outside that time. A returned opErr means
	// the program failed the operation; checkErr means the output was
	// wrong.
	step(tr *tracer) (d time.Duration, opErr, checkErr error)
	close()
}

// workloadSpec describes one workload of the benchmark.
type workloadSpec struct {
	name string
	// warmup operations run at the end of every set-up, untimed except
	// as part of setup_s.
	warmup int
	// round is the number of operations that make up one whole round of
	// the workload's input; a run attempts whole rounds only, so every run
	// has the same make-up of operations.
	round int
	// minRounds is the least number of rounds a run makes, whatever
	// --seconds says; an interquartile mean over fewer operations would
	// not be steady.
	minRounds int
	setup     func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workloadSpec{
	{name: "churn", warmup: 1, round: 1, minRounds: churnMinFlaps, setup: func(cfg config, tr *tracer) (instance, error) { return newChurn(cfg, tr, false) }},
	{name: "churn-sharded", warmup: 1, round: 1, minRounds: churnMinFlaps, setup: func(cfg config, tr *tracer) (instance, error) { return newChurn(cfg, tr, true) }},
	{name: "route", warmup: 2, round: 1, minRounds: 1, setup: newRoute},
	{name: "traffic", warmup: 2, round: trafficBatches, minRounds: 1, setup: newTraffic},
}

// config carries the command-line settings every workload sees.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the core count: GOMAXPROCS and every Workers option.
	workers int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "wall time of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced mode (per-layer metrics), 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *wl {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{workload: spec.name, seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.workers)

	host := readHost()
	fmt.Fprintf(stdout, "# host: %s\n", host)
	fmt.Fprintf(stdout, "# run: workload=%s seed=%d seconds=%g trace=%v workers=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.workers)
	stealStart := readStealSeconds()

	res, err := measure(cfg, spec, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# cpu steal over the run: %.2fs\n", readStealSeconds()-stealStart)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up setupRounds times, runs the timed phase on
// the last instance and derives the metrics.
func measure(cfg config, spec *workloadSpec, stdout, stderr io.Writer) (*result, error) {
	tr := newTracer(cfg.trace)
	var setups []float64
	var inst instance
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		tr.setupPhase()
		start := time.Now()
		var err error
		inst, err = spec.setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		tr.untraced()
		for w := 0; w < spec.warmup; w++ {
			if _, opErr, checkErr := inst.step(tr); opErr != nil || checkErr != nil {
				return nil, fmt.Errorf("%s warm-up: %v", spec.name, errors.Join(opErr, checkErr))
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	// wall and cpu hold each operation's wall and process CPU time (ms).
	var wall, cpu, traced, plain []float64
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// In traced mode every other round runs untraced, so the tracing
	// overhead is measured inside the same run; that takes two rounds.
	rounds := spec.minRounds
	if cfg.trace {
		rounds = max(rounds, 2)
	}
	for op := 0; op%spec.round != 0 || op < rounds*spec.round || time.Now().Before(deadline); op++ {
		on := cfg.trace && (op/spec.round)%2 == 0
		tr.beginOp(op, on)
		d, opErr, checkErr := inst.step(tr)
		res.Attempted++
		if opErr != nil {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: operation %d failed: %v\n", op, opErr)
			break
		}
		if checkErr != nil {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: operation %d: wrong output: %v\n", op, checkErr)
			break
		}
		// Collect the checks' garbage outside the clock, so it is not
		// charged to the next operation.
		runtime.GC()
		cpuMs := tr.opCPU().Seconds() * 1e3
		wall = append(wall, float64(d)/1e6)
		cpu = append(cpu, cpuMs)
		busy += d
		if on {
			traced = append(traced, cpuMs)
		} else {
			plain = append(plain, cpuMs)
		}
	}
	if len(cpu) == 0 {
		return res, nil
	}

	fmt.Fprintf(stdout, "# %d operations; op cpu ms: interquartile mean %.3f, %s\n", len(cpu), interquartileMean(cpu), tails(cpu))
	fmt.Fprintf(stdout, "# op wall ms (diagnostic): interquartile mean %.3f, %s; %.4g operations per wall second\n",
		interquartileMean(wall), tails(wall), float64(len(wall))/busy.Seconds())
	fmt.Fprintf(stdout, "# set-up rounds (s): %s\n", floats(setups))
	if !cfg.trace {
		res.Metrics["op_cpu_ms"] = metric{interquartileMean(cpu), "ms"}
		res.Metrics["ops_per_cpu_s"] = metric{float64(len(cpu)) / (sum(cpu) / 1e3), "1/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return res, nil
	}
	for name, m := range tr.layerMetrics() {
		res.Metrics[name] = m
	}
	overhead := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		overhead = interquartileMean(traced) - interquartileMean(plain)
	}
	res.Metrics["trace.overhead_ms"] = metric{overhead, "ms"}
	fmt.Fprintf(stdout, "# traced op_cpu_ms %.3f (n=%d), untraced op_cpu_ms %.3f (n=%d)\n",
		interquartileMean(traced), len(traced), interquartileMean(plain), len(plain))
	path, err := tr.write(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return res, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean returns the mean of the middle half of xs: the
// values left once the lowest and the highest quarter are dropped.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return sum(s[q:len(s)-q]) / float64(len(s)-2*q)
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tails renders the median and every tail percentile with at least ten
// samples beyond it.
func tails(xs []float64) string {
	out := fmt.Sprintf("p50 %.3f (n=%d)", median(xs), len(xs))
	for _, q := range []float64{0.9, 0.99, 0.999} {
		beyond := int(float64(len(xs)) * (1 - q))
		if beyond < 10 {
			break
		}
		out += fmt.Sprintf(", p%g %.3f (%d beyond)", q*100, quantile(xs, q), beyond)
	}
	return out
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
