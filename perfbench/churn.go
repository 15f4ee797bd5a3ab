package main

// The churn and churn-sharded workloads: the full epoch pipeline under
// seeded, connectivity-preserving link flaps on the 8x8x8 torus, run
// closed-loop from the Apply call to fleet convergence.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/distrib/agent"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/shard"
	"repro/internal/topology"
)

const (
	churnVCs = 4 // nuefm's default VC budget
	// The sharded plane as `nuefm -shards 4 -replicas 3 -serve` runs it.
	churnShards   = 4
	churnReplicas = 3
	// fleetTimeout bounds one wait for fleet convergence; a healthy
	// in-process fleet converges in well under a second.
	fleetTimeout = 30 * time.Second
	// churnMinFlaps is the least number of flaps a run times, whatever
	// --seconds says: a flap takes about two seconds with its checks, and
	// fewer would leave the interquartile mean to a handful of them.
	churnMinFlaps = 14
)

// churnTopology is the 512-switch torus, one terminal per switch.
func churnTopology() *topology.Topology { return topology.Torus3D(8, 8, 8, 1, 1) }

type churnBench struct {
	tr  *tracer
	vcs int

	// shadow evolves in lockstep with the program's fabric state and
	// draws the trace, so churn and churn-sharded see identical events
	// for one seed.
	shadow *fabric.State
	rng    *rand.Rand

	mgr   *fabric.Manager
	plane *shard.Plane
	// leader indexes the source the agents sit on: the sharded plane's
	// leader replica (-1 while the plane is set up).
	leader  int
	sources []*distrib.Source
	agents  []*agent.Agent
	fleet   []fleetMember

	cancel  context.CancelFunc
	serving sync.WaitGroup
	wire    atomic.Int64

	// opStart and publishedAt are written on the goroutine that calls
	// Apply and read by the publish hooks the program calls on it.
	opStart     time.Time
	publishedAt time.Time

	prev                *fabric.Snapshot
	lastWire, lastSyncs int64
}

func newChurn(cfg config, tr *tracer, sharded bool) (instance, error) {
	b := &churnBench{
		tr:     tr,
		vcs:    churnVCs,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		leader: -1,
	}
	tp := churnTopology()
	b.shadow = fabric.NewState(tp.Net)
	fab := fabric.Options{MaxVCs: churnVCs, Seed: 1, Verify: true, Workers: cfg.workers}
	replicas := 1
	if sharded {
		replicas = churnReplicas
	}
	for r := 0; r < replicas; r++ {
		b.sources = append(b.sources, distrib.NewSource(distrib.Options{Certify: b.certify, Workers: cfg.workers}))
	}
	var err error
	if sharded {
		b.plane, err = shard.New(tp, shard.Options{
			Shards:      churnShards,
			Replicas:    churnReplicas,
			Fabric:      fab,
			OnReplicate: b.onReplicate,
		})
		if err == nil {
			b.leader, _ = b.plane.Leader()
		}
	} else {
		fab.OnPublish = b.onPublish
		b.mgr, err = fabric.NewManager(tp, fab)
		b.leader = 0
	}
	if err != nil {
		b.close()
		return nil, err
	}

	// The agents own disjoint, contiguous slices of the switches and
	// sit on the (leader's) source.
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	switches := tp.Net.Switches()
	n := min(cfg.workers, len(switches))
	for i := 0; i < n; i++ {
		owned := switches[i*len(switches)/n : (i+1)*len(switches)/n]
		a := agent.New(agent.Options{ID: fmt.Sprintf("agent-%d", i), Switches: owned})
		srcSide, agentSide := net.Pipe()
		b.serving.Add(1)
		go func() {
			defer b.serving.Done()
			_ = a.Serve(ctx, agentSide) // returns once the pipe closes
		}()
		if err := b.lead().AddConn(countingConn{srcSide, &b.wire}); err != nil {
			b.close()
			return nil, err
		}
		b.agents = append(b.agents, a)
		b.fleet = append(b.fleet, fleetMember{rows: a, owned: owned})
	}
	snap := b.view()
	for _, s := range b.sources {
		if !s.WaitConverged(snap.Epoch, fleetTimeout) {
			b.close()
			return nil, fmt.Errorf("first fleet sync of epoch %d did not converge", snap.Epoch)
		}
	}
	if err := b.check(snap, nil, nil); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *churnBench) view() *fabric.Snapshot {
	if b.plane != nil {
		return b.plane.View()
	}
	return b.mgr.View()
}

// lead is the source the agents are connected to.
func (b *churnBench) lead() *distrib.Source { return b.sources[b.leader] }

// certify is every source's transition certifier: distrib.DefaultCertify,
// timed from outside.
func (b *churnBench) certify(n *graph.Network, old, new_ *routing.Result) error {
	start := time.Now()
	err := distrib.DefaultCertify(n, old, new_)
	b.tr.record("oracle.transition_ms", start, time.Now())
	b.tr.add("oracle.transition_calls", 1)
	return err
}

// onPublish is the monolithic manager's publication hook.
func (b *churnBench) onPublish(s *fabric.Snapshot) {
	b.publishedAt = time.Now()
	if !b.opStart.IsZero() {
		b.tr.record("fabric.publish_ms", b.opStart, b.publishedAt)
	}
	b.tr.timed("distrib.publish_ms", func() { b.sources[0].Publish(epochOf(s)) })
}

// onReplicate is the sharded plane's per-replica publication hook.
func (b *churnBench) onReplicate(replica int, s *fabric.Snapshot) {
	if replica != b.leader {
		b.sources[replica].Publish(epochOf(s))
		return
	}
	b.publishedAt = time.Now()
	if !b.opStart.IsZero() {
		b.tr.record("shard.commit_ms", b.opStart, b.publishedAt)
	}
	b.tr.timed("distrib.publish_ms", func() { b.sources[replica].Publish(epochOf(s)) })
}

func epochOf(s *fabric.Snapshot) distrib.Epoch {
	return distrib.Epoch{Seq: s.Epoch, Net: s.Net, Result: s.Result}
}

// step flaps one seeded link: it fails the link and, once the fleet has
// committed that epoch, brings it back. The operation's time is the two
// epochs' times, each from the Apply call until the fleet has committed
// it; both epochs are checked outside the clock.
func (b *churnBench) step(tr *tracer) (time.Duration, error, error) {
	fail, ok := b.shadow.RandomEvent(b.rng, 0)
	if !ok {
		return 0, errors.New("no connectivity-preserving link failure left"), nil
	}
	var total time.Duration
	for _, ev := range []fabric.Event{fail, {Kind: fabric.LinkJoin, Link: fail.Link}} {
		d, opErr, checkErr := b.epoch(tr, ev)
		total += d
		if opErr != nil || checkErr != nil {
			return total, opErr, checkErr
		}
	}
	return total, nil, nil
}

// epoch applies one event, waits for the fleet to commit its epoch and
// returns that wall time; it then checks the epoch outside the clock.
func (b *churnBench) epoch(tr *tracer, ev fabric.Event) (time.Duration, error, error) {
	b.shadow.Mutate(ev)
	clk := tr.startClock()
	b.opStart = clk.start
	var rep *fabric.EventReport
	var srep *shard.Report
	var err error
	if b.plane != nil {
		if srep, err = b.plane.Apply(ev); err == nil {
			rep = &srep.EventReport
		}
	} else {
		rep, err = b.mgr.Apply(ev)
	}
	converged := err == nil && b.lead().WaitConverged(rep.Epoch, fleetTimeout)
	d := tr.stopClock(clk)
	end := clk.start.Add(d)
	b.opStart = time.Time{}
	if err != nil {
		return d, fmt.Errorf("apply %v: %w", ev, err), nil
	}
	if !converged {
		return d, fmt.Errorf("fleet did not converge to epoch %d within %s", rep.Epoch, fleetTimeout), nil
	}
	tr.record("distrib.fleet_ms", b.publishedAt, end)

	// Outside the clock: let the standby publishers finish their rounds,
	// then check the epoch.
	for _, s := range b.sources {
		if !s.WaitConverged(rep.Epoch, fleetTimeout) {
			return d, fmt.Errorf("publisher did not commit epoch %d within %s", rep.Epoch, fleetTimeout), nil
		}
	}
	snap := b.view()
	if snap.Epoch != rep.Epoch {
		return d, nil, fmt.Errorf("published epoch %d after an event reporting epoch %d", snap.Epoch, rep.Epoch)
	}
	return d, nil, b.check(snap, rep, srep)
}

// check certifies one published epoch with the oracle, compares every
// agent's installed rows with the published table, requires a clean
// protocol run (no NAK, no quarantine) and, on the sharded plane, exactly
// one committed term for the epoch. Traced operations also time the
// verifier and the delta codec on the epoch's old and new tables.
func (b *churnBench) check(snap *fabric.Snapshot, rep *fabric.EventReport, srep *shard.Report) error {
	tr := b.tr
	var err error
	tr.timed("oracle.certify_ms", func() { err = certify(snap.Net, snap.Result, b.vcs) })
	if err != nil {
		return fmt.Errorf("epoch %d: %w", snap.Epoch, err)
	}
	if err := checkFleet(snap.Epoch, snap.Result.Table, b.fleet); err != nil {
		return fmt.Errorf("epoch %d: %w", snap.Epoch, err)
	}
	syncs := int64(0)
	for i, a := range b.agents {
		st := a.Stats()
		if st.Naks != 0 || st.CorruptFrames != 0 {
			return fmt.Errorf("epoch %d: agent %d sent %d NAKs, dropped %d corrupt frames", snap.Epoch, i, st.Naks, st.CorruptFrames)
		}
		syncs += int64(st.FullSyncs)
	}
	for r, s := range b.sources {
		if q := s.Quarantined(); len(q) > 0 {
			return fmt.Errorf("epoch %d: publisher %d quarantined %v", snap.Epoch, r, q)
		}
	}
	if b.plane != nil {
		if terms := b.plane.Cluster().CommittedTermsAt(snap.Epoch); len(terms) != 1 {
			return fmt.Errorf("epoch %d committed under terms %v, want exactly one", snap.Epoch, terms)
		}
	}
	wire := b.wire.Load()
	if rep != nil && tr.active() {
		tr.timed("verify.check_ms", func() { _, err = verify.Check(snap.Net, snap.Result, nil) })
		if err != nil {
			return fmt.Errorf("epoch %d: verifier: %w", snap.Epoch, err)
		}
		if err := b.codec(snap); err != nil {
			return fmt.Errorf("epoch %d: %w", snap.Epoch, err)
		}
		tr.add("fabric.repaired_dests", float64(rep.RepairedDests))
		tr.add("fabric.layer_rebuilds", float64(rep.LayerRebuilds))
		tr.add("fabric.full_recomputes", float64(boolCount(rep.FullRecompute)))
		tr.add("distrib.wire_bytes", float64(wire-b.lastWire))
		tr.add("distrib.full_syncs", float64(syncs-b.lastSyncs))
		if srep != nil {
			tr.add("shard.seam_certified", float64(boolCount(srep.SeamCertified)))
			tr.add("shard.seam_jobs", float64(srep.SeamJobs))
		}
	}
	b.prev, b.lastWire, b.lastSyncs = snap, wire, syncs
	return nil
}

// codec times the table diff and the delta encode and decode on the
// previous and the new epoch's tables, and requires the round trip to
// reproduce the diff.
func (b *churnBench) codec(snap *fabric.Snapshot) error {
	tr := b.tr
	var entries []routing.DeltaEntry
	tr.timed("routing.diff_ms", func() { entries, _ = routing.EntryDiff(b.prev.Result.Table, snap.Result.Table) })
	rows, cols := snap.Result.Table.Shape()
	var enc []byte
	tr.timed("routing.delta_encode_ms", func() { enc = routing.EncodeDelta(nil, rows, cols, entries) })
	var dec []routing.DeltaEntry
	var err error
	tr.timed("routing.delta_decode_ms", func() { _, _, dec, err = routing.DecodeDelta(enc) })
	if err != nil {
		return fmt.Errorf("decoding the epoch delta: %w", err)
	}
	if !slices.Equal(dec, entries) {
		return fmt.Errorf("delta round trip changed %d entries into %d", len(entries), len(dec))
	}
	return nil
}

func (b *churnBench) close() {
	if b.cancel != nil {
		b.cancel()
	}
	for _, s := range b.sources {
		s.Close()
	}
	b.serving.Wait()
}

func boolCount(v bool) int {
	if v {
		return 1
	}
	return 0
}

// countingConn counts the bytes a source exchanges with one agent.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
