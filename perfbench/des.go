package main

import (
	"context"
	"math"
	"time"

	"repro/internal/bounds"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// des-ladder: a 32×32 array, uniform destinations, on the event-driven
// engine. The scenario is lowered by Scenario.Bind and swept by
// sim.StreamSweepAdaptive with two pool workers: sequential stopping to a
// fixed target half-width, warm-started along the load ladder.
const (
	desN        = 32
	desWorkers  = 2
	desMinPairs = 3
	// desLittleTol bounds Result.LittleRelErr, |N − Λ̂·T̂|/N, per replica.
	// The residual is boundary censoring of a finite horizon, ≈2–4% here.
	desLittleTol = 0.08
)

func desScenario() workload.Scenario {
	return workload.Scenario{
		Name:        "des-ladder",
		Topology:    workload.TopologySpec{Kind: "array", N: desN},
		Pattern:     workload.PatternSpec{Kind: "uniform"},
		Loads:       []float64{0.3, 0.6, 0.8, 0.9},
		Horizon:     1000,
		Warmup:      250,
		TargetCI:    0.145,
		MinReplicas: 8,
		MaxReplicas: 12,
		WarmStart:   true,
		RewarmSlots: 100,
	}
}

type desLadder struct {
	b     *bench
	bound *workload.Bound
	opts  sim.SweepOpts
	// lower and upper are the paper's bound ladder per point: the best
	// lower bound and Theorem 7's upper bound, valid for FIFO unit service
	// with uniform destinations.
	lower, upper []float64
	lastSets     []sim.ReplicaSet
	// Per-layer observations from the replays.
	pointS, coldS, snapBytes, snapEncode, overhead []float64
}

func runDESLadder(ctx context.Context, b *bench) error {
	var binds []float64
	w := &desLadder{b: b}
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		sc := desScenario()
		bid := b.tr.begin(spanBind, "setup", 0)
		bound, err := sc.Bind()
		b.tr.end(bid)
		binds = append(binds, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		w.bound, w.opts = bound, sc.SweepOpts(desWorkers)
		return time.Since(t0), nil
	}
	if err := b.sampleSetup(1, setup); err != nil {
		return err
	}
	for _, p := range w.bound.Points {
		w.lower = append(w.lower, bounds.BestLowerBound(desN, p.NodeRate))
		w.upper = append(w.upper, bounds.UpperBoundT(desN, p.NodeRate))
	}
	if err := runLibraryLoop(ctx, b, libraryOps{
		minPairs: desMinPairs, issue: w.issue, replay: w.replay,
		setup: setup, setupBatch: 1,
	}); err != nil {
		return err
	}
	if b.traced() {
		b.set("workload.bind_s", median(binds), len(binds))
		b.set("sim.run_s", median(w.coldS), len(w.coldS))
		b.set("sweep.point_s", median(w.pointS), len(w.pointS))
		b.set("sweep.overhead_frac", median(w.overhead), len(w.overhead))
		b.set("sweep.snapshot_bytes", median(w.snapBytes), len(w.snapBytes))
		b.set("sweep.snapshot_encode_s", median(w.snapEncode), len(w.snapEncode))
	}
	return nil
}

// inputs returns input k's configurations. Bind gives every point the
// scenario's base seed; input k replaces it with its own, which is what
// binding the scenario with that seed would produce.
func (w *desLadder) inputs(k int) []sim.Config {
	cfgs := make([]sim.Config, len(w.bound.Configs))
	copy(cfgs, w.bound.Configs)
	for i := range cfgs {
		cfgs[i].Seed = inputSeed(w.b.seed, k)
	}
	return cfgs
}

// issue runs the ladder of input k to its target half-width and checks
// every point against the bound ladder and Little's law.
func (w *desLadder) issue(ctx context.Context, k int, req string, tr *tracer) (opResult, error) {
	cfgs := w.inputs(k)
	var (
		res      opResult
		sets     = make([]sim.ReplicaSet, len(cfgs))
		errs     = make([]error, len(cfgs))
		lastEmit time.Time
	)
	op := tr.begin(spanOp, req, 0)
	sweep := tr.begin(spanSweep, req, op)
	t0 := time.Now()
	lastEmit = t0
	sim.StreamSweepAdaptive(ctx, cfgs, w.opts, func(i int, rs sim.ReplicaSet, err error) {
		now := time.Now()
		if i == 0 {
			res.first = now.Sub(t0)
		}
		tr.add(spanPoint, req, sweep, lastEmit, now)
		lastEmit = now
		sets[i], errs[i] = rs, err
	})
	res.done = time.Since(t0)
	tr.end(sweep)
	tr.end(op)
	if ctx.Err() != nil {
		return res, context.Cause(ctx)
	}
	dg := newDigest()
	for i, rs := range sets {
		load := w.bound.Points[i].Load
		if !w.b.tally.check(errs[i] == nil, "des-ladder %s load %v: %v", req, load, errs[i]) {
			continue
		}
		w.b.tally.check(w.lower[i] <= rs.MeanDelay && rs.MeanDelay <= w.upper[i],
			"des-ladder %s load %v: T=%.4f outside the bound ladder [%.4f, %.4f]", req, load, rs.MeanDelay, w.lower[i], w.upper[i])
		for r, rep := range rs.Replicas {
			w.b.tally.check(rep.LittleRelErr <= desLittleTol && rep.Delivered <= rep.Generated,
				"des-ladder %s load %v replica %d: Little error %.4f (limit %v), delivered %d of %d generated",
				req, load, r, rep.LittleRelErr, desLittleTol, rep.Delivered, rep.Generated)
			res.packets += rep.Delivered
		}
		res.replicas += rs.ReplicasUsed
		dg.point(rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed)
	}
	res.bits = dg.h.Sum(nil)
	if tr != nil {
		w.lastSets = sets
	}
	return res, nil
}

// replay re-runs input k's ladder point by point through RunCellAdaptive,
// chaining the captured snapshots as the warm-started sweep does, and
// requires every cell bit for bit. Each point also gets one cold
// Runner.Run of replica 0, which on the first point (cold in the sweep
// too) must match the sweep's replica 0 exactly.
func (w *desLadder) replay(ctx context.Context, k int, req string, sweep opResult) error {
	var (
		prev   []*sim.Snapshot
		runner sim.Runner
		engine time.Duration
	)
	for i, cfg := range w.inputs(k) {
		load := w.bound.Points[i].Load
		id := w.b.tr.begin(spanReplay+".sim.RunCellAdaptive", req, 0)
		rs, snaps, err := sim.RunCellAdaptive(ctx, cfg, w.opts, prev, true)
		d := w.b.tr.end(id)
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if !w.b.tally.check(err == nil, "des-ladder %s replay load %v: %v", req, load, err) {
			prev = nil
			continue
		}
		engine += d
		w.pointS = append(w.pointS, d.Seconds())
		w.b.tally.check(sameDESCell(rs, w.lastSets[i]), "des-ladder %s replay load %v differs from the sweep's cell", req, load)
		for _, sn := range snaps {
			eid := w.b.tr.begin(spanEncode, req, id)
			t0 := time.Now()
			data, err := sn.MarshalBinary()
			enc := time.Since(t0)
			w.b.tr.end(eid)
			if w.b.tally.check(err == nil, "des-ladder %s load %v: encoding snapshot: %v", req, load, err) {
				w.snapBytes = append(w.snapBytes, float64(len(data)))
				w.snapEncode = append(w.snapEncode, enc.Seconds())
			}
		}
		prev = snaps

		rcfg := cfg
		rcfg.Seed = xrand.Split(cfg.Seed, 0).Uint64()
		rcfg.Ctx = ctx
		cid := w.b.tr.begin(spanReplay+".sim.Runner.Run", req, 0)
		cold, err := runner.Run(rcfg)
		w.coldS = append(w.coldS, w.b.tr.end(cid).Seconds())
		if !w.b.tally.check(err == nil, "des-ladder %s cold run load %v: %v", req, load, err) {
			continue
		}
		if i == 0 && len(w.lastSets[0].Replicas) > 0 {
			want := w.lastSets[0].Replicas[0]
			w.b.tally.check(math.Float64bits(cold.MeanDelay) == math.Float64bits(want.MeanDelay) &&
				math.Float64bits(cold.MeanN) == math.Float64bits(want.MeanN) &&
				cold.Delay == want.Delay && cold.Delivered == want.Delivered && cold.Generated == want.Generated,
				"des-ladder %s cold Runner.Run of the first point differs from the sweep's replica 0", req)
		}
	}
	w.overhead = append(w.overhead, 1-engine.Seconds()/sweep.done.Seconds())
	return nil
}

// sameDESCell compares two event-engine cells exactly.
func sameDESCell(a, b sim.ReplicaSet) bool {
	if math.Float64bits(a.MeanDelay) != math.Float64bits(b.MeanDelay) ||
		math.Float64bits(a.DelayCI) != math.Float64bits(b.DelayCI) ||
		math.Float64bits(a.MeanN) != math.Float64bits(b.MeanN) ||
		a.ReplicasUsed != b.ReplicasUsed || len(a.Replicas) != len(b.Replicas) {
		return false
	}
	for i := range a.Replicas {
		if math.Float64bits(a.Replicas[i].MeanDelay) != math.Float64bits(b.Replicas[i].MeanDelay) ||
			a.Replicas[i].Delivered != b.Replicas[i].Delivered {
			return false
		}
	}
	return true
}
