package main

import (
	"context"
	"math"
	"time"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// slotted-large: a 256×256 array, uniform destinations, GreedyXY, on the
// slotted engine through stepsim.StreamSweep with one pool worker, two
// shards and lookahead 8. Configurations are built directly, as cmd/sweep
// builds them, with no Scenario.Bind.
const (
	slottedN         = 256
	slottedReplicas  = 2
	slottedWorkers   = 1
	slottedShards    = 2
	slottedLookahead = 8
	slottedMinPairs  = 2
	// One set-up takes microseconds, so a setup_s sample averages a batch.
	slottedSetupBatch = 200
)

// slottedPoint is one load point. The low point is bound by barriers and
// arrivals, the high one by the service phase.
type slottedPoint struct {
	label         string
	rho           float64
	warmup, slots int
}

var slottedPoints = []slottedPoint{
	{"low", 0.1, 150, 450},
	{"high", 0.8, 150, 200},
}

// slottedSetup is what cmd/sweep does before its first engine call: build
// the topology, each point's configuration (seed left zero) and the
// analytic bound ladder it reports beside the measured delay.
func slottedSetup() ([]stepsim.Config, [][3]float64) {
	a := topology.NewArray2D(slottedN)
	cfgs := make([]stepsim.Config, len(slottedPoints))
	ladder := make([][3]float64, len(slottedPoints))
	for i, p := range slottedPoints {
		lambda := bounds.LambdaForLoad(slottedN, p.rho)
		ladder[i] = [3]float64{
			bounds.BestLowerBound(slottedN, lambda),
			bounds.MD1ApproxT(slottedN, lambda),
			bounds.UpperBoundT(slottedN, lambda),
		}
		cfgs[i] = stepsim.Config{
			Net:         a,
			Router:      routing.GreedyXY{A: a},
			Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate:    lambda,
			WarmupSlots: p.warmup,
			Slots:       p.slots,
			Shards:      slottedShards,
			Lookahead:   slottedLookahead,
		}
	}
	return cfgs, ladder
}

// windowMeanHops is the mean delay the slotted engine would report for an
// n×n array with uniform destinations if no packet ever queued: n̄ =
// (2/3)(n − 1/n) reweighted by the finite measurement window. A packet
// generated in a measured slot counts only if it is delivered before the
// window closes, so a route of h ≥ 1 hops is observed from S − h + 1 of
// the S generation slots, and a zero-hop packet from all S. Long routes
// are therefore under-represented, which is why a short run reports a mean
// below n̄ even though no packet is faster than its route. Queueing only
// adds delay, so the engine's observed mean must not fall below this.
func windowMeanHops(n, slots int) float64 {
	// P(|x−y| = d) for x, y uniform on 0..n−1, per axis.
	axis := make([]float64, n)
	axis[0] = 1 / float64(n)
	for d := 1; d < n; d++ {
		axis[d] = 2 * float64(n-d) / float64(n*n)
	}
	var num, den float64
	for dx, px := range axis {
		for dy, py := range axis {
			h := dx + dy
			w := float64(slots - h + 1)
			if h == 0 {
				w = float64(slots)
			}
			if w <= 0 {
				continue
			}
			num += px * py * float64(h) * w
			den += px * py * w
		}
	}
	return num / den
}

type slottedLarge struct {
	b     *bench
	cfgs  []stepsim.Config
	floor []float64 // windowMeanHops per point
	// lastSets are the traced sweep's cells, which its replay must match.
	lastSets []stepsim.ReplicaSet
	// Per-layer observations from the replays, keyed by point label.
	runS, barriers, active map[string][]float64
	arrival, overhead      []float64
}

func runSlottedLarge(ctx context.Context, b *bench) error {
	var cfgs []stepsim.Config
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		cfgs, _ = slottedSetup()
		return time.Since(t0), nil
	}
	if err := b.sampleSetup(slottedSetupBatch, setup); err != nil {
		return err
	}
	w := &slottedLarge{b: b, cfgs: cfgs,
		runS: map[string][]float64{}, barriers: map[string][]float64{}, active: map[string][]float64{}}
	for _, p := range slottedPoints {
		w.floor = append(w.floor, windowMeanHops(slottedN, p.slots))
	}
	if err := runLibraryLoop(ctx, b, libraryOps{
		minPairs: slottedMinPairs, issue: w.issue, replay: w.replay,
		setup: setup, setupBatch: slottedSetupBatch,
	}); err != nil {
		return err
	}
	if b.traced() {
		for _, p := range slottedPoints {
			l := p.label
			b.set("stepsim.run_s."+l, median(w.runS[l]), len(w.runS[l]))
			b.set("stepsim.barrier_waits."+l, median(w.barriers[l]), len(w.barriers[l]))
			b.set("stepsim.active_edges."+l, median(w.active[l]), len(w.active[l]))
		}
		b.set("stepsim.arrival_frac.low", median(w.arrival), len(w.arrival))
		b.set("sweep.overhead_frac", median(w.overhead), len(w.overhead))
		points := b.tr.durations(spanPoint)
		b.set("sweep.point_s", median(points), len(points))
	}
	return nil
}

// inputs returns input k's configurations: every point shares the input
// seed, so the sweep uses common random numbers across loads.
func (w *slottedLarge) inputs(k int) []stepsim.Config {
	cfgs := make([]stepsim.Config, len(w.cfgs))
	copy(cfgs, w.cfgs)
	for i := range cfgs {
		cfgs[i].Seed = inputSeed(w.b.seed, k)
	}
	return cfgs
}

// issue runs one sweep of input k and checks every point.
func (w *slottedLarge) issue(ctx context.Context, k int, req string, tr *tracer) (opResult, error) {
	cfgs := w.inputs(k)
	var (
		res      opResult
		sets     = make([]stepsim.ReplicaSet, len(cfgs))
		errs     = make([]error, len(cfgs))
		lastEmit time.Time
	)
	op := tr.begin(spanOp, req, 0)
	sweep := tr.begin(spanSweep, req, op)
	t0 := time.Now()
	lastEmit = t0
	stepsim.StreamSweep(ctx, cfgs, slottedReplicas, slottedWorkers, func(i int, rs stepsim.ReplicaSet, err error) {
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
		p := slottedPoints[i]
		if !w.b.tally.check(errs[i] == nil, "slotted-large %s point rho=%v: %v", req, p.rho, errs[i]) {
			continue
		}
		se := rs.Delay.StdDev() / math.Sqrt(float64(rs.Delay.Count()))
		w.b.tally.check(rs.MeanDelay >= w.floor[i]-4*se,
			"slotted-large %s rho=%v: T=%.4f below the window-adjusted mean route length %.4f (n̄=%.4f, 4·SE=%.4f)",
			req, p.rho, rs.MeanDelay, w.floor[i], bounds.MeanDist(slottedN), 4*se)
		for r, rep := range rs.Replicas {
			w.b.tally.check(rep.Delivered <= rep.Generated && rep.Delivered > 0,
				"slotted-large %s rho=%v replica %d: delivered %d, generated %d", req, p.rho, r, rep.Delivered, rep.Generated)
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

// replay re-runs every replica of input k through Engine.Run with the
// sweep pool's derived seed, Split(seed, r), and requires the sweep's
// results bit for bit. The replays' summed engine time against the sweep's
// wall time is the sweep driver's overhead.
func (w *slottedLarge) replay(ctx context.Context, k int, req string, sweep opResult) error {
	var (
		eng    stepsim.Engine
		engine time.Duration
	)
	for i, cfg := range w.inputs(k) {
		p := slottedPoints[i]
		for r := range slottedReplicas {
			rcfg := cfg
			rcfg.Seed = xrand.Split(cfg.Seed, uint64(r)).Uint64()
			rcfg.Ctx = ctx
			id := w.b.tr.begin(spanReplay+".stepsim.Engine.Run", req, 0)
			got, err := eng.Run(rcfg)
			d := w.b.tr.end(id)
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if !w.b.tally.check(err == nil, "slotted-large %s replay rho=%v replica %d: %v", req, p.rho, r, err) {
				continue
			}
			engine += d
			var want stepsim.Result
			if reps := w.lastSets[i].Replicas; r < len(reps) {
				want = reps[r]
			}
			w.b.tally.check(sameSlotted(got, want), "slotted-large %s replay rho=%v replica %d differs from the sweep's result", req, p.rho, r)
			w.runS[p.label] = append(w.runS[p.label], d.Seconds())
			w.barriers[p.label] = append(w.barriers[p.label], float64(got.BarrierWaits))
			w.active[p.label] = append(w.active[p.label], got.MeanActiveEdges)
			if p.label == "low" {
				w.arrival = append(w.arrival, got.ArrivalSlotFraction)
			}
		}
	}
	w.overhead = append(w.overhead, 1-engine.Seconds()/sweep.done.Seconds())
	return nil
}

// sameSlotted compares the measured fields of two slotted results exactly.
func sameSlotted(a, b stepsim.Result) bool {
	return math.Float64bits(a.MeanDelay) == math.Float64bits(b.MeanDelay) &&
		math.Float64bits(a.MeanN) == math.Float64bits(b.MeanN) &&
		math.Float64bits(a.MeanActiveEdges) == math.Float64bits(b.MeanActiveEdges) &&
		math.Float64bits(a.ArrivalSlotFraction) == math.Float64bits(b.ArrivalSlotFraction) &&
		a.Delay == b.Delay && a.Delivered == b.Delivered && a.Generated == b.Generated &&
		a.BarrierWaits == b.BarrierWaits
}
