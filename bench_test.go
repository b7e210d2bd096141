package greedyroute

// One benchmark per paper table and figure, plus engine micro-benchmarks
// and the replica-scaling ablation. The table/figure benchmarks run the
// same regeneration harnesses as cmd/tables in quick mode, so
// `go test -bench=.` exercises every experiment end to end; full-scale
// numbers for EXPERIMENTS.md come from `cmd/tables` without -quick.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(experiments.Options{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTableI(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkFigure1(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkBoundLadder(b *testing.B)       { benchExperiment(b, "ladder") }
func BenchmarkGapConvergence(b *testing.B)    { benchExperiment(b, "gap") }
func BenchmarkPSDomination(b *testing.B)      { benchExperiment(b, "psdom") }
func BenchmarkRateValidation(b *testing.B)    { benchExperiment(b, "rates") }
func BenchmarkOptimalAllocation(b *testing.B) { benchExperiment(b, "alloc") }
func BenchmarkHypercube(b *testing.B)         { benchExperiment(b, "hypercube") }
func BenchmarkButterfly(b *testing.B)         { benchExperiment(b, "butterfly") }
func BenchmarkRandomizedGreedy(b *testing.B)  { benchExperiment(b, "randomized") }
func BenchmarkTorus(b *testing.B)             { benchExperiment(b, "torus") }
func BenchmarkNonUniform(b *testing.B)        { benchExperiment(b, "nonuniform") }
func BenchmarkSlotted(b *testing.B)           { benchExperiment(b, "slotted") }
func BenchmarkKDArray(b *testing.B)           { benchExperiment(b, "kdarray") }
func BenchmarkLemma3(b *testing.B)            { benchExperiment(b, "lemma3") }
func BenchmarkLittleCheck(b *testing.B)       { benchExperiment(b, "little") }
func BenchmarkMiddleOccupancy(b *testing.B)   { benchExperiment(b, "middles") }
func BenchmarkDomination(b *testing.B)        { benchExperiment(b, "ndist") }
func BenchmarkKLGrowth(b *testing.B)          { benchExperiment(b, "klgrowth") }
func BenchmarkHotSpot(b *testing.B)           { benchExperiment(b, "hotspot") }
func BenchmarkRectangular(b *testing.B)       { benchExperiment(b, "rect") }
func BenchmarkTandem(b *testing.B)            { benchExperiment(b, "tandem") }
func BenchmarkTorusPS(b *testing.B)           { benchExperiment(b, "torusps") }
func BenchmarkPriority(b *testing.B)          { benchExperiment(b, "priority") }
func BenchmarkCrossValidate(b *testing.B)     { benchExperiment(b, "xval") }
func BenchmarkHotSpotLadder(b *testing.B)     { benchExperiment(b, "hotladder") }
func BenchmarkBurstyDelay(b *testing.B)       { benchExperiment(b, "bursty") }

// BenchmarkScenarioSweep measures one load point of a workload scenario
// per iteration (8×8 array at 0.8·λ*, horizon 500), pinning the arrival
// generalization to the zero-allocation steady state:
//
//   - poisson: the demand-aware stability validation forced on (Bind
//     marks its configs pre-validated, so this measures the check's cost
//     for hand-built configs — a few setup-time allocations);
//   - poisson-nocheck: the Bind default, isolating the engine — its
//     allocs/op must stay at BenchmarkSimulatorEvents' per-run setup
//     floor (34), since a Demand-wrapped uniform sampler and the default
//     merged clock allocate nothing at steady state;
//   - bursty: the MMPP on-off arrival process, whose extra allocations
//     are its per-run state plus ring/arena capacity growth to burst
//     depth (amortizing toward zero per event; see BENCH.md).
func BenchmarkScenarioSweep(b *testing.B) {
	cases := []struct {
		name, scenario string
		nocheck        bool
	}{
		{"poisson", "uniform-8x8", false},
		{"poisson-nocheck", "uniform-8x8", true},
		{"bursty", "bursty-8x8", false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, err := workload.ByName(c.scenario)
			if err != nil {
				b.Fatal(err)
			}
			s.Loads = []float64{0.8}
			s.Horizon, s.Warmup = 500, 50
			bound, err := s.Bind()
			if err != nil {
				b.Fatal(err)
			}
			cfg := bound.Configs[0]
			cfg.AllowUnstable = c.nocheck // overrides Bind's pre-validated default
			var delivered int64
			b.ResetTimer() // binding (analysis, dense traffic solve) is setup
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				delivered += res.Delivered
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
		})
	}
}

// BenchmarkBind measures Scenario.Bind, which is dominated by the exact
// traffic analysis (workload.Analyze: every (source, destination) route
// walked hop by hop, then λ = a + λP solved). array32-uniform is the
// 32×32 ladder the event-engine benchmark workload binds; array8-uniform
// is the size of one sweep-service job, bound on every submit.
// array32-randgreedy walks the route table's closed-form path with two
// steppers; torus32-uniform walks its generic Stepper fallback.
func BenchmarkBind(b *testing.B) {
	ladder := []float64{0.3, 0.6, 0.8, 0.9}
	cases := []struct {
		name   string
		kind   string
		n      int
		router string
		loads  []float64
	}{
		{"array32-uniform", "array", 32, "", ladder},
		{"array8-uniform", "array", 8, "", []float64{0.3, 0.6, 0.8}},
		{"array32-randgreedy", "array", 32, "rand-greedy", ladder},
		{"torus32-uniform", "torus", 32, "", ladder},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := workload.Scenario{
				Name:     c.name,
				Topology: workload.TopologySpec{Kind: c.kind, N: c.n},
				Router:   c.router,
				Pattern:  workload.PatternSpec{Kind: "uniform"},
				Loads:    c.loads,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Bind(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepSlots measures the synchronous slotted engine
// (internal/stepsim): one full run per iteration at ρ = 0.8, with the
// Engine reused across iterations exactly as the sweep pool reuses it, so
// allocs/op shows the amortized steady state (~0 after the first run's
// setup). The pre-rewrite pointer engine is kept runnable as
// BenchmarkStepSlotsOracle in internal/stepsim for before/after
// comparisons (see BENCH.md). The 256×256 case is the scale target —
// ≈10⁶ node-slots, iterations are whole large-array runs.
func BenchmarkStepSlots(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		slots int
	}{
		{"8x8", 8, 2000},
		{"64x64", 64, 200},
		{"256x256", 256, 250},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a := topology.NewArray2D(c.n)
			cfg := stepsim.Config{
				Net:         a,
				Router:      routing.GreedyXY{A: a},
				Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
				NodeRate:    bounds.LambdaTable(c.n, 0.8),
				WarmupSlots: c.slots / 4,
				Slots:       c.slots,
			}
			var eng stepsim.Engine
			var delivered int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				res, err := eng.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				delivered += res.Delivered
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
		})
	}
}

// BenchmarkStepSlotsLoad measures the slotted engine across the load
// ladder. Its cost is proportional to live traffic (skip-ahead arrivals +
// active-edge worklists), so per-packet cost is flat while per-slot cost
// grows with ρ; by Little's law the busy-edge density is ≈ (2/3)ρ
// independent of array size. BENCH.md's "Sparse engine" tables record the
// A/B against the dense per-slot body this engine replaced.
func BenchmarkStepSlotsLoad(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		slots int
	}{
		{"64x64", 64, 200},
		{"256x256", 256, 250},
	}
	for _, c := range cases {
		for _, rho := range []float64{0.02, 0.1, 0.3, 0.6, 0.9} {
			b.Run(fmt.Sprintf("%s/rho=%g", c.name, rho), func(b *testing.B) {
				a := topology.NewArray2D(c.n)
				cfg := stepsim.Config{
					Net:         a,
					Router:      routing.GreedyXY{A: a},
					Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
					NodeRate:    bounds.LambdaTable(c.n, rho),
					WarmupSlots: c.slots / 4,
					Slots:       c.slots,
				}
				var eng stepsim.Engine
				var delivered int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					res, err := eng.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					delivered += res.Delivered
				}
				b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
			})
		}
	}
}

// BenchmarkStepSlotsSharded measures the slotted engine's tile sharding
// (stepsim.Config.Shards) at 1, 2 and 4 tiles on the large-array
// configurations where intra-run parallelism matters. Results are
// bit-identical across shard counts (pinned by TestShardInvariance), so
// these rows differ only in wall-clock: the shards=1 row is the serial
// reference, and the speedup of the others is bounded by min(shards,
// physical cores) — on a single-vCPU container all rows converge to the
// serial time plus barrier overhead. The engine is reused across
// iterations exactly as the sweep pool reuses it.
func BenchmarkStepSlotsSharded(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		slots int
	}{
		{"64x64", 64, 200},
		{"256x256", 256, 250},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(b *testing.B) {
				a := topology.NewArray2D(c.n)
				cfg := stepsim.Config{
					Net:         a,
					Router:      routing.GreedyXY{A: a},
					Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
					NodeRate:    bounds.LambdaTable(c.n, 0.8),
					WarmupSlots: c.slots / 4,
					Slots:       c.slots,
					Shards:      shards,
				}
				var eng stepsim.Engine
				var delivered int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					res, err := eng.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					delivered += res.Delivered
				}
				b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
			})
		}
	}
}

// BenchmarkStepSlotsLookahead measures the k-slot batched barriers on the
// sharded slotted engine: the same low-load run at barrier depth 1 (one
// global barrier per slot, the pre-batching behavior) and depth 8 (one per
// 8-slot batch). Low load is where the contrast lives — per-slot compute
// is thin, so synchronization is the bottleneck — and the barriers/op
// metric records the amortization exactly (shards·ceil(slots/k)) even on
// machines where wall-clock is noisy. Results are bit-identical across
// depths (pinned by TestShardInvarianceLookahead), so rows differ only in
// synchronization cost; on a single-vCPU container the wall-clock gap
// narrows to the saved futex round-trips.
func BenchmarkStepSlotsLookahead(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		slots int
	}{
		{"64x64", 64, 400},
		{"256x256", 256, 250},
		{"1024x1024", 1024, 100},
	}
	for _, c := range cases {
		for _, k := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				a := topology.NewArray2D(c.n)
				cfg := stepsim.Config{
					Net:         a,
					Router:      routing.GreedyXY{A: a},
					Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
					NodeRate:    bounds.LambdaTable(c.n, 0.1),
					WarmupSlots: c.slots / 4,
					Slots:       c.slots,
					Shards:      4,
					Lookahead:   k,
				}
				var eng stepsim.Engine
				var delivered, barriers int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					res, err := eng.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					delivered += res.Delivered
					barriers += res.BarrierWaits
				}
				b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
				b.ReportMetric(float64(barriers)/float64(b.N), "barriers/op")
			})
		}
	}
}

// BenchmarkSweepAdaptive is the variance-reduction A/B at equal precision:
// the same slotted hotspot ρ-ladder swept three ways, where "equal" means
// the adaptive modes target exactly the CI half-width the fixed sweep
// achieves at its loosest point (measured once, untimed, in setup):
//
//   - fixed: the default path — every point runs the full replica budget;
//   - adaptive: sequential stopping alone — points stop as soon as their
//     95% half-width is under the target, so easy (low-ρ) points stop at
//     MinReps and only the hard ones spend the budget;
//   - warm: stopping plus snapshot warm-starts along the ladder
//     (each replica resumes the previous point's steady state, replacing
//     the full warmup with Slots/8 of re-warm).
//
// replicas/op is the total replica count across the ladder per sweep; the
// wall-clock ratio fixed/warm at this size is the small-scale
// proxy for the 64×64 measurement in BENCH.md ("Variance reduction"),
// reproducible at full scale with examples/adaptivesweep.
func BenchmarkSweepAdaptive(b *testing.B) {
	s, err := workload.ByName("hotspot-8x8")
	if err != nil {
		b.Fatal(err)
	}
	s.Topology.N = 16
	s.Loads = []float64{0.4, 0.6, 0.8}
	s.Horizon, s.Warmup = 1500, 375
	bound, err := s.Bind()
	if err != nil {
		b.Fatal(err)
	}
	cfgs, err := bound.SlottedConfigs()
	if err != nil {
		b.Fatal(err)
	}
	const budget = 16
	run := func(cfgs []stepsim.Config, opts sweep.Opts) ([]stepsim.ReplicaSet, error) {
		return sweep.Collect(len(cfgs), func(emit func(int, stepsim.ReplicaSet, error)) {
			stepsim.StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
		})
	}
	base, err := run(cfgs, sweep.Opts{Replicas: budget, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	var target float64
	for _, rs := range base {
		if rs.DelayCI > target {
			target = rs.DelayCI
		}
	}
	modes := []struct {
		name string
		opts sweep.Opts
	}{
		{"fixed", sweep.Opts{Replicas: budget, Workers: 4}},
		{"adaptive", sweep.Opts{TargetCI: target, MinReps: 4, MaxReps: budget, Workers: 4}},
		{"warm", sweep.Opts{
			TargetCI: target, MinReps: 4, MaxReps: budget, Workers: 4,
			WarmStart: true, Rewarm: float64(cfgs[0].Slots / 8),
		}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var replicas int64
			ladder := make([]stepsim.Config, len(cfgs))
			for i := 0; i < b.N; i++ {
				copy(ladder, cfgs)
				for j := range ladder {
					ladder[j].Seed += uint64(i) << 32
				}
				sets, err := run(ladder, m.opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, rs := range sets {
					replicas += int64(rs.ReplicasUsed)
				}
			}
			b.ReportMetric(float64(replicas)/float64(b.N), "replicas/op")
		})
	}
}

// BenchmarkPoissonDraw measures xrand.Poisson across the regimes of its
// piecewise sampler: Knuth product-of-uniforms below mean 10 (O(mean)
// uniforms — the per-source slotted draw lives at the far left) and PTRS
// transformed rejection above (constant cost). Before this split, means in
// [10, 30) rode the Knuth loop toward a throughput cliff and means above 30
// used an inexact normal approximation.
func BenchmarkPoissonDraw(b *testing.B) {
	for _, mean := range []float64{0.4, 5, 9.9, 10, 30, 200} {
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			rng := xrand.New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += rng.Poisson(mean)
			}
			_ = sink
		})
	}
}

// BenchmarkSimulatorEvents measures raw engine throughput: one 8×8 array at
// ρ=0.8 for a fixed horizon per iteration; the reported metric is
// events/op via b.ReportMetric.
func BenchmarkSimulatorEvents(b *testing.B) {
	m := NewArrayModelAtLoad(8, 0.8)
	cfg := m.Config(SimParams{Horizon: 500, Warmup: 50})
	var delivered int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered += res.Delivered
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
}

// BenchmarkSimulatorEventsReused is BenchmarkSimulatorEvents through a
// persistent sim.Runner, the engine-reuse path the sweep pool workers use:
// the ~34 per-run setup allocations amortize to a handful, isolating what
// sweep-scoped reuse is worth per run.
func BenchmarkSimulatorEventsReused(b *testing.B) {
	m := NewArrayModelAtLoad(8, 0.8)
	cfg := m.Config(SimParams{Horizon: 500, Warmup: 50})
	var runner sim.Runner
	var delivered int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered += res.Delivered
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
}

// BenchmarkReplicaScaling is the parallelism ablation: the same total work
// split across 1, 4, and 16 workers.
func BenchmarkReplicaScaling(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := NewArrayModelAtLoad(8, 0.8)
			cfg := m.Config(SimParams{Horizon: 400, Warmup: 50})
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := sim.RunReplicas(context.Background(), cfg, 16, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteGeneration measures greedy route construction.
func BenchmarkRouteGeneration(b *testing.B) {
	a := topology.NewArray2D(32)
	g := routing.GreedyXY{A: a}
	rng := xrand.New(1)
	buf := make([]int, 0, 64)
	for i := 0; i < b.N; i++ {
		src := rng.Intn(a.NumNodes())
		dst := rng.Intn(a.NumNodes())
		buf = g.AppendRoute(buf[:0], src, dst, rng)
	}
	_ = buf
}

// BenchmarkEventTree measures the simulator's fire-and-reschedule pattern
// on the tournament tree: read the head, reschedule its slot.
func BenchmarkEventTree(b *testing.B) {
	tree := des.NewEventTree(256)
	rng := xrand.New(3)
	for i := 0; i < 256; i++ {
		tree.Schedule(i, rng.Float64(), uint32(i))
	}
	for i := 0; i < b.N; i++ {
		t, p, _ := tree.Head()
		tree.Schedule(int(p), t+rng.Float64(), p)
	}
}

// BenchmarkStepperRoute measures walking a route incrementally via
// routing.Stepper, the hot-loop replacement for BenchmarkRouteGeneration's
// materialized AppendRoute.
func BenchmarkStepperRoute(b *testing.B) {
	a := topology.NewArray2D(32)
	g := routing.GreedyXY{A: a}
	rng := xrand.New(1)
	hops := 0
	for i := 0; i < b.N; i++ {
		src := rng.Intn(a.NumNodes())
		dst := rng.Intn(a.NumNodes())
		cur := src
		for {
			e, done := g.NextEdge(cur, dst)
			if done {
				break
			}
			cur = a.EdgeTo(e)
			hops++
		}
	}
	_ = hops
}

// BenchmarkRouteTable is BenchmarkStepperRoute through routing.Table, the
// route-step table every hop walker uses: keys instead of node ids, and on
// the 2-D array the closed-form step instead of an interface call.
func BenchmarkRouteTable(b *testing.B) {
	a := topology.NewArray2D(32)
	var tab routing.Table
	tab.Init(a, []routing.Stepper{routing.GreedyXY{A: a}}, nil, true)
	rng := xrand.New(1)
	hops := 0
	for i := 0; i < b.N; i++ {
		pos := tab.NodeKey[rng.Intn(a.NumNodes())]
		dst := tab.NodeKey[rng.Intn(a.NumNodes())]
		for {
			e, done := tab.Next(pos, dst, 0)
			if done {
				break
			}
			pos = tab.EdgeKey[e]
			hops++
		}
	}
	_ = hops
}

// BenchmarkUpperBound measures the analytic evaluation (used inside sweeps).
func BenchmarkUpperBound(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = bounds.UpperBoundT(64, 0.05)
	}
	_ = sink
}

// BenchmarkExpectedRemaining measures the exact d̄ enumeration.
func BenchmarkExpectedRemaining(b *testing.B) {
	a := topology.NewArray2D(20)
	for i := 0; i < b.N; i++ {
		if got := bounds.ExpectedRemaining(a); len(got) == 0 {
			b.Fatal("empty")
		}
	}
}
