package stepsim

// The pre-rewrite slotted engine — heap-allocated *packet records carrying
// materialized AppendRoute slices, copy(q, q[1:]) head-of-line dequeues,
// a scan over every edge's queue per slot — survives here as the test
// oracle. It shares no code with the engine and has two arrival regimes:
//
//   - dense (the seed-era body): one engine-wide stream drawing a Poisson
//     batch for every source on every slot. It simulates the engine's
//     stochastic law with a different variate sequence, so the two are
//     compared statistically, with matched confidence intervals.
//   - per-node: each source draws from its own keyed stream
//     xrand.ReseedSplit(Seed, node) in the engine's canonical order
//     ([initial skip], then per arrival slot [zero-truncated batch,
//     per-packet (dst, coin), next skip]). It consumes the engine's exact
//     variates, so the two must agree bit for bit on the same seed.

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

type oraclePacket struct {
	genSlot  int
	hop      int
	route    []int
	measured bool
}

// runOracle is the seed-era stepsim.Run with integer delay accumulators
// (so its Welford statistics are built exactly like the engine's), the
// occupancy counters, and the per-node arrival regime described above.
func runOracle(cfg Config, perNode bool) (Result, error) {
	if cfg.Net == nil || cfg.Router == nil || cfg.Dest == nil {
		return Result{}, fmt.Errorf("stepsim oracle: Net, Router and Dest are required")
	}
	if cfg.Slots <= 0 || cfg.WarmupSlots < 0 || cfg.NodeRate < 0 {
		return Result{}, fmt.Errorf("stepsim oracle: invalid slot counts or rate")
	}
	rng := xrand.New(cfg.Seed)
	sources := topology.Sources(cfg.Net)
	queues := make([][]*oraclePacket, cfg.Net.NumEdges())
	var free []*oraclePacket

	// Per-node regime: one stream and next arrival slot per source; a
	// zero-rate source never arrives.
	var rngs []xrand.RNG
	var next []int
	if perNode {
		rngs = make([]xrand.RNG, len(sources))
		next = make([]int, len(sources))
		for i, src := range sources {
			rngs[i].ReseedSplit(cfg.Seed, uint64(src))
			next[i] = -1
			if cfg.NodeRate > 0 {
				next[i] = rngs[i].PoissonSkip(cfg.NodeRate)
			}
		}
	}

	getPacket := func() *oraclePacket {
		if n := len(free); n > 0 {
			p := free[n-1]
			free = free[:n-1]
			p.hop = 0
			p.route = p.route[:0]
			return p
		}
		return &oraclePacket{}
	}

	var res Result
	var count int64
	var sum, sumSq uint64
	var minD, maxD int
	addDelay := func(d int) {
		if count == 0 || d < minD {
			minD = d
		}
		if count == 0 || d > maxD {
			maxD = d
		}
		count++
		sum += uint64(d)
		sumSq += uint64(d) * uint64(d)
	}
	var nSum float64
	var busySum, arrivalHits int64
	inSystem := 0
	total := cfg.WarmupSlots + cfg.Slots
	moved := make([]*oraclePacket, 0, 256)
	for slot := 0; slot < total; slot++ {
		measuring := slot >= cfg.WarmupSlots
		for i, src := range sources {
			r := rng
			var k int
			if perNode {
				if next[i] != slot {
					continue
				}
				r = &rngs[i]
				k = r.PoissonPositive(cfg.NodeRate)
			} else {
				k = r.Poisson(cfg.NodeRate)
			}
			if measuring && k > 0 {
				arrivalHits++
			}
			for ; k > 0; k-- {
				p := getPacket()
				p.genSlot = slot
				p.measured = measuring
				dst := cfg.Dest.Sample(src, r)
				p.route = cfg.Router.AppendRoute(p.route, src, dst, r)
				if len(p.route) == 0 {
					if measuring {
						addDelay(0)
					}
					free = append(free, p)
					continue
				}
				queues[p.route[0]] = append(queues[p.route[0]], p)
				inSystem++
			}
			if perNode {
				next[i] = slot + 1 + r.PoissonSkip(cfg.NodeRate)
			}
		}
		if measuring {
			nSum += float64(inSystem)
		}
		moved = moved[:0]
		for e := range queues {
			q := queues[e]
			if len(q) == 0 {
				continue
			}
			if measuring {
				busySum++
			}
			p := q[0]
			copy(q, q[1:])
			queues[e] = q[:len(q)-1]
			p.hop++
			if p.hop == len(p.route) {
				if p.measured && measuring {
					addDelay(slot + 1 - p.genSlot)
				}
				inSystem--
				free = append(free, p)
				continue
			}
			moved = append(moved, p)
		}
		for _, p := range moved {
			e := p.route[p.hop]
			queues[e] = append(queues[e], p)
		}
	}
	res.Delay = stats.WelfordFromInts(count, sum, sumSq, float64(minD), float64(maxD))
	res.Delivered = count
	res.MeanDelay = res.Delay.Mean()
	res.MeanN = nSum / float64(cfg.Slots)
	res.MeanActiveEdges = float64(busySum) / float64(cfg.Slots)
	if denom := float64(len(sources)) * float64(cfg.Slots); denom > 0 {
		res.ArrivalSlotFraction = float64(arrivalHits) / denom
	}
	return res, nil
}

// oracleCases are the router/topology configurations both oracle
// comparisons cover: deterministic and randomized routers on the array,
// the torus and the hypercube.
func oracleCases() []struct {
	name string
	cfg  Config
} {
	type ocase = struct {
		name string
		cfg  Config
	}
	cases := []ocase{
		{"array-greedy-xy", arrayCfg(6, 0.8, 11)},
		{"array-greedy-xy-light", arrayCfg(4, 0.3, 13)},
	}
	{
		cfg := arrayCfg(6, 0.7, 17)
		cfg.Router = routing.RandGreedy{A: cfg.Net.(*topology.Array2D)}
		cases = append(cases, ocase{"array-rand-greedy", cfg})
	}
	{
		tor := topology.NewTorus2D(5)
		cases = append(cases, ocase{"torus-greedy", Config{
			Net: tor, Router: routing.TorusGreedy{T: tor},
			Dest:     routing.UniformDest{NumNodes: tor.NumNodes()},
			NodeRate: 0.15, WarmupSlots: 500, Slots: 4000, Seed: 19,
		}})
	}
	{
		h := topology.NewHypercube(4)
		cases = append(cases, ocase{"hypercube", Config{
			Net: h, Router: routing.CubeGreedy{H: h},
			Dest:     routing.UniformDest{NumNodes: h.NumNodes()},
			NodeRate: 0.1, WarmupSlots: 500, Slots: 4000, Seed: 23,
		}})
	}
	return cases
}

// TestEngineMatchesOracleBitForBit runs the engine and the per-node oracle
// on the same seeds and requires bit-identical results, across
// deterministic and randomized routers and several topologies: the skip-
// ahead arrivals, the timing wheel, the packed queue entries and the
// active-edge worklists must reproduce the plain per-slot simulation
// exactly, not merely in law.
func TestEngineMatchesOracleBitForBit(t *testing.T) {
	var eng Engine // deliberately shared across cases: reuse must not leak state
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runOracle(tc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered == 0 {
				t.Fatal("no packets delivered; the comparison is vacuous")
			}
			if math.Float64bits(got.MeanDelay) != math.Float64bits(want.MeanDelay) {
				t.Errorf("MeanDelay: engine %v != oracle %v", got.MeanDelay, want.MeanDelay)
			}
			if math.Float64bits(got.MeanN) != math.Float64bits(want.MeanN) {
				t.Errorf("MeanN: engine %v != oracle %v", got.MeanN, want.MeanN)
			}
			if got.Delivered != want.Delivered {
				t.Errorf("Delivered: engine %d != oracle %d", got.Delivered, want.Delivered)
			}
			if got.Delay.Count() != want.Delay.Count() ||
				math.Float64bits(got.Delay.Variance()) != math.Float64bits(want.Delay.Variance()) ||
				got.Delay.Min() != want.Delay.Min() || got.Delay.Max() != want.Delay.Max() {
				t.Error("per-packet Welford statistics diverge")
			}
			if math.Float64bits(got.MeanActiveEdges) != math.Float64bits(want.MeanActiveEdges) {
				t.Errorf("MeanActiveEdges: engine %v != oracle %v", got.MeanActiveEdges, want.MeanActiveEdges)
			}
			if math.Float64bits(got.ArrivalSlotFraction) != math.Float64bits(want.ArrivalSlotFraction) {
				t.Errorf("ArrivalSlotFraction: engine %v != oracle %v", got.ArrivalSlotFraction, want.ArrivalSlotFraction)
			}
		})
	}
}

// runReplicas runs `replicas` replicas of cfg through the sweep driver.
func runReplicas(cfg Config, replicas int) (ReplicaSet, error) {
	rs, _, err := RunCellAdaptive(context.Background(), cfg, SweepOpts{Replicas: replicas}, nil, false)
	return rs, err
}

// oracleReplicas runs the dense oracle `replicas` times on seeds
// independent of the engine's replica streams and aggregates them exactly
// as the sweep driver does.
func oracleReplicas(t *testing.T, cfg Config, replicas int) ReplicaSet {
	t.Helper()
	results := make([]Result, replicas)
	for i := range results {
		rcfg := cfg
		rcfg.Seed = xrand.Split(cfg.Seed+1, uint64(i)).Uint64()
		res, err := runOracle(rcfg, false)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return aggregate(results)
}

// requireMatchedCI asserts that two replica-mean estimates agree within
// the root-sum-square of their 95% half-widths plus a relative floor for
// CI noise at small replica counts.
func requireMatchedCI(t *testing.T, what string, eng, orc, engCI, orcCI, floor float64) {
	t.Helper()
	diff := math.Abs(eng - orc)
	if limit := math.Hypot(engCI, orcCI) + floor*orc; diff > limit {
		t.Errorf("%s: engine %.4f±%.4f vs dense oracle %.4f±%.4f (|Δ|=%.4f > %.4f)",
			what, eng, engCI, orc, orcCI, diff, limit)
	}
}

// TestEngineOracleStatisticalEquivalence compares the engine with the
// dense oracle on independent seeds across the oracle cases: the
// across-replica means of MeanDelay and MeanN must agree within the
// root-sum-square of the two 95% half-widths, plus a 2% floor for CI noise
// at these replica counts.
func TestEngineOracleStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated statistical sweep; skipped with -short")
	}
	const replicas = 8
	ci := func(w *stats.Welford) float64 { return 1.96 * w.StdDev() / math.Sqrt(float64(w.Count())) }
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := runReplicas(tc.cfg, replicas)
			if err != nil {
				t.Fatal(err)
			}
			orc := oracleReplicas(t, tc.cfg, replicas)
			requireMatchedCI(t, "MeanDelay", eng.MeanDelay, orc.MeanDelay, eng.DelayCI, orc.DelayCI, 0.02)
			var engN, orcN stats.Welford
			for i := range eng.Replicas {
				engN.Add(eng.Replicas[i].MeanN)
				orcN.Add(orc.Replicas[i].MeanN)
			}
			requireMatchedCI(t, "MeanN", engN.Mean(), orcN.Mean(), ci(&engN), ci(&orcN), 0.02)
		})
	}
}

// TestSparseDenseStatisticalEquivalence is the semantic contract of the
// skip-ahead body: the engine and the dense oracle consume different
// variate sequences but simulate the identical stochastic law, so their
// across-replica mean delays must agree within matched 95% confidence
// intervals at low, medium and high load on a 64×64 array (plus a small
// floor for CI noise at this replica count). MeanN is checked the same
// way; it is the tighter statistic at low load, where delay is mostly
// deterministic propagation.
func TestSparseDenseStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated statistical sweep; skipped with -short")
	}
	const replicas = 6
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		t.Run(fmt.Sprintf("rho=%g", rho), func(t *testing.T) {
			cfg := arrayCfg(64, rho, 4242)
			cfg.WarmupSlots, cfg.Slots = 300, 1200
			sparse, err := runReplicas(cfg, replicas)
			if err != nil {
				t.Fatal(err)
			}
			dense := oracleReplicas(t, cfg, replicas)
			requireMatchedCI(t, "delay", sparse.MeanDelay, dense.MeanDelay, sparse.DelayCI, dense.DelayCI, 0.05)
			if rel(sparse.MeanN, dense.MeanN) > 0.05 {
				t.Errorf("N: sparse %.2f vs dense %.2f", sparse.MeanN, dense.MeanN)
			}
			// The instrumentation measures the same occupancy process in
			// both bodies, so it must agree statistically too.
			if rel(sparse.MeanActiveEdges, dense.MeanActiveEdges) > 0.05 {
				t.Errorf("active edges: sparse %.1f vs dense %.1f", sparse.MeanActiveEdges, dense.MeanActiveEdges)
			}
			if rel(sparse.ArrivalSlotFraction, dense.ArrivalSlotFraction) > 0.05 {
				t.Errorf("arrival fraction: sparse %.5f vs dense %.5f", sparse.ArrivalSlotFraction, dense.ArrivalSlotFraction)
			}
		})
	}
}

// TestSlottedGoldenDeterminism pins the engine to math.Float64bits golden
// values, locking the RNG call order and phase semantics (values recorded
// when skip-ahead arrivals became the engine's only body; the
// shard-invariance tests additionally pin every shard count to these same
// bits).
// Regenerate with SIM_GOLDEN_PRINT=1 go test ./internal/stepsim -run Golden -v.
func TestSlottedGoldenDeterminism(t *testing.T) {
	print := os.Getenv("SIM_GOLDEN_PRINT") != ""
	cases := []struct {
		name             string
		cfg              Config
		meanDelay, meanN uint64
		delivered        int64
	}{
		{
			name: "array-6-rho08-sparse", cfg: arrayCfg(6, 0.8, 42),
			meanDelay: 0x401bff3f7d0e6c5d, meanN: 0x4060ce5aee631f8a, delivered: 384001,
		},
		{
			name: "array-5-rho05-sparse", cfg: arrayCfg(5, 0.5, 7),
			meanDelay: 0x40100624f75bb043, meanN: 0x404408816f0068dc, delivered: 199987,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if print {
				fmt.Printf("%s: meanDelay: %#x, meanN: %#x, delivered: %d,\n",
					tc.name, math.Float64bits(res.MeanDelay), math.Float64bits(res.MeanN), res.Delivered)
				return
			}
			if got := math.Float64bits(res.MeanDelay); got != tc.meanDelay {
				t.Errorf("MeanDelay bits %#x, want %#x (value %v)", got, tc.meanDelay, res.MeanDelay)
			}
			if got := math.Float64bits(res.MeanN); got != tc.meanN {
				t.Errorf("MeanN bits %#x, want %#x (value %v)", got, tc.meanN, res.MeanN)
			}
			if res.Delivered != tc.delivered {
				t.Errorf("Delivered %d, want %d", res.Delivered, tc.delivered)
			}
		})
	}
}

// TestEngineReuseSteadyStateAllocs verifies the tentpole's allocation
// contract: after a first run warms an Engine, further runs of the same
// shape allocate (next to) nothing.
func TestEngineReuseSteadyStateAllocs(t *testing.T) {
	cfg := arrayCfg(6, 0.8, 5)
	cfg.WarmupSlots, cfg.Slots = 200, 2000
	var eng Engine
	if _, err := eng.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		cfg.Seed++
		if _, err := eng.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// A handful of late ring/arena doublings can still happen on unlucky
	// seeds; the seed-era engine spent thousands per run.
	if allocs > 10 {
		t.Errorf("reused engine allocates %.0f times per run, want ~0", allocs)
	}
}

// TestStreamSweepDeterministicAcrossWorkers mirrors the event engine's
// pool guarantee on the slotted side.
func TestStreamSweepDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []Config{arrayCfg(5, 0.5, 3), arrayCfg(5, 0.7, 3), arrayCfg(4, 0.6, 9)}
	for i := range cfgs {
		cfgs[i].WarmupSlots, cfgs[i].Slots = 200, 2000
	}
	one, err := runSweep(cfgs, SweepOpts{Replicas: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := runSweep(cfgs, SweepOpts{Replicas: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if math.Float64bits(one[i].MeanDelay) != math.Float64bits(many[i].MeanDelay) ||
			one[i].Delivered != many[i].Delivered {
			t.Errorf("cell %d differs across worker counts", i)
		}
	}
}

// BenchmarkStepSlotsOracle is the pre-rewrite engine on the headline 8×8
// configuration, kept runnable so the BENCH.md before/after table can be
// regenerated on any machine (compare with BenchmarkStepSlots/8x8 at the
// repo root).
func BenchmarkStepSlotsOracle(b *testing.B) {
	a := topology.NewArray2D(8)
	cfg := Config{
		Net:         a,
		Router:      routing.GreedyXY{A: a},
		Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate:    bounds.LambdaTable(8, 0.8),
		WarmupSlots: 500,
		Slots:       2000,
	}
	var delivered int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := runOracle(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		delivered += res.Delivered
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "packets/op")
}
