package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/queueing"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// oneEdge is a minimal network — two nodes, one edge, packets enter only at
// node 0 — used to validate the engine against single-queue theory.
type oneEdge struct{}

func (oneEdge) Name() string       { return "one-edge" }
func (oneEdge) NumNodes() int      { return 2 }
func (oneEdge) NumEdges() int      { return 1 }
func (oneEdge) EdgeFrom(e int) int { return 0 }
func (oneEdge) EdgeTo(e int) int   { return 1 }
func (oneEdge) SourceNodes() []int { return []int{0} }

// oneEdgeRouter routes from node 0 over the single edge.
type oneEdgeRouter struct{}

func (oneEdgeRouter) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	if src == dst {
		return buf
	}
	return append(buf, 0)
}
func (r oneEdgeRouter) Steppers() []routing.Stepper { return []routing.Stepper{r} }
func (oneEdgeRouter) NextEdge(cur, dst int) (int, bool) {
	return 0, cur == dst
}
func (oneEdgeRouter) RemainingHops(cur, dst int) int {
	if cur == dst {
		return 0
	}
	return 1
}

func singleQueueConfig(lambda float64, disc Discipline, svc ServiceModel, seed uint64) Config {
	return Config{
		Net:        oneEdge{},
		Router:     oneEdgeRouter{},
		Dest:       routing.FixedDest{Node: 1},
		NodeRate:   lambda,
		Warmup:     2000,
		Horizon:    60000,
		Seed:       seed,
		Discipline: disc,
		Service:    svc,
	}
}

func TestSingleQueueMD1(t *testing.T) {
	lambda := 0.7
	res, err := Run(singleQueueConfig(lambda, FIFO, Deterministic, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantT, _ := queueing.MD1Delay(lambda, 1)
	wantN, _ := queueing.MD1Number(lambda, 1)
	if rel(res.MeanDelay, wantT) > 0.03 {
		t.Errorf("M/D/1 delay: sim %v, theory %v", res.MeanDelay, wantT)
	}
	if rel(res.MeanN, wantN) > 0.03 {
		t.Errorf("M/D/1 number: sim %v, theory %v", res.MeanN, wantN)
	}
	if res.LittleRelErr > 0.02 {
		t.Errorf("Little's law self-check failed: %v", res.LittleRelErr)
	}
	// One hop per packet: E[R] == E[N].
	if rel(res.MeanR, res.MeanN) > 1e-9 {
		t.Errorf("R != N on a single queue: %v vs %v", res.MeanR, res.MeanN)
	}
}

func TestSingleQueueMM1(t *testing.T) {
	lambda := 0.7
	cfg := singleQueueConfig(lambda, FIFO, Exponential, 2)
	cfg.Horizon = 250000 // M/M/1 mixes slowly at rho = 0.7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantT, _ := queueing.MM1Delay(lambda, 1)
	wantN, _ := queueing.MM1Number(lambda, 1)
	if rel(res.MeanDelay, wantT) > 0.04 {
		t.Errorf("M/M/1 delay: sim %v, theory %v", res.MeanDelay, wantT)
	}
	if rel(res.MeanN, wantN) > 0.04 {
		t.Errorf("M/M/1 number: sim %v, theory %v", res.MeanN, wantN)
	}
}

func TestSingleQueuePSMatchesMM1(t *testing.T) {
	// PS with deterministic unit service has the M/M/1 equilibrium
	// distribution (the product-form insensitivity Theorem 5 relies on).
	lambda := 0.7
	res, err := Run(singleQueueConfig(lambda, PS, Deterministic, 3))
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := queueing.MM1Number(lambda, 1)
	if rel(res.MeanN, wantN) > 0.05 {
		t.Errorf("PS/D/1 number: sim %v, M/M/1 theory %v", res.MeanN, wantN)
	}
}

func TestSingleQueueEdgeRateMeasured(t *testing.T) {
	lambda := 0.4
	res, err := Run(singleQueueConfig(lambda, FIFO, Deterministic, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rel(res.EdgeRates[0], lambda) > 0.03 {
		t.Errorf("measured edge rate %v, want %v", res.EdgeRates[0], lambda)
	}
}

func arrayConfig(n int, rho float64, seed uint64) Config {
	a := topology.NewArray2D(n)
	return Config{
		Net:      a,
		Router:   routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: bounds.LambdaForLoad(n, rho),
		Warmup:   500,
		Horizon:  4000,
		Seed:     seed,
	}
}

func TestArrayDeterminism(t *testing.T) {
	a, err := Run(arrayConfig(5, 0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(arrayConfig(5, 0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDelay != b.MeanDelay || a.MeanN != b.MeanN || a.Delivered != b.Delivered {
		t.Error("same seed produced different results")
	}
	c, err := Run(arrayConfig(5, 0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDelay == c.MeanDelay && a.Delivered == c.Delivered {
		t.Error("different seeds produced identical results")
	}
}

func TestArrayBoundsSandwich(t *testing.T) {
	// The paper's main statement: lower bound <= simulated T <= upper
	// bound. Allow small tolerance for simulation noise.
	for _, tc := range []struct {
		n   int
		rho float64
	}{{5, 0.5}, {5, 0.8}, {6, 0.8}, {9, 0.5}} {
		cfg := arrayConfig(tc.n, tc.rho, 11)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lower := bounds.BestLowerBound(tc.n, cfg.NodeRate)
		upper := bounds.UpperBoundT(tc.n, cfg.NodeRate)
		if res.MeanDelay < lower*0.97 {
			t.Errorf("n=%d rho=%v: sim T %v below lower bound %v", tc.n, tc.rho, res.MeanDelay, lower)
		}
		if res.MeanDelay > upper*1.03 {
			t.Errorf("n=%d rho=%v: sim T %v above upper bound %v", tc.n, tc.rho, res.MeanDelay, upper)
		}
		if res.LittleRelErr > 0.03 {
			t.Errorf("n=%d rho=%v: Little self-check %v", tc.n, tc.rho, res.LittleRelErr)
		}
	}
}

func TestArrayEdgeRatesMatchTheorem6(t *testing.T) {
	n := 5
	cfg := arrayConfig(n, 0.5, 13)
	cfg.Horizon = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.Net.(*topology.Array2D)
	want := bounds.EdgeRates(a, cfg.NodeRate)
	for e := range want {
		if math.Abs(res.EdgeRates[e]-want[e]) > 0.10*want[e]+0.01 {
			r, c, d := a.EdgeInfo(e)
			t.Errorf("edge (%d,%d,%v): measured %v, Theorem 6 %v", r, c, d, res.EdgeRates[e], want[e])
		}
	}
}

func TestArrayTableIShape(t *testing.T) {
	// At low load the M/D/1 estimate is accurate; at high load it
	// overestimates the simulated delay (the paper's central observation
	// about Table I).
	n := 10
	low := arrayConfig(n, 0.2, 17)
	resLow, err := Run(low)
	if err != nil {
		t.Fatal(err)
	}
	est := bounds.MD1ApproxT(n, low.NodeRate)
	if rel(resLow.MeanDelay, est) > 0.08 {
		t.Errorf("rho=0.2: sim %v vs estimate %v should be close", resLow.MeanDelay, est)
	}
	high := arrayConfig(n, 0.95, 19)
	high.Warmup, high.Horizon = 2000, 12000
	resHigh, err := Run(high)
	if err != nil {
		t.Fatal(err)
	}
	estHigh := bounds.MD1ApproxT(n, high.NodeRate)
	if resHigh.MeanDelay > estHigh {
		t.Errorf("rho=0.95: sim %v should fall below estimate %v", resHigh.MeanDelay, estHigh)
	}
}

func TestPSDominatesFIFOAndMatchesJackson(t *testing.T) {
	// Theorem 5: E[N] under PS (== Jackson) upper-bounds E[N] under FIFO
	// with deterministic service; and PS-with-unit-service matches the
	// Jackson product form numerically.
	n := 5
	rho := 0.7
	fifoCfg := arrayConfig(n, rho, 23)
	fifoCfg.Warmup, fifoCfg.Horizon = 1000, 8000
	psCfg := fifoCfg
	psCfg.Discipline = PS
	jackCfg := fifoCfg
	jackCfg.Service = Exponential

	resFIFO, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	resPS, err := Run(psCfg)
	if err != nil {
		t.Fatal(err)
	}
	resJack, err := Run(jackCfg)
	if err != nil {
		t.Fatal(err)
	}
	a := fifoCfg.Net.(*topology.Array2D)
	rates := bounds.EdgeRates(a, fifoCfg.NodeRate)
	ones := make([]float64, len(rates))
	for i := range ones {
		ones[i] = 1
	}
	jackN, err := queueing.JacksonNumber(rates, ones)
	if err != nil {
		t.Fatal(err)
	}
	if resPS.MeanN < resFIFO.MeanN*0.98 {
		t.Errorf("Theorem 5 violated: PS N %v < FIFO N %v", resPS.MeanN, resFIFO.MeanN)
	}
	if rel(resPS.MeanN, jackN) > 0.10 {
		t.Errorf("PS N %v far from Jackson product form %v", resPS.MeanN, jackN)
	}
	if rel(resJack.MeanN, jackN) > 0.10 {
		t.Errorf("exponential-service N %v far from Jackson product form %v", resJack.MeanN, jackN)
	}
}

func TestRPerNReasonable(t *testing.T) {
	// Table II: r < n̄₂, and roughly 2.57 for n=5 at moderate load.
	n := 5
	cfg := arrayConfig(n, 0.5, 29)
	cfg.Warmup, cfg.Horizon = 1000, 10000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RPerN >= bounds.MeanDistExcl(n) {
		t.Errorf("r = %v should be below n̄₂ = %v", res.RPerN, bounds.MeanDistExcl(n))
	}
	if math.Abs(res.RPerN-2.574) > 0.25 {
		t.Errorf("r = %v, paper reports ~2.574", res.RPerN)
	}
}

func TestRsTracking(t *testing.T) {
	n := 5
	cfg := arrayConfig(n, 0.8, 31)
	a := cfg.Net.(*topology.Array2D)
	cfg.Saturated = bounds.SaturatedEdges(a)
	cfg.Warmup, cfg.Horizon = 1000, 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRs <= 0 || res.MeanRs > res.MeanR {
		t.Errorf("R_s = %v out of (0, R=%v]", res.MeanRs, res.MeanR)
	}
	// r_s can exceed s̄ only by noise; it is bounded by the max saturated
	// crossings per packet.
	if res.RsPerN > float64(bounds.MaxSaturatedCrossings(n)) {
		t.Errorf("r_s = %v exceeds max crossings %d", res.RsPerN, bounds.MaxSaturatedCrossings(n))
	}
}

func TestPerNodeArrivalsMatchMerged(t *testing.T) {
	// Ablation: per-node Poisson clocks and the merged process agree.
	cfg := arrayConfig(5, 0.6, 37)
	cfg.Warmup, cfg.Horizon = 1000, 8000
	merged, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PerNodeArrivals = true
	cfg.Seed = 38
	perNode, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel(perNode.MeanDelay, merged.MeanDelay) > 0.08 {
		t.Errorf("per-node %v vs merged %v delays diverge", perNode.MeanDelay, merged.MeanDelay)
	}
	if rel(perNode.MeanN, merged.MeanN) > 0.10 {
		t.Errorf("per-node %v vs merged %v N diverge", perNode.MeanN, merged.MeanN)
	}
}

func TestSlottedWithinTauOfContinuous(t *testing.T) {
	// §5.2: the slotted model's delay is within τ of the continuous one.
	cfg := arrayConfig(4, 0.6, 41)
	cfg.Warmup, cfg.Horizon = 1000, 8000
	cont, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlotTau = 1
	slot, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(slot.MeanDelay - cont.MeanDelay); diff > cfg.SlotTau+0.3 {
		t.Errorf("slotted %v vs continuous %v differ by %v > τ", slot.MeanDelay, cont.MeanDelay, diff)
	}
}

func TestZeroHopPacketsCounted(t *testing.T) {
	// With a fixed destination equal to the only source, every packet has
	// delay zero and the system stays empty.
	cfg := Config{
		Net:      topology.NewArray2D(3),
		Router:   routing.GreedyXY{A: topology.NewArray2D(3)},
		Dest:     routing.FixedDest{Node: 4},
		NodeRate: 0.05,
		Horizon:  1000,
		Seed:     43,
	}
	// All 9 nodes generate; packets from node 4 to node 4 have zero hops.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay.Min() != 0 {
		t.Errorf("expected some zero-delay packets, min = %v", res.Delay.Min())
	}
	if res.MeanDelay <= 0 {
		t.Errorf("non-trivial packets should have positive delay")
	}
}

func TestRunReplicasDeterministicAcrossWorkers(t *testing.T) {
	cfg := arrayConfig(4, 0.5, 47)
	cfg.Warmup, cfg.Horizon = 200, 1500
	one, err := RunReplicas(context.Background(), cfg, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunReplicas(context.Background(), cfg, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if one.MeanDelay != many.MeanDelay || one.Delay.Count() != many.Delay.Count() {
		t.Error("replica results depend on worker count")
	}
	if len(one.Replicas) != 6 {
		t.Error("wrong replica count")
	}
	if one.DelayCI <= 0 {
		t.Error("no across-replica CI")
	}
	// Replicas must differ from each other (independent streams).
	if one.Replicas[0].MeanDelay == one.Replicas[1].MeanDelay {
		t.Error("replicas identical; streams not split")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := arrayConfig(4, 0.5, 1)
	cfg.Horizon = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero horizon accepted")
	}
	cfg = arrayConfig(4, 0.5, 1)
	cfg.ServiceTime = []float64{1}
	if _, err := Run(cfg); err == nil {
		t.Error("short ServiceTime accepted")
	}
	cfg = arrayConfig(4, 0.5, 1)
	cfg.NodeRate = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative rate accepted")
	}
	cfg = arrayConfig(4, 0.5, 1)
	cfg.SlotTau = 1
	cfg.PerNodeArrivals = true
	if _, err := Run(cfg); err == nil {
		t.Error("ambiguous arrival model accepted")
	}
}

func TestVariableServiceRates(t *testing.T) {
	// Doubling every edge's speed at fixed λ halves the delay of the
	// M/D/1-like single queue; on the array it should cut delay roughly in
	// half too (service times scale, waiting scales with them).
	cfg := arrayConfig(4, 0.5, 53)
	cfg.Warmup, cfg.Horizon = 1000, 6000
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast := cfg
	fast.ServiceTime = make([]float64, cfg.Net.NumEdges())
	for i := range fast.ServiceTime {
		fast.ServiceTime[i] = 0.5
	}
	resFast, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.MeanDelay / resFast.MeanDelay
	if ratio < 1.8 || ratio > 2.4 {
		t.Errorf("doubling all rates changed delay by %vx, want ~2x", ratio)
	}
}

func tandemConfig(n int, lambda float64, svc ServiceModel, seed uint64) Config {
	l := topology.NewLinear(n)
	return Config{
		Net:      topology.Restrict{Network: l, Nodes: []int{0}},
		Router:   routing.LinearRoute{L: l},
		Dest:     routing.FixedDest{Node: n - 1},
		NodeRate: lambda,
		Warmup:   3000,
		Horizon:  40000,
		Seed:     seed,
		Service:  svc,
	}
}

func TestTandemDeterministicExactTheory(t *testing.T) {
	// Tandem deterministic queues: departures from the first (M/D/1) queue
	// are spaced at least one service time apart, so downstream queues
	// never hold a waiting packet: N = N_MD1(λ) + (d-1)λ exactly, and the
	// delay is T_MD1 + (d-1).
	n := 6
	lambda := 0.8
	res, err := Run(tandemConfig(n, lambda, Deterministic, 83))
	if err != nil {
		t.Fatal(err)
	}
	nmd1, _ := queueing.MD1Number(lambda, 1)
	tmd1, _ := queueing.MD1Delay(lambda, 1)
	d := float64(n - 1)
	wantN := nmd1 + (d-1)*lambda
	wantT := tmd1 + (d - 1)
	if rel(res.MeanN, wantN) > 0.03 {
		t.Errorf("tandem N = %v, theory %v", res.MeanN, wantN)
	}
	if rel(res.MeanDelay, wantT) > 0.03 {
		t.Errorf("tandem T = %v, theory %v", res.MeanDelay, wantT)
	}
}

func TestTandemExponentialBurke(t *testing.T) {
	// Burke's theorem: the output of an M/M/1 queue is Poisson, so an
	// exponential tandem is d independent M/M/1 queues: N = d·λ/(1-λ).
	n := 5
	lambda := 0.6
	cfg := tandemConfig(n, lambda, Exponential, 89)
	cfg.Horizon = 120000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantN := float64(n-1) * lambda / (1 - lambda)
	if rel(res.MeanN, wantN) > 0.05 {
		t.Errorf("exponential tandem N = %v, Burke theory %v", res.MeanN, wantN)
	}
}

func TestRestrictSources(t *testing.T) {
	// With entry restricted to node 0, no packets are generated elsewhere:
	// the first edge carries rate λ and every edge carries the same rate.
	res, err := Run(tandemConfig(4, 0.5, Deterministic, 97))
	if err != nil {
		t.Fatal(err)
	}
	l := topology.NewLinear(4)
	for i := 0; i < 3; i++ {
		e := l.EdgeRight(i)
		if rel(res.EdgeRates[e], 0.5) > 0.05 {
			t.Errorf("edge %d rate %v, want 0.5", e, res.EdgeRates[e])
		}
	}
	for i := 1; i < 4; i++ {
		e := l.EdgeLeft(i)
		if res.EdgeRates[e] != 0 {
			t.Errorf("left edge %d should be unused, rate %v", e, res.EdgeRates[e])
		}
	}
}

func TestFurthestFirstSingleQueueIsWorkConserving(t *testing.T) {
	// On a single queue every packet has one hop left, so furthest-first
	// degenerates to FIFO and must match M/D/1 theory.
	lambda := 0.7
	cfg := singleQueueConfig(lambda, FurthestFirst, Deterministic, 101)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := queueing.MD1Number(lambda, 1)
	if rel(res.MeanN, wantN) > 0.03 {
		t.Errorf("furthest-first single queue N = %v, M/D/1 %v", res.MeanN, wantN)
	}
}

func TestFurthestFirstArrayStable(t *testing.T) {
	// The scheduling order does not change stability or the number in
	// system by much; mean N must stay in the FIFO ballpark and Little's
	// law must hold.
	cfg := arrayConfig(5, 0.8, 103)
	cfg.Warmup, cfg.Horizon = 1000, 8000
	fifoRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Discipline = FurthestFirst
	ffRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel(ffRes.MeanN, fifoRes.MeanN) > 0.25 {
		t.Errorf("furthest-first N %v far from FIFO N %v", ffRes.MeanN, fifoRes.MeanN)
	}
	if ffRes.LittleRelErr > 0.03 {
		t.Errorf("Little self-check %v", ffRes.LittleRelErr)
	}
}

func TestNDistMatchesGeometricMM1(t *testing.T) {
	// For a single M/M/1 queue the equilibrium N is geometric:
	// Pr[N=k] = (1-ρ)ρ^k. The exact time-weighted NDist must match.
	lambda := 0.6
	cfg := singleQueueConfig(lambda, FIFO, Exponential, 61)
	cfg.TrackNDist = true
	cfg.Horizon = 150000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NDist == nil {
		t.Fatal("NDist not tracked")
	}
	total := 0.0
	mean := 0.0
	for k, p := range res.NDist {
		total += p
		mean += float64(k) * p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("NDist sums to %v", total)
	}
	if rel(mean, res.MeanN) > 1e-9 {
		t.Errorf("NDist mean %v != MeanN %v", mean, res.MeanN)
	}
	for k := 0; k <= 4; k++ {
		want := (1 - lambda) * math.Pow(lambda, float64(k))
		if math.Abs(res.NDist[k]-want) > 0.02 {
			t.Errorf("Pr[N=%d] = %v, geometric predicts %v", k, res.NDist[k], want)
		}
	}
	// Tail helper consistency.
	if got := res.TailProb(0); math.Abs(got-(1-res.NDist[0])) > 1e-9 {
		t.Errorf("TailProb(0) = %v", got)
	}
}

func TestNDistDominationFIFOvsPS(t *testing.T) {
	// Theorem 5 is a stochastic dominance statement: Pr[N_FIFO > k] should
	// not exceed Pr[N_PS > k] (up to noise) for every k.
	cfg := arrayConfig(5, 0.8, 67)
	cfg.Warmup, cfg.Horizon = 1500, 12000
	cfg.TrackNDist = true
	fifo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	psCfg := cfg
	psCfg.Discipline = PS
	ps, err := Run(psCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Check dominance at the FIFO distribution's deciles.
	violations := 0
	for k := 0; k < len(fifo.NDist); k += 5 {
		if fifo.TailProb(k) > ps.TailProb(k)+0.05 {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d dominance violations beyond noise", violations)
	}
}

func TestEdgeOccupancyMiddleDominates(t *testing.T) {
	// §4.4: middle queues hold more packets than peripheral ones.
	n := 6
	cfg := arrayConfig(n, 0.9, 71)
	cfg.Warmup, cfg.Horizon = 1500, 10000
	cfg.TrackEdgeOccupancy = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeOccupancy == nil {
		t.Fatal("occupancy not tracked")
	}
	a := cfg.Net.(*topology.Array2D)
	sat := bounds.SaturatedEdges(a)
	var mid, edge stats.Welford
	for e := range res.EdgeOccupancy {
		r, c, d := a.EdgeInfo(e)
		_ = r
		_ = c
		_ = d
		if sat[e] {
			mid.Add(res.EdgeOccupancy[e])
		} else if i := rateIndexForTest(a, e); i == 1 || i == n-1 {
			edge.Add(res.EdgeOccupancy[e])
		}
	}
	if mid.Mean() <= 2*edge.Mean() {
		t.Errorf("middle occupancy %v not clearly above periphery %v", mid.Mean(), edge.Mean())
	}
}

// rateIndexForTest mirrors the Theorem 6 rate index of an edge.
func rateIndexForTest(a *topology.Array2D, e int) int {
	r, c, d := a.EdgeInfo(e)
	switch d {
	case topology.Right:
		return c + 1
	case topology.Left:
		return c
	case topology.Down:
		return r + 1
	default:
		return r
	}
}

func TestSingleQueueOccupancyMatchesMD1(t *testing.T) {
	lambda := 0.7
	cfg := singleQueueConfig(lambda, FIFO, Deterministic, 73)
	cfg.TrackEdgeOccupancy = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := queueing.MD1Number(lambda, 1)
	if rel(res.EdgeOccupancy[0], wantN) > 0.05 {
		t.Errorf("occupancy %v, M/D/1 theory %v", res.EdgeOccupancy[0], wantN)
	}
	// With a single queue, occupancy == N.
	if rel(res.EdgeOccupancy[0], res.MeanN) > 1e-9 {
		t.Errorf("occupancy %v != MeanN %v", res.EdgeOccupancy[0], res.MeanN)
	}
}

func TestDelayHistogram(t *testing.T) {
	cfg := arrayConfig(5, 0.7, 79)
	cfg.DelayHistWidth = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayHist == nil {
		t.Fatal("histogram not tracked")
	}
	if res.DelayHist.Total() != res.Delivered {
		t.Errorf("histogram count %d != delivered %d", res.DelayHist.Total(), res.Delivered)
	}
	p50 := res.DelayHist.Quantile(0.5)
	p99 := res.DelayHist.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles disordered: p50=%v p99=%v", p50, p99)
	}
	if res.Delay.Max() > float64(res.DelayHist.Quantile(1))+0.5 {
		t.Errorf("max %v beyond histogram top %v", res.Delay.Max(), res.DelayHist.Quantile(1))
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
