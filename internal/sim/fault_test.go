package sim

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

func bindFaults(t *testing.T, net topology.Network, spec *fault.Spec) *fault.Plan {
	t.Helper()
	plan, err := spec.Bind(net)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDESFaultDeterminism: two identical degraded runs must agree to the
// bit on every observable, including the fault counters and downtime
// fractions.
func TestDESFaultDeterminism(t *testing.T) {
	a := topology.NewArray2D(13)
	plan := bindFaults(t, a, &fault.Spec{
		LinkMTBF:     300,
		LinkMTTR:     20,
		LinkFraction: 0.2,
		NodeMTBF:     2000,
		NodeMTTR:     30,
		NodeFraction: 0.05,
		Outages: []fault.Outage{
			{Row0: 3, Col0: 3, Row1: 5, Col1: 5, Start: 500, Duration: 300},
		},
		Misbehave: []fault.Misbehave{
			{Mode: fault.ModeDelay, Nodes: []int{7}, ExtraDelay: 3},
			{Mode: fault.ModeMisroute, Nodes: []int{40}, Prob: 0.3},
			{Mode: fault.ModeDrop, Nodes: []int{100}, Prob: 0.2},
		},
		Seed: 11,
	})
	cfg := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.1,
		Warmup:   400, Horizon: 3000, Seed: 101,
		Faults: plan,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.MeanDelay) != math.Float64bits(r2.MeanDelay) ||
		math.Float64bits(r1.MeanN) != math.Float64bits(r2.MeanN) ||
		r1.Delivered != r2.Delivered || r1.Generated != r2.Generated ||
		r1.Dropped != r2.Dropped || r1.DeadEnds != r2.DeadEnds ||
		r1.DetourHops != r2.DetourHops || r1.Misrouted != r2.Misrouted ||
		math.Float64bits(r1.LinkDownFrac) != math.Float64bits(r2.LinkDownFrac) ||
		math.Float64bits(r1.NodeDownFrac) != math.Float64bits(r2.NodeDownFrac) {
		t.Fatalf("repeat run diverged:\n%+v\n%+v", r1, r2)
	}
	// The plan must actually bite.
	if r1.Dropped == 0 || r1.DetourHops == 0 {
		t.Errorf("fault plan inert: Dropped=%d DetourHops=%d", r1.Dropped, r1.DetourHops)
	}
	if r1.DeadEnds > r1.Dropped {
		t.Errorf("DeadEnds %d > Dropped %d", r1.DeadEnds, r1.Dropped)
	}
	if r1.Generated-r1.Delivered-r1.Dropped < 0 {
		t.Errorf("Delivered+Dropped exceed Generated: %+v", r1)
	}
}

// TestDESLinkDownFracStationary: with every link failure-prone the measured
// downtime fraction must approach the two-state Markov stationary value
// MTTR/(MTBF+MTTR) over a long horizon.
func TestDESLinkDownFracStationary(t *testing.T) {
	a := topology.NewArray2D(8)
	const mtbf, mttr = 200.0, 50.0
	plan := bindFaults(t, a, &fault.Spec{
		LinkMTBF: mtbf, LinkMTTR: mttr, LinkFraction: 1, Seed: 3,
	})
	res, err := Run(Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.02,
		Warmup:   100, Horizon: 20000, Seed: 9,
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mttr / (mtbf + mttr) // 0.2
	if res.LinkDownFrac < want*0.85 || res.LinkDownFrac > want*1.15 {
		t.Errorf("LinkDownFrac %v, want within 15%% of %v", res.LinkDownFrac, want)
	}
	if res.NodeDownFrac != 0 {
		t.Errorf("NodeDownFrac %v with no node faults", res.NodeDownFrac)
	}
}

// TestDESFaultValidation sweeps the configurations the fault layer must
// refuse rather than silently misbehave under.
func TestDESFaultValidation(t *testing.T) {
	a := topology.NewArray2D(8)
	plan := bindFaults(t, a, &fault.Spec{LinkMTBF: 100, LinkMTTR: 10, Seed: 1})
	base := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.1,
		Warmup:   10, Horizon: 100, Seed: 1,
		Faults: plan,
	}
	t.Run("ps discipline", func(t *testing.T) {
		cfg := base
		cfg.Discipline = PS
		if _, err := Run(cfg); err == nil {
			t.Error("PS + faults accepted")
		}
	})
	t.Run("saturated tracking", func(t *testing.T) {
		// R_s tracking works on degraded networks since the per-packet
		// remaining-service accounting: the combination must run.
		cfg := base
		cfg.Saturated = make([]bool, a.NumEdges())
		cfg.Saturated[0] = true
		if _, err := Run(cfg); err != nil {
			t.Errorf("Saturated + faults rejected: %v", err)
		}
	})
	t.Run("dims mismatch", func(t *testing.T) {
		small := topology.NewArray2D(4)
		cfg := base
		cfg.Faults = bindFaults(t, small, &fault.Spec{LinkMTBF: 100, LinkMTTR: 10})
		if _, err := Run(cfg); err == nil {
			t.Error("plan bound against another topology accepted")
		}
	})
}

// TestDESDropLiarCertain pins the DES adversary path and the counter
// gating: a certain drop liar produces drops but no recovery outcomes.
func TestDESDropLiarCertain(t *testing.T) {
	a := topology.NewArray2D(8)
	plan := bindFaults(t, a, &fault.Spec{
		Misbehave: []fault.Misbehave{{Mode: fault.ModeDrop, Nodes: []int{9}, Prob: 1}},
		Seed:      5,
	})
	res, err := Run(Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.2,
		Warmup:   200, Horizon: 2000, Seed: 42,
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("certain drop liar dropped nothing")
	}
	if res.DeadEnds != 0 || res.DetourHops != 0 {
		t.Errorf("liar-only plan produced recovery outcomes: %+v", res)
	}
}

// TestDESFaultFreeUntouched: a nil Faults field must leave the engine on
// the exact fault-free path — this re-runs one of the golden workloads
// with an explicitly nil plan and compares against itself only to assert
// the fault branches never fire (counters stay zero).
func TestDESFaultFreeUntouched(t *testing.T) {
	a := topology.NewArray2D(8)
	res, err := Run(Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.2,
		Warmup:   100, Horizon: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.DeadEnds != 0 || res.DetourHops != 0 || res.Misrouted != 0 ||
		res.LinkDownFrac != 0 || res.NodeDownFrac != 0 {
		t.Errorf("fault observables nonzero on a fault-free run: %+v", res)
	}
}

// TestDESDowntimeUnion is the regression test for the PR 8 known issue:
// node downtime was accounted as Markov downtime plus outage downtime,
// double-counting a node that is Markov-down inside an outage window
// covering it. With the whole array failure-prone, failing almost
// immediately and never repairing, under a full-horizon outage over every
// node, the additive accounting reports a down fraction near 2 — the union
// can never exceed 1.
func TestDESDowntimeUnion(t *testing.T) {
	a := topology.NewArray2D(4)
	plan := bindFaults(t, a, &fault.Spec{
		NodeMTBF:     0.01,
		NodeMTTR:     1e12,
		NodeFraction: 1,
		Outages: []fault.Outage{
			{Row0: 0, Col0: 0, Row1: 3, Col1: 3, Start: 0, Duration: 1e9},
		},
		Seed: 3,
	})
	cfg := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.05,
		Warmup:   100, Horizon: 1100, Seed: 9,
		Faults: plan,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeDownFrac > 1+1e-9 {
		t.Errorf("NodeDownFrac = %v > 1: Markov and outage downtime double-counted", res.NodeDownFrac)
	}
	if res.NodeDownFrac < 0.99 {
		t.Errorf("NodeDownFrac = %v, want ~1 (every node down the whole window)", res.NodeDownFrac)
	}
}

// TestDESDowntimeOverlappingOutages pins the other face of the union: two
// outages over the same region with overlapping windows charge the merged
// window once, so the fraction matches the analytic value exactly.
func TestDESDowntimeOverlappingOutages(t *testing.T) {
	a := topology.NewArray2D(4)
	plan := bindFaults(t, a, &fault.Spec{
		Outages: []fault.Outage{
			{Row0: 0, Col0: 0, Row1: 1, Col1: 1, Start: 200, Duration: 400},
			{Row0: 0, Col0: 0, Row1: 1, Col1: 1, Start: 400, Duration: 400},
		},
		Seed: 3,
	})
	cfg := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.05,
		Warmup:   100, Horizon: 1000, Seed: 9,
		Faults: plan,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes down over the merged window [200, 800) of the measurement
	// window [100, 1100), across 16 nodes.
	want := 4.0 * 600.0 / (16.0 * 1000.0)
	if math.Abs(res.NodeDownFrac-want) > 1e-12 {
		t.Errorf("NodeDownFrac = %v, want %v (merged windows)", res.NodeDownFrac, want)
	}
}

// TestDESFaultMeanR pins the E[R]/E[R_s] wiring through the fault path:
// a degraded run must report nonzero remaining-service integrals (they
// were defined-zero before the per-packet accounting), r = E[R]/E[N] must
// be consistent, and E[R_s] must respond to a Saturated mask.
func TestDESFaultMeanR(t *testing.T) {
	a := topology.NewArray2D(8)
	plan := bindFaults(t, a, &fault.Spec{
		LinkMTBF: 200, LinkMTTR: 30, LinkFraction: 0.3,
		Misbehave: []fault.Misbehave{
			{Mode: fault.ModeMisroute, Nodes: []int{27}, Prob: 0.5},
		},
		Seed: 7,
	})
	cfg := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: 0.2,
		Warmup:   300, Horizon: 3000, Seed: 13,
		Faults: plan,
	}
	cfg.Saturated = make([]bool, a.NumEdges())
	for e := 0; e < a.NumEdges(); e++ {
		cfg.Saturated[e] = true // every hop saturated: E[R_s] must equal E[R]
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanR <= 0 {
		t.Fatalf("MeanR = %v on a degraded run, want > 0", res.MeanR)
	}
	if res.RPerN <= 0 || math.Abs(res.RPerN-res.MeanR/res.MeanN) > 1e-12 {
		t.Errorf("RPerN = %v inconsistent with MeanR/MeanN = %v", res.RPerN, res.MeanR/res.MeanN)
	}
	if math.Float64bits(res.MeanRs) != math.Float64bits(res.MeanR) {
		t.Errorf("all-saturated mask: MeanRs = %v != MeanR = %v", res.MeanRs, res.MeanR)
	}
	// Two identical runs must still agree to the bit with R tracking on.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res2.MeanR) != math.Float64bits(res.MeanR) ||
		math.Float64bits(res2.MeanRs) != math.Float64bits(res.MeanRs) {
		t.Error("degraded MeanR/MeanRs not deterministic")
	}
}
