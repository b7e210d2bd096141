package sim

import (
	"math"
	"testing"
)

// TestRunnerMatchesRun drives one Runner through a deliberately hostile
// sequence of configurations — growing and shrinking topologies, switching
// disciplines and service models, slotted and per-node arrivals, and the optional trackers — and requires every
// result to be bit-identical to a fresh Run of the same config. This is the
// contract that lets the sweep pool reuse engines: state reuse must be
// semantically invisible.
func TestRunnerMatchesRun(t *testing.T) {
	cases := goldenCases()
	// Order the golden configs to maximize shape churn: big/small
	// alternation plus a repeat of the first so the fully-warm path runs.
	order := []int{0, 8, 1, 9, 2, 3, 10, 4, 5, 6, 7, 0}
	var runner Runner
	for _, ci := range order {
		gc := cases[ci]
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg()
			cfg.TrackEdgeOccupancy = true
			cfg.TrackNDist = true
			cfg.DelayHistWidth = 0.5
			reused, err := runner.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bitEq := func(field string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: runner %v != fresh %v", field, a, b)
				}
			}
			bitEq("MeanDelay", reused.MeanDelay, fresh.MeanDelay)
			bitEq("DelayCI", reused.DelayCI, fresh.DelayCI)
			bitEq("MeanN", reused.MeanN, fresh.MeanN)
			bitEq("MeanR", reused.MeanR, fresh.MeanR)
			bitEq("MeanRs", reused.MeanRs, fresh.MeanRs)
			bitEq("MaxN", reused.MaxN, fresh.MaxN)
			bitEq("LittleRelErr", reused.LittleRelErr, fresh.LittleRelErr)
			if reused.Generated != fresh.Generated || reused.Delivered != fresh.Delivered {
				t.Errorf("counts: runner %d/%d != fresh %d/%d",
					reused.Generated, reused.Delivered, fresh.Generated, fresh.Delivered)
			}
			for e := range fresh.EdgeRates {
				if reused.EdgeRates[e] != fresh.EdgeRates[e] {
					t.Fatalf("EdgeRates[%d] diverges", e)
				}
				if reused.EdgeOccupancy[e] != fresh.EdgeOccupancy[e] {
					t.Fatalf("EdgeOccupancy[%d] diverges", e)
				}
			}
			if len(reused.NDist) != len(fresh.NDist) {
				t.Fatalf("NDist length %d != %d", len(reused.NDist), len(fresh.NDist))
			}
			for k := range fresh.NDist {
				if reused.NDist[k] != fresh.NDist[k] {
					t.Fatalf("NDist[%d] diverges", k)
				}
			}
			if reused.DelayHist.Total() != fresh.DelayHist.Total() ||
				reused.DelayHist.Quantile(0.99) != fresh.DelayHist.Quantile(0.99) {
				t.Error("DelayHist diverges")
			}
		})
	}
}

// TestRunnerMatchesRunMaterialized alternates the AppendRoute-walking
// oracle router with the plain one through one Runner, so its route-step
// table switches between node-id keys (generic path) and packed array keys
// (closed form) under reuse.
func TestRunnerMatchesRunMaterialized(t *testing.T) {
	var runner Runner
	for i, gc := range goldenCases()[:4] {
		cfg := gc.cfg()
		if i%2 == 0 {
			cfg.Router = materialize(cfg.Router)
		}
		reused, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(reused.MeanDelay) != math.Float64bits(fresh.MeanDelay) ||
			reused.Delivered != fresh.Delivered {
			t.Errorf("%s (materialized=%v): runner diverges from fresh Run", gc.name, i%2 == 0)
		}
	}
}

// TestRunnerSteadyStateAllocs verifies the reuse contract the sweep pool
// relies on: after a warmup run, repeat runs of the same shape allocate a
// small constant (the engine struct, the per-run histogram-free result
// plumbing), far under the ~34 fresh-run setup allocations.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	cfg := arrayConfig(8, 0.8, 1)
	cfg.Warmup, cfg.Horizon = 50, 400
	var runner Runner
	if _, err := runner.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		cfg.Seed++
		if _, err := runner.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm Runner allocates %.0f times per run, want <= 8", allocs)
	}
}
