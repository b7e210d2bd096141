package sim

import (
	"math"
	"testing"

	"repro/internal/bounds"
)

// TestRunSweepAdaptiveMatchesFixed pins that adaptive options with no
// target reproduce the fixed 3-replica sweep's goldens bit for bit: fixed
// mode is the one-rung ladder of the same pool.
func TestRunSweepAdaptiveMatchesFixed(t *testing.T) {
	fixed := sweepGoldenModes()[0]
	fixed.opts = &SweepOpts{Replicas: 3}
	checkSweepGolden(t, fixed, 4, runSweepGolden(t, fixed, 4))
}

// TestRunSweepAdaptiveStopsAtTarget checks sequential stopping: a loose
// target stops at MinReps; a tight one spends more replicas and either
// meets the target or reports the capped shortfall honestly.
func TestRunSweepAdaptiveStopsAtTarget(t *testing.T) {
	cfg := arrayConfig(5, 0.6, 7)
	loose, err := runSweep([]Config{cfg}, SweepOpts{TargetCI: 100, MinReps: 3, MaxReps: 24, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if loose[0].ReplicasUsed != 3 {
		t.Errorf("loose target used %d replicas, want MinReps=3", loose[0].ReplicasUsed)
	}
	tight, err := runSweep([]Config{cfg}, SweepOpts{TargetCI: 0.02, MinReps: 3, MaxReps: 24, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tight[0].ReplicasUsed <= 3 && tight[0].DelayCI > 0.02 {
		t.Errorf("tight target: %d replicas with half-width %v", tight[0].ReplicasUsed, tight[0].DelayCI)
	}
	if tight[0].ReplicasUsed < 24 && tight[0].DelayCI > 0.02 {
		t.Errorf("stopped at %d replicas but half-width %v exceeds target", tight[0].ReplicasUsed, tight[0].DelayCI)
	}
}

// TestWarmStartSweepAgreement runs a short ρ-ladder warm-started and cold
// and requires statistical agreement: chaining snapshots must not bias the
// per-point estimates.
func TestWarmStartSweepAgreement(t *testing.T) {
	n := 5
	mk := func(rho float64) Config {
		c := arrayConfig(n, rho, 303)
		c.NodeRate = bounds.LambdaForLoad(n, rho)
		c.Warmup, c.Horizon = 800, 6000
		return c
	}
	cfgs := []Config{mk(0.5), mk(0.6), mk(0.7)}
	cold, err := runSweep(cfgs, SweepOpts{Replicas: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runSweep(cfgs, SweepOpts{Replicas: 6, Workers: 4, WarmStart: true, Rewarm: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if warm[i].ReplicasUsed != 6 {
			t.Errorf("point %d: warm sweep used %d replicas, want 6", i, warm[i].ReplicasUsed)
		}
		tol := 4*(cold[i].DelayCI+warm[i].DelayCI) + 0.05*cold[i].MeanDelay
		if diff := math.Abs(warm[i].MeanDelay - cold[i].MeanDelay); diff > tol {
			t.Errorf("point %d: warm %v vs cold %v differ by %v (tol %v)",
				i, warm[i].MeanDelay, cold[i].MeanDelay, diff, tol)
		}
	}
	// The first point has no predecessor: it must be bit-identical to the
	// cold sweep (every replica starts cold with the full warmup).
	if math.Float64bits(warm[0].MeanDelay) != math.Float64bits(cold[0].MeanDelay) {
		t.Errorf("ladder head: warm %v != cold %v", warm[0].MeanDelay, cold[0].MeanDelay)
	}
}
