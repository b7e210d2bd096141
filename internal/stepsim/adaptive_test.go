package stepsim

import (
	"context"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// runSweep collects a sweep's cells in input order.
func runSweep(cfgs []Config, opts SweepOpts) ([]ReplicaSet, error) {
	return sweep.Collect(len(cfgs), func(emit func(int, ReplicaSet, error)) {
		StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
	})
}

// smallCfg is a fast adaptive-test configuration: big enough to have real
// queueing variance, small enough that dozens of replicas stay cheap.
func smallCfg(n int, rho float64, seed uint64) Config {
	c := arrayCfg(n, rho, seed)
	c.WarmupSlots, c.Slots = 500, 4000
	return c
}

// TestAdaptiveMatchesFixed pins that adaptive options with no target
// reproduce the fixed 3-replica sweep's goldens bit for bit: fixed mode is
// the one-rung ladder of the same pool.
func TestAdaptiveMatchesFixed(t *testing.T) {
	fixed := sweepGoldenModes()[0]
	fixed.opts = &SweepOpts{Replicas: 3}
	checkSweepGolden(t, fixed, 4, runSweepGolden(t, fixed, 4))
}

// TestAdaptiveStopsAtTarget checks sequential stopping on the slotted
// engine: loose targets stop at MinReps, and any early stop's reported
// half-width really is under the target.
func TestAdaptiveStopsAtTarget(t *testing.T) {
	cfg := smallCfg(6, 0.6, 17)
	loose, err := runSweep([]Config{cfg}, SweepOpts{TargetCI: 50, MinReps: 3, MaxReps: 24, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if loose[0].ReplicasUsed != 3 {
		t.Errorf("loose target used %d replicas, want MinReps=3", loose[0].ReplicasUsed)
	}
	tight, err := runSweep([]Config{cfg}, SweepOpts{TargetCI: 0.01, MinReps: 3, MaxReps: 24, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tight[0].ReplicasUsed < 24 && tight[0].DelayCI > 0.01 {
		t.Errorf("stopped at %d replicas but half-width %v exceeds target", tight[0].ReplicasUsed, tight[0].DelayCI)
	}
	if tight[0].ReplicasUsed <= loose[0].ReplicasUsed && tight[0].DelayCI > loose[0].DelayCI {
		t.Errorf("tighter target did not spend more replicas: %d vs %d", tight[0].ReplicasUsed, loose[0].ReplicasUsed)
	}
}

// TestWarmStartLadderAgreement runs a ρ-ladder cold and warm-started; the
// chained version must agree statistically at every point and be
// bit-identical at the ladder head (which has no predecessor to resume).
func TestWarmStartLadderAgreement(t *testing.T) {
	n := 6
	mk := func(rho float64) Config {
		c := smallCfg(n, rho, 404)
		c.NodeRate = bounds.LambdaTable(n, rho)
		return c
	}
	cfgs := []Config{mk(0.5), mk(0.6), mk(0.7)}
	cold, err := runSweep(cfgs, SweepOpts{Replicas: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runSweep(cfgs, SweepOpts{Replicas: 5, Workers: 4, WarmStart: true, Rewarm: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm[0].MeanDelay) != math.Float64bits(cold[0].MeanDelay) {
		t.Errorf("ladder head: warm %v != cold %v", warm[0].MeanDelay, cold[0].MeanDelay)
	}
	for i := range cfgs {
		tol := 4*(cold[i].DelayCI+warm[i].DelayCI) + 0.05*cold[i].MeanDelay
		if diff := math.Abs(warm[i].MeanDelay - cold[i].MeanDelay); diff > tol {
			t.Errorf("point %d: warm %v vs cold %v differ by %v (tol %v)",
				i, warm[i].MeanDelay, cold[i].MeanDelay, diff, tol)
		}
	}
}

// TestCRNPairedDifference demonstrates the common-random-numbers design:
// replica r runs the stream Split(seed, r) at every sweep point, so
// per-replica delays at adjacent ρ are positively correlated and the
// paired-difference interval (stats.PairedDiff) is far tighter than the
// unpaired one. This is the estimator cmd/sweep's ladder deltas rely on.
func TestCRNPairedDifference(t *testing.T) {
	n := 6
	const reps = 8
	lo, hi := smallCfg(n, 0.60, 777), smallCfg(n, 0.65, 777) // shared base seed = CRN
	sets, err := runSweep([]Config{lo, hi}, SweepOpts{Replicas: reps, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, reps)
	y := make([]float64, reps)
	var wx, wy stats.Welford
	for r := 0; r < reps; r++ {
		x[r] = sets[1].Replicas[r].MeanDelay
		y[r] = sets[0].Replicas[r].MeanDelay
		wx.Add(x[r])
		wy.Add(y[r])
	}
	diff, pairedHW := stats.PairedDiff(x, y)
	unpairedHW := 1.96 * math.Sqrt(wx.Variance()/reps+wy.Variance()/reps)
	if diff <= 0 {
		t.Errorf("delay did not increase with ρ: paired diff %v", diff)
	}
	if pairedHW >= unpairedHW {
		t.Errorf("CRN pairing did not tighten the contrast: paired %v vs unpaired %v", pairedHW, unpairedHW)
	}
	t.Logf("Δdelay %.4f, paired hw %.4f, unpaired hw %.4f (%.1fx tighter)",
		diff, pairedHW, unpairedHW, unpairedHW/pairedHW)
}
