package sim

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
)

// sweepGoldenPoint pins one emitted cell of a sweep: the estimator of
// record, its half-width and the mean population as math.Float64bits,
// plus the replica spend.
type sweepGoldenPoint struct {
	meanDelay, delayCI, meanN uint64
	reps                      int
}

// sweepGoldenMode is one replication policy run over sweepGoldenConfigs.
// A nil opts means the fixed 3-replica StreamSweep.
type sweepGoldenMode struct {
	name string
	opts *SweepOpts
	want []sweepGoldenPoint
}

func sweepGoldenConfigs() []Config {
	var cfgs []Config
	for _, rho := range []float64{0.5, 0.7, 0.8} {
		cfg := arrayConfig(5, rho, 41) // shared base seed: CRN across the ladder
		cfg.Warmup, cfg.Horizon = 200, 1500
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// sweepGoldenModes records the sweep driver's output bit for bit: the
// fixed pool, sequential stopping and the warm-start chain. Regenerate
// (only for an intentional behavior change) with:
//
//	SIM_GOLDEN_PRINT=1 go test ./internal/sim -run TestSweepGoldens -v
func sweepGoldenModes() []sweepGoldenMode {
	return []sweepGoldenMode{
		{name: "fixed", want: []sweepGoldenPoint{
			{0x4010696f6c9f3674, 0x3fa392676dd5e264, 0x40456ea5653dd00f, 3},
			{0x4014ef6c2f1dd0b4, 0x3f9db4942b992f65, 0x4053332e3bf17935, 3},
			{0x401a7c81e1f16fce, 0x3fc3582624ffc05d, 0x405bb5d4e184434d, 3},
		}},
		{name: "adaptive", opts: &SweepOpts{TargetCI: 0.08, MinReps: 3, MaxReps: 12}, want: []sweepGoldenPoint{
			{0x4010696f6c9f3674, 0x3fa392676dd5e264, 0x40456ea5653dd00f, 3},
			{0x4014ef6c2f1dd0b4, 0x3f9db4942b992f65, 0x4053332e3bf17935, 3},
			{0x401a683383bffcfa, 0x3fb80d3ee17f6c3b, 0x405b9033c8a47d64, 12},
		}},
		{name: "warm", opts: &SweepOpts{TargetCI: 0.08, MinReps: 3, MaxReps: 12, WarmStart: true, Rewarm: 100}, want: []sweepGoldenPoint{
			{0x4010696f6c9f3674, 0x3fa392676dd5e264, 0x40456ea5653dd00f, 3},
			{0x401530cab53ea1e6, 0x3fa3b7b3b0a53b8f, 0x405377e3bd535183, 3},
			{0x401a72fafec3ba46, 0x3fb7eace78553bd3, 0x405b9a0612be1550, 12},
		}},
	}
}

// runSweepGolden runs mode m at the given worker count and returns the
// emitted cells in input order.
func runSweepGolden(t *testing.T, m sweepGoldenMode, workers int) []sweepGoldenPoint {
	t.Helper()
	cfgs := sweepGoldenConfigs()
	got := make([]sweepGoldenPoint, len(cfgs))
	emit := func(i int, rs ReplicaSet, err error) {
		if err != nil {
			t.Fatalf("%s workers=%d point %d: %v", m.name, workers, i, err)
		}
		got[i] = sweepGoldenPoint{math.Float64bits(rs.MeanDelay), math.Float64bits(rs.DelayCI), math.Float64bits(rs.MeanN), rs.ReplicasUsed}
	}
	if m.opts == nil {
		StreamSweep(context.Background(), cfgs, 3, workers, emit)
	} else {
		opts := *m.opts
		opts.Workers = workers
		StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
	}
	return got
}

func checkSweepGolden(t *testing.T, m sweepGoldenMode, workers int, got []sweepGoldenPoint) {
	t.Helper()
	for i, g := range got {
		if g != m.want[i] {
			t.Errorf("%s workers=%d point %d: got {%#x, %#x, %#x, %d} (T=%v ci=%v N=%v), want {%#x, %#x, %#x, %d}",
				m.name, workers, i, g.meanDelay, g.delayCI, g.meanN, g.reps,
				math.Float64frombits(g.meanDelay), math.Float64frombits(g.delayCI), math.Float64frombits(g.meanN),
				m.want[i].meanDelay, m.want[i].delayCI, m.want[i].meanN, m.want[i].reps)
		}
	}
}

// TestSweepGoldens pins every replication policy's cells bit for bit at 1
// and 4 workers: the pool, the stopping rule and the warm-start chain must
// not depend on scheduling, and must not drift.
func TestSweepGoldens(t *testing.T) {
	print := os.Getenv("SIM_GOLDEN_PRINT") != ""
	for _, m := range sweepGoldenModes() {
		for _, workers := range []int{1, 4} {
			got := runSweepGolden(t, m, workers)
			if print {
				if workers == 1 {
					fmt.Printf("%s:\n", m.name)
					for _, g := range got {
						fmt.Printf("\t{%#x, %#x, %#x, %d},\n", g.meanDelay, g.delayCI, g.meanN, g.reps)
					}
				}
				continue
			}
			checkSweepGolden(t, m, workers, got)
		}
	}
}
