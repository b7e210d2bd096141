package stepsim

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
		cfg := arrayCfg(6, rho, 43) // shared base seed: CRN across the ladder
		cfg.WarmupSlots, cfg.Slots = 200, 1500
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// sweepGoldenModes records the sweep driver's output bit for bit: the
// fixed pool, sequential stopping and the warm-start chain. Regenerate
// (only for an intentional behavior change) with:
//
//	SIM_GOLDEN_PRINT=1 go test ./internal/stepsim -run TestSweepGoldens -v
func sweepGoldenModes() []sweepGoldenMode {
	return []sweepGoldenMode{
		{name: "fixed", want: []sweepGoldenPoint{
			{0x401341019681f8ea, 0x3f66e49be4f4e3d6, 0x404d32674f6ab93b, 3},
			{0x40179e71eeffd64f, 0x3fb59ae6bf5b0328, 0x40590490b9af7201, 3},
			{0x401cb6bf008e5d20, 0x3fc14caa4e6154f9, 0x4061648b43958107, 3},
		}},
		{name: "adaptive", opts: &SweepOpts{TargetCI: 0.08, MinReps: 3, MaxReps: 12}, want: []sweepGoldenPoint{
			{0x401341019681f8ea, 0x3f66e49be4f4e3d6, 0x404d32674f6ab93b, 3},
			{0x40179fde7e408d2e, 0x3fae9607da3c00bb, 0x4058fb8a94d242e7, 4},
			{0x401c268f944575de, 0x3fb5f855374a1cf1, 0x4060ec65f1e43cfc, 12},
		}},
		{name: "warm", opts: &SweepOpts{TargetCI: 0.08, MinReps: 3, MaxReps: 12, WarmStart: true, Rewarm: 100}, want: []sweepGoldenPoint{
			{0x401341019681f8ea, 0x3f66e49be4f4e3d6, 0x404d32674f6ab93b, 3},
			{0x40171e896c5137c4, 0x3fa2e2b0dacf0767, 0x4058452600748229, 3},
			{0x401bdc8db8c8c401, 0x3fb2787d7c62c19e, 0x4060b24c756b2dbd, 12},
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
