package sweep

import (
	"context"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// toyCfg, toySnap and toyRun are a stand-in engine: a replica's "delay" is
// its seed's low bits, and a captured snapshot remembers which seed
// produced it, so a test can trace every link of a chain.
type toyCfg struct {
	seed uint64
	fail bool
}

type toySnap struct{ from uint64 }

type toyRun struct {
	seed    uint64
	resumed *toySnap
	rewarm  float64
	snap    *toySnap
}

var errToy = errors.New("toy failure")

var toy = Adapter[toyCfg, toyRun, *toySnap, []toyRun]{
	Seed: func(c toyCfg) uint64 { return c.seed },
	NewRunner: func() func(toyCfg, Replica[*toySnap]) (toyRun, error) {
		return func(c toyCfg, rep Replica[*toySnap]) (toyRun, error) {
			if c.fail {
				return toyRun{}, errToy
			}
			r := toyRun{seed: rep.Seed, resumed: rep.Resume}
			if rep.Resume != nil {
				r.rewarm = rep.Rewarm
			}
			if rep.Capture {
				r.snap = &toySnap{from: rep.Seed}
			}
			return r, nil
		}
	},
	Delay: func(r toyRun) float64 { return float64(r.seed % 1000) },
	Detach: func(r *toyRun) *toySnap {
		sn := r.snap
		r.snap = nil
		return sn
	},
	Aggregate: func(rs []toyRun) []toyRun { return rs },
}

func collectToy(t *testing.T, cfgs []toyCfg, opts Opts) ([][]toyRun, error) {
	t.Helper()
	return Collect(len(cfgs), func(emit func(int, []toyRun, error)) {
		Stream(context.Background(), toy, cfgs, opts, emit)
	})
}

// TestStreamWarmChain pins the warm-start chain: replica r of point i
// runs Split(seed, r) and resumes the snapshot replica r captured at point
// i−1 with Rewarm; the head runs cold; snapshots are detached before
// aggregation; and an errored point breaks the chain, so its successor
// runs cold.
func TestStreamWarmChain(t *testing.T) {
	cfgs := []toyCfg{{seed: 7}, {seed: 7}, {seed: 7, fail: true}, {seed: 7}}
	cells, err := collectToy(t, cfgs, Opts{Replicas: 3, Workers: 2, WarmStart: true, Rewarm: 25})
	if !errors.Is(err, errToy) {
		t.Fatalf("got error %v, want the failing point's", err)
	}
	for i, cell := range cells {
		if i == 2 {
			if cell != nil {
				t.Errorf("failed point emitted a cell")
			}
			continue
		}
		if len(cell) != 3 {
			t.Fatalf("point %d: %d replicas, want 3", i, len(cell))
		}
		for r, run := range cell {
			if want := xrand.Split(7, uint64(r)).Uint64(); run.seed != want {
				t.Errorf("point %d replica %d: seed %#x, want Split(7, %d)", i, r, run.seed, r)
			}
			if run.snap != nil {
				t.Errorf("point %d replica %d: snapshot not detached", i, r)
			}
			warm := i == 1 // the head and the point after the failure run cold
			if got := run.resumed != nil; got != warm {
				t.Errorf("point %d replica %d: resumed=%v, want %v", i, r, got, warm)
			}
			if warm && (run.resumed.from != run.seed || run.rewarm != 25) {
				t.Errorf("point %d replica %d: resumed %+v with rewarm %v", i, r, *run.resumed, run.rewarm)
			}
		}
	}
}

// TestFixedModeIgnoresLadder pins normalization: without a target the
// ladder is the single rung Replicas, whatever MinReps and MaxReps say.
func TestFixedModeIgnoresLadder(t *testing.T) {
	cells, err := collectToy(t, []toyCfg{{seed: 1}, {seed: 2}}, Opts{Replicas: 3, MinReps: 5, MaxReps: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if len(cell) != 3 {
			t.Errorf("point %d: %d replicas, want 3", i, len(cell))
		}
	}
}

// TestCellCaptureOff: without capture the returned snapshots are all nil
// and a resumed chain link still reaches the runner.
func TestCellCaptureOff(t *testing.T) {
	prev := []*toySnap{{from: 1}, nil}
	cell, snaps, err := Cell(context.Background(), toy, toyCfg{seed: 3}, Opts{Replicas: 3}, prev, false)
	if err != nil {
		t.Fatal(err)
	}
	for r, sn := range snaps {
		if sn != nil {
			t.Errorf("replica %d: captured a snapshot with capture off", r)
		}
	}
	if cell[0].resumed != prev[0] || cell[1].resumed != nil || cell[2].resumed != nil {
		t.Errorf("resume links: %v %v %v", cell[0].resumed, cell[1].resumed, cell[2].resumed)
	}
}
