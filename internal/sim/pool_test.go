package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/sweep"
)

// runSweep collects a sweep's cells in input order.
func runSweep(cfgs []Config, opts SweepOpts) ([]ReplicaSet, error) {
	return sweep.Collect(len(cfgs), func(emit func(int, ReplicaSet, error)) {
		StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
	})
}

func sweepConfigs() []Config {
	cfgs := make([]Config, 0, 3)
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		cfg := arrayConfig(4, rho, 71)
		cfg.Warmup, cfg.Horizon = 100, 800
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestRunSweepMatchesRunReplicas: the shared pool must produce exactly the
// per-cell aggregates that independent RunReplicas calls produce, because
// per-task seeds depend only on (cell seed, replica index).
func TestRunSweepMatchesRunReplicas(t *testing.T) {
	cfgs := sweepConfigs()
	sets, err := runSweep(cfgs, SweepOpts{Replicas: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := RunReplicas(context.Background(), cfg, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sets[i].MeanDelay != want.MeanDelay || sets[i].MeanN != want.MeanN ||
			sets[i].Delay.Count() != want.Delay.Count() {
			t.Errorf("cell %d: sweep (%v, %v, %d) != replicas (%v, %v, %d)",
				i, sets[i].MeanDelay, sets[i].MeanN, sets[i].Delay.Count(),
				want.MeanDelay, want.MeanN, want.Delay.Count())
		}
	}
}

// TestRunSweepDeterministicAcrossWorkers: worker count must not leak into
// results.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	cfgs := sweepConfigs()
	one, err := runSweep(cfgs, SweepOpts{Replicas: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := runSweep(cfgs, SweepOpts{Replicas: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if one[i].MeanDelay != many[i].MeanDelay || one[i].MeanN != many[i].MeanN {
			t.Errorf("cell %d depends on worker count", i)
		}
	}
}

// TestStreamSweepEmitsInInputOrder: emission order is the input order even
// though cells finish out of order (the high-load cell is slowest).
func TestStreamSweepEmitsInInputOrder(t *testing.T) {
	cfgs := sweepConfigs()
	var order []int
	StreamSweep(context.Background(), cfgs, 2, 6, func(i int, rs ReplicaSet, err error) {
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
		if len(rs.Replicas) != 2 {
			t.Errorf("cell %d: %d replicas", i, len(rs.Replicas))
		}
		if math.IsNaN(rs.MeanDelay) || rs.MeanDelay <= 0 {
			t.Errorf("cell %d: bad MeanDelay %v", i, rs.MeanDelay)
		}
		order = append(order, i)
	})
	if len(order) != len(cfgs) {
		t.Fatalf("emitted %d cells, want %d", len(order), len(cfgs))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order %v, want input order", order)
		}
	}
}

// TestRunSweepReportsPerCellErrors: an invalid cell errors without
// poisoning the valid cells around it.
func TestRunSweepReportsPerCellErrors(t *testing.T) {
	cfgs := sweepConfigs()
	cfgs[1].Horizon = 0 // invalid
	sets, err := runSweep(cfgs, SweepOpts{Replicas: 2, Workers: 4})
	if err == nil {
		t.Fatal("expected an error from the invalid cell")
	}
	if sets[0].MeanDelay <= 0 || sets[2].MeanDelay <= 0 {
		t.Error("valid cells did not run")
	}
	if sets[1].Replicas != nil {
		t.Error("failed cell should be zero-valued")
	}
}

// TestStreamSweepEmpty: no configs, no emissions, no hang.
func TestStreamSweepEmpty(t *testing.T) {
	StreamSweep(context.Background(), nil, 3, 2, func(int, ReplicaSet, error) {
		t.Fatal("emit called for empty sweep")
	})
}
