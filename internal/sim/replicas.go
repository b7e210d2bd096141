package sim

import (
	"context"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// ReplicaSet aggregates independent replications of one configuration.
// Replicas differ only in their derived random streams, so across-replica
// variability gives an honest confidence interval even when a single run's
// batch means are correlated.
type ReplicaSet struct {
	// Replicas holds the individual run results.
	Replicas []Result
	// MeanDelay is the across-replica mean of per-replica mean delays.
	MeanDelay float64
	// DelayCI is the 95% across-replica half-width for MeanDelay.
	DelayCI float64
	// MeanN, MeanR, MeanRs average the per-replica time averages.
	MeanN, MeanR, MeanRs float64
	// RPerN and RsPerN are ratio-of-averages estimates of Table II's r and
	// Table III's r_s.
	RPerN, RsPerN float64
	// Delay merges all per-packet statistics across replicas.
	Delay stats.Welford
	// Fault-layer aggregates: the integer outcome counters sum across
	// replicas, the downtime fractions average. All zero on fault-free
	// sweeps. See Result for the counters' exact meanings.
	Dropped      int64
	DeadEnds     int64
	DetourHops   int64
	Misrouted    int64
	LinkDownFrac float64
	NodeDownFrac float64
	// ReplicasUsed is how many replicas produced this cell. Fixed sweeps
	// always use the requested count; adaptive sweeps (SweepOpts.TargetCI)
	// stop early once the target half-width is met, so the CSV layer
	// reports this alongside the half-width of record.
	ReplicasUsed int
}

// SweepOpts configures a sweep's replication policy; see sweep.Opts.
type SweepOpts = sweep.Opts

// adapter plugs the event-driven engine into internal/sweep. Each runner
// owns one Runner, so engine state (tree, stations, arena, tables) is
// reused across its replicas and per-run setup amortizes to ~0
// allocations over a sweep; results are bit-identical to fresh Runs.
var adapter = sweep.Adapter[Config, Result, *Snapshot, ReplicaSet]{
	Seed: func(cfg Config) uint64 { return cfg.Seed },
	NewRunner: func() func(Config, sweep.Replica[*Snapshot]) (Result, error) {
		var runner Runner
		return func(cfg Config, rep sweep.Replica[*Snapshot]) (Result, error) {
			cfg.Seed = rep.Seed
			if cfg.Ctx == nil {
				cfg.Ctx = rep.Ctx
			}
			cfg.Capture = rep.Capture
			if rep.Resume != nil {
				cfg.Resume, cfg.Warmup = rep.Resume, rep.Rewarm
			}
			return runner.Run(cfg)
		}
	},
	Delay: func(r Result) float64 { return r.MeanDelay },
	Detach: func(r *Result) *Snapshot {
		sn := r.Snapshot
		r.Snapshot = nil
		return sn
	},
	Aggregate: aggregate,
}

// StreamSweepAdaptive runs every configuration under opts on the shared
// sweep driver (sweep.Stream), emitting cells in input order as they
// converge.
func StreamSweepAdaptive(ctx context.Context, cfgs []Config, opts SweepOpts, emit func(i int, rs ReplicaSet, err error)) {
	sweep.Stream(ctx, adapter, cfgs, opts, emit)
}

// StreamSweep is StreamSweepAdaptive with a fixed `replicas` replicas per
// configuration on up to `workers` goroutines (0 means GOMAXPROCS).
func StreamSweep(ctx context.Context, cfgs []Config, replicas, workers int, emit func(i int, rs ReplicaSet, err error)) {
	StreamSweepAdaptive(ctx, cfgs, SweepOpts{Replicas: replicas, Workers: workers}, emit)
}

// RunCellAdaptive runs one sweep point under opts, optionally resuming
// replica r from prevSnaps[r] and capturing end-of-run snapshots; see
// sweep.Cell.
func RunCellAdaptive(ctx context.Context, cfg Config, opts SweepOpts, prevSnaps []*Snapshot, capture bool) (ReplicaSet, []*Snapshot, error) {
	return sweep.Cell(ctx, adapter, cfg, opts, prevSnaps, capture)
}

// RunReplicas executes `replicas` independent runs of cfg on up to
// `workers` goroutines (0 means GOMAXPROCS) and aggregates them; replica i
// uses the random stream Split(cfg.Seed, i), so results are independent of
// scheduling and of the worker count.
func RunReplicas(ctx context.Context, cfg Config, replicas, workers int) (ReplicaSet, error) {
	rs, _, err := RunCellAdaptive(ctx, cfg, SweepOpts{Replicas: replicas, Workers: workers}, nil, false)
	return rs, err
}

func aggregate(results []Result) ReplicaSet {
	rs := ReplicaSet{Replicas: results, ReplicasUsed: len(results)}
	var perReplica stats.Welford
	for _, r := range results {
		perReplica.Add(r.MeanDelay)
		rs.MeanN += r.MeanN
		rs.MeanR += r.MeanR
		rs.MeanRs += r.MeanRs
		rs.Delay.Merge(r.Delay)
		rs.Dropped += r.Dropped
		rs.DeadEnds += r.DeadEnds
		rs.DetourHops += r.DetourHops
		rs.Misrouted += r.Misrouted
		rs.LinkDownFrac += r.LinkDownFrac
		rs.NodeDownFrac += r.NodeDownFrac
	}
	k := float64(len(results))
	rs.MeanDelay = perReplica.Mean()
	rs.MeanN /= k
	rs.MeanR /= k
	rs.MeanRs /= k
	rs.LinkDownFrac /= k
	rs.NodeDownFrac /= k
	if rs.MeanN > 0 {
		rs.RPerN = rs.MeanR / rs.MeanN
		rs.RsPerN = rs.MeanRs / rs.MeanN
	}
	if len(results) >= 2 {
		rs.DelayCI = sweep.HalfWidth95(perReplica)
	} else {
		rs.DelayCI = results[0].DelayCI
	}
	return rs
}
