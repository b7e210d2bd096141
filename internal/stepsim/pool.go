package stepsim

import (
	"context"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// The slotted engine's sweep surface: an adapter onto the shared driver in
// internal/sweep, so the pool, stopping rule, seed derivation (replica r of
// point c runs Split(cfgs[c].Seed, r)) and warm-start chain are the event
// engine's exactly, and a slotted sweep is bit-identical from 1 worker to
// GOMAXPROCS. Each runner owns one Engine and resets it per task, so the
// per-run setup (ring slab, tables, scratch) amortizes to ~0 allocations
// across a sweep.
//
// Sweeps with fewer tasks than cores trade the missing task-parallelism
// for intra-run sharding: configurations that leave Shards at 0 inherit
// sweep.SpareFactor(points, replicas, workers) tiles per run, clamped to
// the engine's tile limit, so a short sweep (or the tail of a long one) no
// longer leaves cores idle. The engine's results are bit-identical at
// every shard count, so this machine-dependent choice never changes what a
// sweep computes — only how fast. Configurations that set Shards
// explicitly are left alone.

// ReplicaSet aggregates independent replications of one slotted
// configuration, mirroring sim.ReplicaSet for the fields the slotted model
// measures.
type ReplicaSet struct {
	// Replicas holds the individual run results.
	Replicas []Result
	// MeanDelay is the across-replica mean of per-replica mean delays.
	MeanDelay float64
	// DelayCI is the 95% across-replica half-width for MeanDelay.
	DelayCI float64
	// MeanN averages the per-replica per-slot averages.
	MeanN float64
	// Delivered sums measured packets over all replicas.
	Delivered int64
	// Delay merges all per-packet statistics across replicas.
	Delay stats.Welford
	// MeanActiveEdges and ArrivalSlotFraction average the per-replica
	// occupancy instrumentation (Result.MeanActiveEdges /
	// ArrivalSlotFraction), which is what explains wall-clock per sweep
	// point: the engine's phase costs scale with these, not with the
	// topology.
	MeanActiveEdges     float64
	ArrivalSlotFraction float64
	// Fault-layer aggregates: the integer outcome counters sum across
	// replicas, the downtime fractions average. All zero on fault-free
	// sweeps.
	Dropped      int64
	DeadEnds     int64
	DetourHops   int64
	Misrouted    int64
	LinkDownFrac float64
	NodeDownFrac float64
	// ReplicasUsed is how many replicas produced this cell; adaptive
	// sweeps (SweepOpts.TargetCI) stop early once the target half-width
	// is met, so this varies per point there.
	ReplicasUsed int
}

// SweepOpts configures a sweep's replication policy; see sweep.Opts.
// Rewarm counts slots.
type SweepOpts = sweep.Opts

// adapter plugs the slotted engine into internal/sweep.
var adapter = sweep.Adapter[Config, Result, *Snapshot, ReplicaSet]{
	Seed: func(cfg Config) uint64 { return cfg.Seed },
	NewRunner: func() func(Config, sweep.Replica[*Snapshot]) (Result, error) {
		var eng Engine
		return func(cfg Config, rep sweep.Replica[*Snapshot]) (Result, error) {
			cfg.Seed = rep.Seed
			if cfg.Shards == 0 {
				// Spend otherwise-idle cores inside the run, clamped to the
				// tile limit: auto-sharding is a perf knob and must never
				// make a configuration unrunnable.
				cfg.Shards = min(rep.Spare, maxShards)
			}
			if cfg.Ctx == nil {
				cfg.Ctx = rep.Ctx
			}
			cfg.Capture = rep.Capture
			if rep.Resume != nil {
				cfg.Resume, cfg.WarmupSlots = rep.Resume, int(rep.Rewarm)
			}
			return eng.Run(cfg)
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
// sweep.Cell. Its shard counts may differ from a pooled sweep's spare
// factor, which is safe because sharding is result-inert.
func RunCellAdaptive(ctx context.Context, cfg Config, opts SweepOpts, prevSnaps []*Snapshot, capture bool) (ReplicaSet, []*Snapshot, error) {
	return sweep.Cell(ctx, adapter, cfg, opts, prevSnaps, capture)
}

func aggregate(results []Result) ReplicaSet {
	rs := ReplicaSet{Replicas: results, ReplicasUsed: len(results)}
	var perReplica stats.Welford
	for _, r := range results {
		perReplica.Add(r.MeanDelay)
		rs.MeanN += r.MeanN
		rs.Delivered += r.Delivered
		rs.Delay.Merge(r.Delay)
		rs.MeanActiveEdges += r.MeanActiveEdges
		rs.ArrivalSlotFraction += r.ArrivalSlotFraction
		rs.Dropped += r.Dropped
		rs.DeadEnds += r.DeadEnds
		rs.DetourHops += r.DetourHops
		rs.Misrouted += r.Misrouted
		rs.LinkDownFrac += r.LinkDownFrac
		rs.NodeDownFrac += r.NodeDownFrac
	}
	rs.MeanDelay = perReplica.Mean()
	rs.MeanN /= float64(len(results))
	rs.MeanActiveEdges /= float64(len(results))
	rs.ArrivalSlotFraction /= float64(len(results))
	rs.LinkDownFrac /= float64(len(results))
	rs.NodeDownFrac /= float64(len(results))
	rs.DelayCI = sweep.HalfWidth95(perReplica)
	return rs
}
