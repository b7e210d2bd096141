// Package sweep is the replication driver shared by both simulation
// engines: it runs a ladder of sweep points, each as a set of independent
// replicas, and turns the replicas into one cell per point. It owns
//
//   - the replication policy (Opts): a fixed replica count, or sequential
//     stopping at a target 95% half-width between MinReps and MaxReps;
//   - the one deterministic worker pool (StreamCellsAdaptive), which
//     parallelizes across points and replicas at once and emits cells in
//     input order;
//   - common random numbers: replica r of every point runs the stream
//     Split(point seed, r), whatever the worker count or schedule, so
//     sweeps are bit-identical from 1 worker to GOMAXPROCS and per-replica
//     delays at adjacent points pair up (stats.PairedDiff);
//   - the plain 95% estimator and the stopping rule built on it;
//   - warm-start chains, in which replica r of point i resumes replica r's
//     end-of-run snapshot from point i−1, and the single-point Cell that
//     crash-safe callers checkpoint between;
//   - cancellation, and the spare-core factor (SpareFactor) an engine may
//     spend inside runs.
//
// It imports neither engine. An engine plugs in through an Adapter: run
// one replica with a given seed (optionally resuming a snapshot with a
// re-warm and capturing one), read a replica's delay, and aggregate a
// replica set into the engine's own cell type. internal/sim and
// internal/stepsim each define one adapter and expose thin entry points
// (StreamSweepAdaptive, RunCellAdaptive, ...) over Stream and Cell.
package sweep

import (
	"context"
	"math"
	"sync"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// Opts configures a sweep's replication policy. The zero value is a plain
// 1-replica fixed sweep; each knob is independent of the others.
type Opts struct {
	// Replicas is the fixed replica count used when TargetCI is zero
	// (minimum 1). Ignored when TargetCI is set.
	Replicas int
	// Workers bounds the pool's goroutines (0 means GOMAXPROCS).
	Workers int
	// TargetCI, when positive, switches the sweep to sequential stopping:
	// each point runs at least MinReps replicas and stops as soon as the
	// 95% half-width of its mean delay is ≤ TargetCI, up to MaxReps.
	// Points that hit MaxReps are reported with whatever half-width they
	// reached — inspect the cell's DelayCI.
	TargetCI float64
	// MinReps and MaxReps bound the adaptive replica count. Defaults: 4
	// and 64.
	MinReps, MaxReps int
	// WarmStart chains engine snapshots across sweep points: replica r of
	// point i resumes from replica r's end-of-run state at point i−1 with
	// Rewarm as its warmup, instead of refilling an empty network from
	// scratch. Points run in input order (the chain is sequential);
	// replicas within a point still run in parallel. Replicas beyond the
	// previous point's count, and every replica after a point that
	// errored, start cold with the configuration's full warmup. Subject to
	// each engine's snapshot gate; a rate-changing ladder is statistically
	// exact per the engines' Resume contract.
	WarmStart bool
	// Rewarm is the warmup of warm-started replicas in the engine's time
	// unit: time units for the event engine, slots (truncated to an
	// integer) for the slotted one. Zero is valid for same-rate
	// continuation; rate-changing ladders should re-warm long enough to
	// forget the old operating point.
	Rewarm float64
}

func (o Opts) normalized() Opts {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.MinReps <= 0 {
		o.MinReps = 4
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 64
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = o.MinReps
	}
	if o.TargetCI <= 0 {
		// Fixed-count mode: the ladder is a single rung.
		o.MinReps, o.MaxReps = o.Replicas, o.Replicas
	}
	return o
}

// Replica is one replica run the driver asks of an engine.
type Replica[P any] struct {
	// Seed is the replica's stream, Split(point seed, r).
	Seed uint64
	// Ctx is the sweep's context, for configurations that carry none, so
	// an in-flight run aborts promptly and not just queued ones.
	Ctx context.Context
	// Spare is the sweep's SpareFactor: intra-run parallelism an engine
	// may spend on configurations that leave theirs unset.
	Spare int
	// Resume, when non-nil, is the snapshot to continue from, with Rewarm
	// as the run's warmup.
	Resume P
	Rewarm float64
	// Capture asks the run for its end-of-run snapshot.
	Capture bool
}

// Adapter plugs one simulation engine into the driver. C is the engine's
// configuration, R its per-replica result, P its snapshot handle (a
// pointer) and S its aggregated cell.
type Adapter[C, R, P, S any] struct {
	// Seed returns cfg's base seed, from which replica streams split.
	Seed func(cfg C) uint64
	// NewRunner returns a replica runner that owns reusable engine
	// state. Stream makes one per pool worker; Cell pools them across a
	// point's replicas. Reuse must be bit-neutral.
	NewRunner func() func(cfg C, rep Replica[P]) (R, error)
	// Delay is a replica's mean delay, the sample the stopping rule
	// estimates from.
	Delay func(r R) float64
	// Detach removes and returns r's captured snapshot: chain state, not
	// part of the reported cell.
	Detach func(r *R) P
	// Aggregate builds the engine's cell from a complete replica set.
	Aggregate func(rs []R) S
}

// replica builds the run request for replica rep of cfg.
func (a Adapter[C, R, P, S]) replica(ctx context.Context, cfg C, rep, spare int) Replica[P] {
	return Replica[P]{Seed: xrand.Split(a.Seed(cfg), uint64(rep)).Uint64(), Ctx: ctx, Spare: spare}
}

// HalfWidth95 is the plain normal-approximation 95% half-width of the mean
// of w's sample, 1.96·s/√n, and zero below two observations. It is the
// interval both engines report for a cell and the one the stopping rule
// compares against Opts.TargetCI.
func HalfWidth95(w stats.Welford) float64 {
	if w.Count() < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.Count()))
}

// stopFor is the sequential-stopping predicate: a complete replica prefix
// has converged once it holds at least two replicas and its half-width is
// within target.
func stopFor[R any](delay func(R) float64, target float64) func(cell int, prefix []R) bool {
	return func(_ int, prefix []R) bool {
		var w stats.Welford
		for _, r := range prefix {
			w.Add(delay(r))
		}
		return w.Count() >= 2 && HalfWidth95(w) <= target
	}
}

// Stream runs every configuration under opts, emitting one cell per point
// in input order as points converge (emit runs on the calling goroutine).
// err is the point's first replica error; its cell is then zero-valued.
// With opts.WarmStart the points run as a chain of Cells; otherwise every
// (point, replica) pair is one task of a shared pool, so a short ladder
// still saturates the machine and a slow point does not serialize the
// points behind it.
func Stream[C, R, P, S any](ctx context.Context, a Adapter[C, R, P, S], cfgs []C, opts Opts, emit func(i int, s S, err error)) {
	opts = opts.normalized()
	if opts.WarmStart {
		// A point that errors returns no snapshots, which breaks the
		// chain: later points run cold, and the sweep continues.
		var prev []P
		for i, cfg := range cfgs {
			var s S
			var err error
			s, prev, err = Cell(ctx, a, cfg, opts, prev, true)
			emit(i, s, err)
		}
		return
	}
	spare := SpareFactor(len(cfgs), opts.MinReps, opts.Workers)
	StreamCellsAdaptive(ctx, len(cfgs), opts.MinReps, opts.MaxReps, opts.Workers,
		func() func(cell, rep int) (R, error) {
			run := a.NewRunner()
			return func(cell, rep int) (R, error) {
				return run(cfgs[cell], a.replica(ctx, cfgs[cell], rep, spare))
			}
		},
		stopFor(a.Delay, opts.TargetCI),
		func(i int, rs []R, err error) {
			if err != nil {
				var zero S
				emit(i, zero, err)
				return
			}
			emit(i, a.Aggregate(rs), nil)
		})
}

// Cell runs a single sweep point under opts: the same batch ladder,
// stopping rule and Split(seed, r) replica streams as one point of Stream,
// so its cell is bit-identical to that point's. prev, when non-empty,
// resumes replica r from prev[r] with opts.Rewarm as its warmup — one link
// of the warm-start chain; capture asks every replica for its end-of-run
// snapshot, returned alongside the cell for the next link (all zero when
// capture is false, nil on error).
//
// Because replica streams derive from the point's seed alone and the
// stopping decision is a pure function of the results, a caller that
// persists each point's results (and, for warm-start chains, snapshots)
// can be killed between points and resumed by a fresh process, and the
// completed ladder is identical to an uninterrupted run — the property
// internal/serve's crash-safe sweep jobs checkpoint on.
func Cell[C, R, P, S any](ctx context.Context, a Adapter[C, R, P, S], cfg C, opts Opts, prev []P, capture bool) (S, []P, error) {
	opts = opts.normalized()
	// Runners are shared across this point's replicas through a pool;
	// reuse is bit-neutral.
	runners := sync.Pool{New: func() any { return a.NewRunner() }}
	spare := SpareFactor(1, opts.MinReps, opts.Workers)
	var (
		cell    S
		snaps   []P
		cellErr error
	)
	StreamCellsAdaptive(ctx, 1, opts.MinReps, opts.MaxReps, opts.Workers,
		func() func(cell, rep int) (R, error) {
			return func(_, rep int) (R, error) {
				r := a.replica(ctx, cfg, rep, spare)
				r.Capture = capture
				if rep < len(prev) {
					r.Resume, r.Rewarm = prev[rep], opts.Rewarm
				}
				run := runners.Get().(func(C, Replica[P]) (R, error))
				res, err := run(cfg, r)
				runners.Put(run)
				return res, err
			}
		},
		stopFor(a.Delay, opts.TargetCI),
		func(_ int, rs []R, err error) {
			if err != nil {
				cellErr = err
				return
			}
			snaps = make([]P, len(rs))
			for j := range rs {
				snaps[j] = a.Detach(&rs[j])
			}
			cell = a.Aggregate(rs)
		})
	return cell, snaps, cellErr
}

// Collect runs a streaming sweep of n points — stream calls emit once per
// point, as Stream does — and returns the cells in input order. The error
// is the first cell error emitted; that cell stays zero-valued and later
// cells still run.
func Collect[S any](n int, stream func(emit func(i int, s S, err error))) ([]S, error) {
	cells := make([]S, n)
	var first error
	stream(func(i int, s S, err error) {
		cells[i] = s
		if err != nil && first == nil {
			first = err
		}
	})
	return cells, first
}
