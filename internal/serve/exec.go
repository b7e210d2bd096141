package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The sweep executor: runs a job's ladder one point at a time so progress
// can be checkpointed between points. Correctness of crash recovery rests
// on two properties the engines already guarantee:
//
//  1. every ladder point's ReplicaSet is a pure function of (scenario,
//     engine, code version) — replica streams derive from the point seed
//     alone and adaptive stopping is evaluated on complete replica
//     prefixes — so re-running a point in a fresh process reproduces it
//     bit-for-bit;
//  2. warm-start chains are Markov in the captured snapshots: point i
//     depends on earlier points only through point i−1's CRC-checked
//     EVTSNAP1/SLOTSNP1 snapshots, so persisting (results, snapshots) at
//     each point boundary makes the whole chain resumable.
//
// A job killed at any moment and resumed therefore yields a final result
// document byte-identical to an uninterrupted run's: completed points are
// replayed verbatim from the journal, re-run points reproduce their
// journaled bytes, and fresh points see exactly the state they would have
// seen. Faults-degraded scenarios reject warm-start at validation, so
// they always take the independent-points path, where whole-point restart
// is trivially exact.

// errDrained is the executor's interruption sentinel for a graceful
// worker drain: the current point was finished and checkpointed, the rest
// of the ladder was not started, and the job should be requeued intact.
var errDrained = errors.New("serve: worker draining")

// errCancelRequested is the interruption sentinel for a client cancel
// observed at a point boundary (the cancel marker); the job finishes
// canceled.
var errCancelRequested = errors.New("serve: cancel requested")

// resumeState is what a resumed execution starts from: the journaled
// completed-point documents and, for warm-start jobs, the chain
// snapshots of the last checkpointed point.
type resumeState struct {
	points    []json.RawMessage // completed prefix, verbatim journal bytes
	ckptPoint int               // index the snapshots were captured after
	snaps     [][]byte          // per-replica snapshot wire blobs
	haveCkpt  bool
}

// execHooks are the executor's side-effect points.
type execHooks struct {
	// point runs after ladder point i completes, with the point's
	// document and (for warm-start jobs) the end-of-point snapshot
	// blobs. rerun marks a point that was already journaled and was
	// re-executed only to rebuild chain state — its document is
	// bit-identical to the journaled one. A non-nil error aborts the
	// job.
	point func(i int, doc json.RawMessage, snaps [][]byte, rerun bool) error
	// interrupted is polled between points; returning errDrained or
	// errCancelRequested stops the ladder with that sentinel.
	interrupted func() error
}

// resultAssembly marshals to exactly the same bytes as ResultDoc — same
// fields, same order — but carries the points as raw messages so a
// resumed job embeds its journaled point documents verbatim.
type resultAssembly struct {
	Name    string            `json:"name"`
	Engine  string            `json:"engine"`
	Version string            `json:"version"`
	Key     string            `json:"key"`
	Points  []json.RawMessage `json:"points"`
}

// executeSweep runs (or resumes) one job and returns the final result
// document. The error is either a sentinel (errDrained,
// errCancelRequested), the job ctx's cancellation cause, or the first
// engine/validation error (deterministic, hence permanent).
func executeSweep(ctx context.Context, rec JobRecord, version string, simWorkers int, st resumeState, h execHooks) ([]byte, error) {
	sc, err := workload.ParseScenario(rec.Scenario)
	if err != nil {
		return nil, err
	}
	b, err := sc.Bind()
	if err != nil {
		return nil, err
	}
	n := len(b.Points)
	points := make([]json.RawMessage, n)
	copied := copy(points, st.points)

	// Pick the start point and decode warm-start chain state. Without
	// warm-start, points are independent: resume right after the
	// journaled prefix. With it, resume from the last checkpointed
	// snapshots, re-running any journaled points past them (crash landed
	// between the point append and the checkpoint write); if the chain
	// state is missing or damaged, restart the whole ladder — the
	// deterministic engines reproduce the journaled prefix exactly.
	start := copied
	var (
		prevEvt  []*sim.Snapshot
		prevSlot []*stepsim.Snapshot
	)
	warm := sc.WarmStart
	if warm && copied > 0 {
		start = 0
		if st.haveCkpt && st.ckptPoint < copied {
			ok := true
			switch rec.Engine {
			case EngineSlotted:
				prevSlot, ok = decodeSnaps(st.snaps, stepsim.UnmarshalSnapshot)
			default:
				prevEvt, ok = decodeSnaps(st.snaps, sim.UnmarshalSnapshot)
			}
			if ok {
				start = st.ckptPoint + 1
			} else {
				prevEvt, prevSlot = nil, nil
			}
		}
	}

	// runPoint executes ladder point i on the job's engine, threading the
	// warm-start chain, and returns the point document plus the encoded
	// end-of-point snapshots.
	var runPoint func(i int) (PointDoc, [][]byte, error)
	opts := b.SweepOpts(simWorkers)
	switch rec.Engine {
	case EngineSlotted:
		cfgs, cfgErr := b.SlottedConfigs()
		if cfgErr != nil {
			return nil, cfgErr
		}
		runPoint = chainPoints(ctx, b, cfgs, opts, prevSlot, warm, stepsim.RunCellAdaptive,
			func(rs stepsim.ReplicaSet) (float64, float64, float64, int) {
				return rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed
			})
	default:
		runPoint = chainPoints(ctx, b, b.Configs, opts, prevEvt, warm, sim.RunCellAdaptive,
			func(rs sim.ReplicaSet) (float64, float64, float64, int) {
				return rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed
			})
	}

	for i := start; i < n; i++ {
		if h.interrupted != nil {
			if err := h.interrupted(); err != nil {
				return nil, err
			}
		}
		pd, blobs, err := runPoint(i)
		if cause := context.Cause(ctx); cause != nil {
			return nil, cause
		}
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(pd)
		if err != nil {
			return nil, err
		}
		points[i] = raw
		if h.point != nil {
			if err := h.point(i, raw, blobs, i < copied); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(resultAssembly{
		Name:    b.Scenario.Name,
		Engine:  rec.Engine,
		Version: version,
		Key:     rec.Key,
		Points:  points,
	})
}

// snapshot is an engine's warm-start chain state on the wire.
type snapshot interface {
	comparable
	MarshalBinary() ([]byte, error)
}

// chainPoints is the executor's runPoint for one engine: cell is the
// engine's RunCellAdaptive, summary reads the fields a PointDoc records,
// and the warm-start chain threads from prev through successive points.
func chainPoints[C, S any, P snapshot](ctx context.Context, b *workload.Bound, cfgs []C, opts sweep.Opts, prev []P, warm bool,
	cell func(context.Context, C, sweep.Opts, []P, bool) (S, []P, error),
	summary func(S) (meanDelay, delayCI, meanN float64, reps int)) func(i int) (PointDoc, [][]byte, error) {
	return func(i int) (PointDoc, [][]byte, error) {
		rs, snaps, err := cell(ctx, cfgs[i], opts, prev, warm)
		if err != nil {
			return PointDoc{}, nil, err
		}
		var blobs [][]byte
		if warm {
			prev = snaps
			blobs = make([][]byte, len(snaps))
			var zero P
			for j, sn := range snaps {
				if sn == zero {
					err = errors.New("nil snapshot")
				} else {
					blobs[j], err = sn.MarshalBinary()
				}
				if err != nil {
					return PointDoc{}, nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
				}
			}
		}
		meanDelay, delayCI, meanN, reps := summary(rs)
		return PointDoc{
			Index:     i,
			Load:      b.Points[i].Load,
			NodeRate:  b.Points[i].NodeRate,
			MeanDelay: meanDelay,
			DelayCI:   delayCI,
			MeanN:     meanN,
			Replicas:  reps,
		}, blobs, nil
	}
}

// decodeSnaps decodes a checkpoint's snapshot blobs with the engine's
// decoder; ok is false if any blob is damaged.
func decodeSnaps[P any](blobs [][]byte, decode func([]byte) (P, error)) (snaps []P, ok bool) {
	snaps = make([]P, len(blobs))
	for j, b := range blobs {
		sn, err := decode(b)
		if err != nil {
			return nil, false
		}
		snaps[j] = sn
	}
	return snaps, true
}
