package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"
)

// opResult is what one library operation — one sweep call — returned.
type opResult struct {
	first, done time.Duration // from the call to its first point and to its return
	packets     int64         // packets the engines delivered for it
	replicas    int           // replicas it used, summed over points
	bits        []byte        // the exact result bits the digest covers
}

// libraryOps adapts a workload that calls the sweep driver in-process to
// the shared closed loop.
type libraryOps struct {
	// minPairs is how many inputs every run covers, however short its
	// budget; the determinism digest covers exactly these.
	minPairs int
	// issue runs input k once. A traced issue records its spans under req.
	issue func(ctx context.Context, k int, req string, tr *tracer) (opResult, error)
	// replay re-runs input k's engine work directly, outside the sweep
	// driver, and checks it against the sweep's results (trace mode).
	replay func(ctx context.Context, k int, req string, sweep opResult) error
	// setup repeats the workload's set-up once and returns the time it
	// took; setupBatch calls make one setup_s sample.
	setup      func() (time.Duration, error)
	setupBatch int
}

// runLibraryLoop is the closed loop of the two in-process workloads. One
// client issues input k, then issues the same input again: the repeat is
// the library counterpart of sweepd's cache hit — there is no result cache
// to answer it, so it costs a full sweep, and it must reproduce the first
// answer bit for bit. Pairs continue until the budget is spent.
//
// In trace mode the first issue of each input is traced and followed by
// the direct replays; the repeat runs untraced, so the ratio of the two
// latencies is the tracing overhead on identical work.
func runLibraryLoop(ctx context.Context, b *bench, ops libraryOps) error {
	var (
		firstMs, doneMs, hitMs, ratios []float64
		packets                        int64
		busy, lastPair                 time.Duration
		replicas                       []float64
	)
	dg := newDigest()
	for k := 0; k < ops.minPairs || b.timeLeft(lastPair); k++ {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err := b.sampleSetup(ops.setupBatch, ops.setup); err != nil {
			return err
		}
		t0 := time.Now()
		req := fmt.Sprintf("input-%d", k)
		// Every issue starts from a collected heap, outside the timed call,
		// so neither the set-up's nor the previous call's garbage is
		// charged to it, and peak RSS reads one call's footprint rather
		// than where the collector happened to run.
		runtime.GC()
		first, err := ops.issue(ctx, k, req, b.tr)
		if err != nil {
			return err
		}
		if b.traced() {
			if err := ops.replay(ctx, k, req, first); err != nil {
				return err
			}
		}
		runtime.GC()
		repeat, err := ops.issue(ctx, k, req+"-repeat", nil)
		if err != nil {
			return err
		}
		b.tally.check(bytes.Equal(first.bits, repeat.bits), "%s: repeated input %d did not reproduce its first result bit for bit", b.workload, k)
		if k < ops.minPairs {
			dg.bytes(first.bits)
		}
		for _, r := range []opResult{first, repeat} {
			firstMs = append(firstMs, millis(r.first))
			packets += r.packets
			busy += r.done
		}
		doneMs = append(doneMs, millis(first.done))
		hitMs = append(hitMs, millis(repeat.done))
		ratios = append(ratios, float64(first.done)/float64(repeat.done))
		replicas = append(replicas, float64(first.replicas))
		lastPair = time.Since(t0)
	}
	b.digest = dg.hex()
	n := len(doneMs)
	b.set("packets_per_s", float64(packets)/busy.Seconds(), 2*n)
	b.set("time_to_ci_s", median(doneMs)/1000, n)
	b.set("submit_ms_p50", median(firstMs), 2*n)
	b.set("submit_ms_p90", percentile(firstMs, 90), 2*n)
	b.set("done_ms_p50", median(doneMs), n)
	b.set("done_ms_p90", percentile(doneMs, 90), n)
	b.set("hit_ms_p50", median(hitMs), n)
	b.set("hit_ms_p90", percentile(hitMs, 90), n)
	b.set("sweep.replicas_used", median(replicas), n)
	if b.traced() {
		b.set("trace.overhead_ratio", median(ratios), n)
		b.set("sweep.wall_s", median(b.tr.durations(spanSweep)), n)
	}
	b.note("replicas used per input: %v", replicas)
	if n < minSamples(90, 10) {
		b.note("p90 timings rest on %d operations (fewer than the %d that leave ten beyond the p90): each sweep here runs for seconds", n, minSamples(90, 10))
	}
	return nil
}

// sampleSetup takes one setup_s sample: the mean time of `batch`
// consecutive set-ups, each timing its own set-up work. The library
// workloads sample before every pair of operations, so the median does not
// hinge on the machine's state at start-up alone.
func (b *bench) sampleSetup(batch int, setup func() (time.Duration, error)) error {
	id := b.tr.begin(spanSetup, "setup", 0)
	defer b.tr.end(id)
	var total time.Duration
	for range batch {
		d, err := setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total += d
	}
	b.setups = append(b.setups, total.Seconds()/float64(batch))
	return nil
}

// Span names shared by the workloads.
const (
	spanSetup   = "setup"
	spanSweep   = "sweep.wall"
	spanPoint   = "sweep.point"
	spanOp      = "op"
	spanReplay  = "replay"
	spanEncode  = "snapshot.encode"
	spanBind    = "workload.Bind"
	spanRequest = "serve.request"
)
