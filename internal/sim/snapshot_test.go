package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/topology"
)

// requireSameSimBits asserts two Results are math.Float64bits-identical in
// the core measured quantities.
func requireSameSimBits(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.MeanDelay) != math.Float64bits(want.MeanDelay) {
		t.Errorf("%s: MeanDelay %v != %v", label, got.MeanDelay, want.MeanDelay)
	}
	if math.Float64bits(got.DelayCI) != math.Float64bits(want.DelayCI) {
		t.Errorf("%s: DelayCI %v != %v", label, got.DelayCI, want.DelayCI)
	}
	if math.Float64bits(got.MeanN) != math.Float64bits(want.MeanN) {
		t.Errorf("%s: MeanN %v != %v", label, got.MeanN, want.MeanN)
	}
	if math.Float64bits(got.MeanR) != math.Float64bits(want.MeanR) {
		t.Errorf("%s: MeanR %v != %v", label, got.MeanR, want.MeanR)
	}
	if got.Generated != want.Generated || got.Delivered != want.Delivered {
		t.Errorf("%s: counts (%d, %d) != (%d, %d)", label, got.Generated, got.Delivered, want.Generated, want.Delivered)
	}
	if got.Delay.Count() != want.Delay.Count() ||
		math.Float64bits(got.Delay.Variance()) != math.Float64bits(want.Delay.Variance()) {
		t.Errorf("%s: per-packet Welford statistics diverge", label)
	}
}

// TestSimSnapshotBitExactContinuation is the event-driven engine's
// checkpoint contract: capture at the end of run X, resume as run Y, and
// Y must be Float64bits-identical to the uninterrupted run U whose warmup
// covers X — across arrival models and routers (deterministic and
// randomized).
func TestSimSnapshotBitExactContinuation(t *testing.T) {
	a := topology.NewArray2D(6)
	rate := bounds.LambdaForLoad(6, 0.8)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"merged-greedyxy", Config{
			Net: a, Router: routing.GreedyXY{A: a},
			Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate: rate,
		}},
		{"merged-randgreedy", Config{
			Net: a, Router: routing.RandGreedy{A: a},
			Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate: rate,
		}},
		{"pernode", Config{
			Net: a, Router: routing.GreedyXY{A: a},
			Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate: rate, PerNodeArrivals: true,
		}},
		{"slotted", Config{
			Net: a, Router: routing.GreedyXY{A: a},
			Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate: rate, SlotTau: 1,
		}},
		{"exponential-service", Config{
			Net: a, Router: routing.GreedyXY{A: a},
			Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate: rate, Service: Exponential,
		}},
	}
	const w1, h1, w2, h2 = 300, 1500, 100, 1200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uncut := tc.cfg
			uncut.Seed = 11
			uncut.Warmup = w1 + h1 + w2
			uncut.Horizon = h2
			ref, err := Run(uncut)
			if err != nil {
				t.Fatal(err)
			}

			first := tc.cfg
			first.Seed = 11
			first.Warmup, first.Horizon = w1, h1
			first.Capture = true
			res, err := Run(first)
			if err != nil {
				t.Fatal(err)
			}
			if res.Snapshot == nil {
				t.Fatal("Capture run returned no snapshot")
			}
			second := tc.cfg
			second.Seed = 999 // must be ignored: the restored stream continues
			second.Warmup, second.Horizon = w2, h2
			second.Resume = res.Snapshot
			got, err := Run(second)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSimBits(t, tc.name, got, ref)
		})
	}
}

// TestSimSnapshotRunnerReuse pins that a reused Runner resumes identically
// to a throwaway one — the pool's warm-start path reuses per-worker
// Runners.
func TestSimSnapshotRunnerReuse(t *testing.T) {
	cfg := arrayConfig(5, 0.7, 23)
	cfg.Warmup, cfg.Horizon = 200, 1000
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := cfg
	tail.Capture = false
	tail.Resume = res.Snapshot
	tail.Warmup, tail.Horizon = 50, 800
	want, err := Run(tail)
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	if _, err := r.Run(arrayConfig(4, 0.5, 7)); err != nil { // dirty the caches with another shape
		t.Fatal(err)
	}
	got, err := r.Run(tail)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSimBits(t, "runner reuse", got, want)
}

// TestSimSnapshotWireRoundTrip pins the persistence format.
func TestSimSnapshotWireRoundTrip(t *testing.T) {
	cfg := arrayConfig(5, 0.8, 29)
	cfg.Warmup, cfg.Horizon = 200, 1200
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Snapshot.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, res.Snapshot) {
		t.Fatal("decoded snapshot differs from the original")
	}
	tail := cfg
	tail.Capture = false
	tail.Warmup, tail.Horizon = 50, 600
	tail.Resume = res.Snapshot
	want, err := Run(tail)
	if err != nil {
		t.Fatal(err)
	}
	tail.Resume = decoded
	got, err := Run(tail)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSimBits(t, "wire round trip", got, want)
}

// TestSimSnapshotDecodeRejects is the corruption battery for the
// event-engine decode path.
func TestSimSnapshotDecodeRejects(t *testing.T) {
	cfg := arrayConfig(4, 0.7, 31)
	cfg.Warmup, cfg.Horizon = 100, 600
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Snapshot.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	bad := append([]byte("NOTEVSNP"), data[8:]...)
	if _, err := UnmarshalSnapshot(bad); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{0, 5, 8, 12, len(data) / 2, len(data) - 3} {
		if _, err := UnmarshalSnapshot(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	for _, off := range []int{9, 30, len(data) / 2, len(data) - 8} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x10
		if _, err := UnmarshalSnapshot(corrupt); err == nil {
			t.Errorf("flipped byte at offset %d accepted", off)
		}
	}
}

// TestSimSnapshotGate pins the path restrictions: PS/priority disciplines
// and custom arrival processes cannot checkpoint.
func TestSimSnapshotGate(t *testing.T) {
	base := arrayConfig(4, 0.5, 37)
	base.Warmup, base.Horizon = 50, 300

	ps := base
	ps.Discipline = PS
	ps.Capture = true
	if _, err := Run(ps); err == nil {
		t.Error("PS run accepted Capture")
	}

	cap := base
	cap.Capture = true
	res, err := Run(cap)
	if err != nil {
		t.Fatal(err)
	}
	other := arrayConfig(5, 0.5, 37)
	other.Resume = res.Snapshot
	if _, err := Run(other); err == nil {
		t.Error("snapshot restored onto a different topology")
	}
	perNode := base
	perNode.PerNodeArrivals = true
	perNode.Resume = res.Snapshot
	if _, err := Run(perNode); err == nil {
		t.Error("merged-clock snapshot restored under PerNodeArrivals")
	}
	rateChangePerNode := base
	rateChangePerNode.PerNodeArrivals = true
	rateChangePerNode.Capture = true
	resPN, err := Run(rateChangePerNode)
	if err != nil {
		t.Fatal(err)
	}
	warm := rateChangePerNode
	warm.Capture = false
	warm.Resume = resPN.Snapshot
	warm.NodeRate *= 1.1
	warm.AllowUnstable = true
	if _, err := Run(warm); err == nil {
		t.Error("per-node snapshot accepted a rate change")
	}
}

// TestSimSnapshotRateChangeWarmStart is the ρ-ladder warm-start: resume at
// a higher rate with a short re-warm must agree statistically with a cold
// full-warmup run at the new rate.
func TestSimSnapshotRateChangeWarmStart(t *testing.T) {
	n := 6
	cold := arrayConfig(n, 0.8, 41)
	cold.Warmup, cold.Horizon = 1500, 10000

	first := cold
	first.NodeRate = bounds.LambdaForLoad(n, 0.7)
	first.Capture = true
	r1, err := Run(first)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.Resume = r1.Snapshot
	warm.Warmup = 200
	got, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}

	var sum, sumSq float64
	const reps = 4
	for i := 0; i < reps; i++ {
		c := cold
		c.Seed = 200 + uint64(i)
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.MeanDelay
		sumSq += r.MeanDelay * r.MeanDelay
	}
	mean := sum / reps
	sd := math.Sqrt(sumSq/reps - mean*mean)
	tol := 6*sd + 0.05*mean
	if math.Abs(got.MeanDelay-mean) > tol {
		t.Errorf("warm-started delay %v vs cold mean %v (sd %v): outside tolerance %v", got.MeanDelay, mean, sd, tol)
	}
}
