package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestPairedDiffClosedForm(t *testing.T) {
	// Constant shift: every difference is exactly 3, so the interval
	// collapses to zero width.
	x := []float64{10, 11, 12, 13, 14}
	y := []float64{7, 8, 9, 10, 11}
	mean, hw := PairedDiff(x, y)
	if mean != 3 || hw != 0 {
		t.Fatalf("constant-shift pairs: mean=%v hw=%v, want 3, 0", mean, hw)
	}
}

func TestPairedDiffTighterThanUnpaired(t *testing.T) {
	// Positively correlated pairs (common random numbers): the paired
	// interval must be far tighter than the unpaired two-sample one.
	rng := xrand.New(7)
	n := 32
	x := make([]float64, n)
	y := make([]float64, n)
	var wx, wy Welford
	for i := range x {
		common := rng.Norm() * 10 // shared noise, as CRN replicas have
		x[i] = 5 + common + 0.1*rng.Norm()
		y[i] = 3 + common + 0.1*rng.Norm()
		wx.Add(x[i])
		wy.Add(y[i])
	}
	mean, hw := PairedDiff(x, y)
	if math.Abs(mean-2) > 0.2 {
		t.Fatalf("paired mean %v, want ~2", mean)
	}
	unpaired := tCrit95(n-1) * math.Sqrt(wx.Variance()/float64(n)+wy.Variance()/float64(n))
	if hw >= unpaired/10 {
		t.Fatalf("paired hw %v not ≪ unpaired hw %v despite shared noise", hw, unpaired)
	}
}

func TestPairedDiffSmallSamples(t *testing.T) {
	if _, hw := PairedDiff([]float64{1}, []float64{2}); !math.IsInf(hw, 1) {
		t.Fatalf("one pair: hw=%v, want +Inf", hw)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched lengths did not panic")
		}
	}()
	PairedDiff([]float64{1, 2}, []float64{1})
}

func TestRNGStateRoundTrip(t *testing.T) {
	// Snapshot support: Restore(State()) must continue the exact sequence.
	rng := xrand.New(99)
	for i := 0; i < 17; i++ {
		rng.Uint64()
	}
	st := rng.State()
	var want [8]uint64
	for i := range want {
		want[i] = rng.Uint64()
	}
	var other xrand.RNG
	other.Restore(st)
	for i := range want {
		if got := other.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverged at draw %d: got %d want %d", i, got, want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Restore of all-zero state did not panic")
		}
	}()
	other.Restore([4]uint64{})
}
