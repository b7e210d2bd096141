package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bounds"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	orig := slices.Clone(xs)
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if !slices.Equal(xs, orig) {
		t.Error("percentile reordered its input")
	}
	for _, tc := range []struct {
		xs   []float64
		pct  int
		want float64
	}{
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2}, // nearest rank: the lower middle
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
	} {
		if got := percentile(tc.xs, tc.pct); got != tc.want {
			t.Errorf("p%d of %v = %v, want %v", tc.pct, tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSampleCounts(t *testing.T) {
	for _, tc := range []struct{ n, pct, beyond int }{
		{100, 90, 10},
		{99, 90, 9},
		{101, 90, 10},
		{10, 90, 1},
		{9, 90, 0},
		{1, 50, 0},
		{2, 50, 1},
	} {
		if got := beyond(tc.n, tc.pct); got != tc.beyond {
			t.Errorf("beyond(%d, p%d) = %d, want %d", tc.n, tc.pct, got, tc.beyond)
		}
	}
	if got := minSamples(90, 10); got != 100 {
		t.Errorf("minSamples(p90, 10) = %d, want 100", got)
	}
	if got := minSamples(50, 10); got != 20 {
		t.Errorf("minSamples(p50, 10) = %d, want 20", got)
	}
	if sweepdMinJobs != 100 {
		t.Errorf("sweepd runs %d jobs at least, want 100 so ten lie beyond each p90", sweepdMinJobs)
	}
}

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"leaf", nil, 100},
		{"disjoint", []span{sp(2, 1, 10, 20), sp(3, 1, 50, 70)}, 70},
		{"overlapping", []span{sp(2, 1, 10, 30), sp(3, 1, 20, 40)}, 70},
		{"contained", []span{sp(2, 1, 10, 60), sp(3, 1, 20, 30)}, 50},
		{"touching", []span{sp(2, 1, 10, 20), sp(3, 1, 20, 30)}, 80},
		{"clipped", []span{sp(2, 1, -10, 10), sp(3, 1, 90, 130)}, 80},
		{"unsorted", []span{sp(3, 1, 60, 80), sp(2, 1, 0, 10), sp(4, 1, 70, 90)}, 60},
		{"covering", []span{sp(2, 1, 0, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesNested(t *testing.T) {
	// op [0,100] ⊃ sweep [10,90] ⊃ points [10,40] and [30,90]; a replay
	// [95,100] sits directly under op. Grandchildren count against their
	// own parent only.
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 90),
		sp(3, 2, 10, 40),
		sp(4, 2, 30, 90),
		sp(5, 1, 95, 100),
	}
	want := []time.Duration{15, 0, 30, 60, 5}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "r", 0)
	if id != 0 || tr.end(id) != 0 || len(tr.durations("x")) != 0 {
		t.Error("a nil tracer must record nothing")
	}
	tr = newTracer()
	outer := tr.begin("op", "r", 0)
	inner := tr.begin("sweep", "r", outer)
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || len(tr.durations("sweep")) != 1 {
		t.Errorf("spans %+v", tr.spans)
	}
}

func TestDigestStability(t *testing.T) {
	sum := func(vals ...float64) string {
		d := newDigest()
		d.point(vals[0], vals[1], vals[2], int(vals[3]))
		d.bytes([]byte("doc"))
		return d.hex()
	}
	a := sum(21.5, 0.25, 310.125, 4)
	if b := sum(21.5, 0.25, 310.125, 4); a != b {
		t.Errorf("equal inputs gave digests %s and %s", a, b)
	}
	next := math.Nextafter(21.5, 22)
	if b := sum(next, 0.25, 310.125, 4); a == b {
		t.Error("a one-ulp change in the mean delay left the digest unchanged")
	}
	if b := sum(21.5, 0.25, 310.125, 5); a == b {
		t.Error("a different replica count left the digest unchanged")
	}
	if b := sum(0.25, 21.5, 310.125, 4); a == b {
		t.Error("swapping two fields left the digest unchanged")
	}
	d1, d2 := newDigest(), newDigest()
	d1.bytes([]byte("ab"))
	d1.bytes([]byte("c"))
	d2.bytes([]byte("a"))
	d2.bytes([]byte("bc"))
	if d1.hex() == d2.hex() {
		t.Error("the digest must separate documents, not just concatenate them")
	}
}

func TestInputSeeds(t *testing.T) {
	seen := map[uint64]bool{}
	for k := range 1000 {
		s := inputSeed(7, k)
		if seen[s] {
			t.Fatalf("input %d repeats an earlier seed", k)
		}
		seen[s] = true
		if inputSeed(7, k) != s {
			t.Fatal("inputSeed is not deterministic")
		}
	}
	if inputSeed(7, 0) == inputSeed(8, 0) {
		t.Error("different run seeds gave the same first input")
	}
}

func TestErrorFracAccounting(t *testing.T) {
	var tl tally
	if tl.errorFrac() != 0 {
		t.Error("no operations must read as no errors")
	}
	for i := range 8 {
		tl.check(i%4 != 0, "op %d", i)
	}
	tl.attempted++ // an operation counted before its outcome is known
	tl.fail("late failure")
	if tl.attempted != 9 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 9 and 3", tl.attempted, tl.failed)
	}
	if got, want := tl.errorFrac(), 3.0/9; got != want {
		t.Errorf("error fraction %v, want %v", got, want)
	}
	if len(tl.failures) != 3 || tl.failures[0] != "op 0" || tl.failures[2] != "late failure" {
		t.Errorf("failures %q", tl.failures)
	}
}

func TestWindowMeanHops(t *testing.T) {
	// Brute force over every (source, destination) pair of a small array.
	n, slots := 5, 12
	var num, den float64
	for s := range n * n {
		for d := range n * n {
			h := abs(s/n-d/n) + abs(s%n-d%n)
			w := float64(slots - h + 1)
			if h == 0 {
				w = float64(slots)
			}
			num += float64(h) * w
			den += w
		}
	}
	if got, want := windowMeanHops(n, slots), num/den; math.Abs(got-want) > 1e-12 {
		t.Errorf("windowMeanHops(%d, %d) = %v, want %v", n, slots, got, want)
	}
	// A long window converges on n̄ from below; a short one sits under it.
	if got, want := windowMeanHops(256, 1e8), bounds.MeanDist(256); math.Abs(got-want) > 1e-3 {
		t.Errorf("long-window mean %v, want n̄ = %v", got, want)
	}
	if windowMeanHops(256, 1000) >= bounds.MeanDist(256) {
		t.Error("a 1000-slot window must under-represent long routes")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestReadSSE(t *testing.T) {
	stream := "retry: 500\n\n" +
		"id: 1\nevent: point\ndata: {\"index\":0}\n\n" +
		"id: 2\nevent: point\ndata: {\"index\":1}\n\n" +
		"id: 3\nevent: done\ndata: {\"status\":\"done\"}\n\n"
	var types, data []string
	if err := readSSE(strings.NewReader(stream), func(typ string, d []byte) {
		types = append(types, typ)
		data = append(data, string(d))
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"point", "point", "done"}; !slices.Equal(types, want) {
		t.Errorf("frame types %q, want %q", types, want)
	}
	if data[1] != `{"index":1}` {
		t.Errorf("second frame data %q", data[1])
	}
}
