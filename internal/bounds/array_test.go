package bounds

import (
	"math"
	"testing"

	"repro/internal/queueing"
	"repro/internal/routing"
	"repro/internal/topology"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanDist(t *testing.T) {
	// n̄ = (2/3)(n - 1/n) and n̄₂ = 2n/3 (checked against enumeration in
	// routing tests; here check the closed forms directly).
	if !almost(MeanDist(5), 2.0/3.0*(5-0.2), 1e-12) {
		t.Error("MeanDist(5)")
	}
	if !almost(MeanDistExcl(10), 20.0/3.0, 1e-12) {
		t.Error("MeanDistExcl(10)")
	}
}

func TestStabilityLimits(t *testing.T) {
	// Even n: 4/n. Odd n: 4n/(n²-1).
	if !almost(StabilityLimit(10), 0.4, 1e-12) {
		t.Errorf("StabilityLimit(10) = %v", StabilityLimit(10))
	}
	if !almost(StabilityLimit(5), 20.0/24.0, 1e-12) {
		t.Errorf("StabilityLimit(5) = %v", StabilityLimit(5))
	}
	// Load and LambdaForLoad are inverses.
	for _, n := range []int{4, 5, 10, 15} {
		for _, rho := range []float64{0.1, 0.5, 0.99} {
			l := LambdaForLoad(n, rho)
			if !almost(Load(n, l), rho, 1e-12) {
				t.Errorf("n=%d rho=%v: Load(LambdaForLoad) = %v", n, rho, Load(n, l))
			}
		}
	}
	// Optimal configuration: 6/(n+1), strictly above the standard limit.
	for _, n := range []int{4, 5, 8, 15, 20} {
		if OptimalStabilityLimit(n) <= StabilityLimit(n) {
			t.Errorf("n=%d: optimal limit %v not above standard %v",
				n, OptimalStabilityLimit(n), StabilityLimit(n))
		}
	}
	if !almost(OptimalStabilityLimit(5), 1, 1e-12) {
		t.Errorf("OptimalStabilityLimit(5) = %v", OptimalStabilityLimit(5))
	}
}

func TestEdgeRatesMatchEnumeration(t *testing.T) {
	// Theorem 6 closed forms must equal brute-force route counting.
	for _, n := range []int{3, 4, 5, 8} {
		a := topology.NewArray2D(n)
		lambda := 0.37
		exact := ExactEdgeRates(a, routing.GreedyXY{A: a}, lambda, UniformDist(a), nil)
		for e := 0; e < a.NumEdges(); e++ {
			want := EdgeRate(a, e, lambda)
			if !almost(exact[e], want, 1e-9) {
				r, c, d := a.EdgeInfo(e)
				t.Fatalf("n=%d edge (%d,%d,%v): enumerated %v, Theorem 6 gives %v",
					n, r, c, d, exact[e], want)
			}
		}
	}
}

func TestEdgeRatesSumToMeanDistTimesArrival(t *testing.T) {
	// Σ_e λ_e = n̄·λn² (each packet contributes one arrival per hop).
	for _, n := range []int{4, 7} {
		a := topology.NewArray2D(n)
		lambda := 0.2
		sum := 0.0
		for _, r := range EdgeRates(a, lambda) {
			sum += r
		}
		want := MeanDist(n) * lambda * float64(n*n)
		if !almost(sum, want, 1e-9) {
			t.Errorf("n=%d: Σλ_e = %v, want %v", n, sum, want)
		}
	}
}

func TestUpperBoundMatchesJacksonEvaluation(t *testing.T) {
	// Theorem 7's closed form must equal the generic product-form formula
	// applied to the Theorem 6 rate vector.
	for _, n := range []int{4, 5, 10} {
		a := topology.NewArray2D(n)
		lambda := 0.8 * StabilityLimit(n)
		rates := EdgeRates(a, lambda)
		phi := make([]float64, len(rates))
		for j := range phi {
			phi[j] = 1
		}
		want, err := JacksonT(rates, phi, lambda*float64(n*n))
		if err != nil {
			t.Fatal(err)
		}
		got := UpperBoundT(n, lambda)
		if !almost(got, want, 1e-9) {
			t.Errorf("n=%d: UpperBoundT = %v, Jackson eval = %v", n, got, want)
		}
	}
}

func TestMD1ApproxMatchesSystemEvaluation(t *testing.T) {
	for _, n := range []int{4, 5, 10} {
		a := topology.NewArray2D(n)
		lambda := 0.9 * StabilityLimit(n)
		rates := EdgeRates(a, lambda)
		phi := make([]float64, len(rates))
		for j := range phi {
			phi[j] = 1
		}
		want, err := MD1SystemT(rates, phi, lambda*float64(n*n))
		if err != nil {
			t.Fatal(err)
		}
		got := MD1ApproxT(n, lambda)
		if !almost(got, want, 1e-9) {
			t.Errorf("n=%d: MD1ApproxT = %v, system eval = %v", n, got, want)
		}
	}
}

func TestBoundOrdering(t *testing.T) {
	// Everywhere in the stable region: every lower bound <= MD1 approx <=
	// upper bound, and upper <= 2×MD1 (Lemma 9).
	for _, n := range []int{4, 5, 10, 15} {
		for _, rho := range []float64{0.05, 0.3, 0.6, 0.9, 0.99} {
			lambda := LambdaForLoad(n, rho)
			up := UpperBoundT(n, lambda)
			md := MD1ApproxT(n, lambda)
			low := BestLowerBound(n, lambda)
			if !(low <= md+1e-9 && md <= up+1e-9) {
				t.Errorf("n=%d rho=%v: ordering violated: low %v, md1 %v, up %v", n, rho, low, md, up)
			}
			if up > 2*md+1e-9 {
				t.Errorf("n=%d rho=%v: Lemma 9 violated: up %v > 2×md1 %v", n, rho, up, md)
			}
			if low < MeanDist(n)-1e-12 {
				t.Errorf("n=%d: lower bound below trivial n̄", n)
			}
		}
	}
}

func TestUpperBoundLowLoadLimit(t *testing.T) {
	// As λ→0 both the upper bound and the approximation approach n̄.
	for _, n := range []int{4, 9} {
		if !almost(UpperBoundT(n, 0), MeanDist(n), 1e-12) {
			t.Errorf("n=%d: UpperBoundT(0) != n̄", n)
		}
		if !almost(MD1ApproxT(n, 0), MeanDist(n), 1e-12) {
			t.Errorf("n=%d: MD1ApproxT(0) != n̄", n)
		}
		tiny := 1e-9
		if !almost(UpperBoundT(n, tiny), MeanDist(n), 1e-6) {
			t.Errorf("n=%d: UpperBoundT(ε) far from n̄", n)
		}
	}
}

func TestUnstableIsInfinite(t *testing.T) {
	n := 6
	lambda := StabilityLimit(n)
	if !math.IsInf(UpperBoundT(n, lambda), 1) {
		t.Error("UpperBoundT at capacity should be +Inf")
	}
	if !math.IsInf(MD1ApproxT(n, lambda*1.01), 1) {
		t.Error("MD1ApproxT above capacity should be +Inf")
	}
	if !math.IsInf(STLowerBoundAny(n, lambda), 1) {
		t.Error("Thm 8 at capacity should be +Inf")
	}
	if !math.IsInf(Thm14LowerBound(n, lambda), 1) {
		t.Error("Thm 14 at capacity should be +Inf")
	}
}

func TestSTLowerFactor(t *testing.T) {
	if STLowerFactor(6) != 0.5 {
		t.Error("even factor")
	}
	if !almost(STLowerFactor(5), 0.5-1.0/25, 1e-12) {
		t.Error("odd factor")
	}
	// Oblivious bound dominates the any-scheme bound (greedy is oblivious).
	for _, rho := range []float64{0.3, 0.9} {
		n := 8
		lambda := LambdaForLoad(n, rho)
		if STLowerBoundOblivious(n, lambda) < STLowerBoundAny(n, lambda) {
			t.Error("oblivious bound weaker than general bound")
		}
	}
}

func TestDBarMatchesEnumeration(t *testing.T) {
	// Definition 11's d̄ = n - 1/2, achieved at a corner heading along the
	// row; the exact per-edge enumeration must agree.
	for _, n := range []int{2, 3, 4, 5, 8, 13} {
		a := topology.NewArray2D(n)
		rem := ExpectedRemaining(a)
		dbar := 0.0
		argmax := -1
		for e, v := range rem {
			if v > dbar {
				dbar, argmax = v, e
			}
		}
		if !almost(dbar, DBar(n), 1e-9) {
			t.Errorf("n=%d: enumerated d̄ = %v, want %v", n, dbar, DBar(n))
		}
		// The maximizer should be a corner-row edge, e.g. (1,1) heading
		// right (paper) — in 0-based terms a horizontal edge at a corner
		// with the full row left to travel.
		r, c, d := a.EdgeInfo(argmax)
		if d != topology.Right && d != topology.Left {
			t.Errorf("n=%d: d̄ achieved on %v edge at (%d,%d), want horizontal", n, d, r, c)
		}
	}
}

func TestExpectedRemainingAllPositive(t *testing.T) {
	a := topology.NewArray2D(6)
	for e, v := range ExpectedRemaining(a) {
		if v < 1 {
			// Every queued packet needs at least its current service.
			t.Fatalf("edge %d: d_e = %v < 1", e, v)
		}
	}
}

func TestSaturatedEdges(t *testing.T) {
	// Even n: 4n saturated edges; odd n >= 5: 8n.
	for _, tc := range []struct{ n, want int }{
		{4, 16}, {6, 24}, {10, 40}, {5, 40}, {7, 56}, {3, 24},
	} {
		if got := NumSaturatedEdges(tc.n); got != tc.want {
			t.Errorf("n=%d: NumSaturatedEdges = %d, want %d", tc.n, got, tc.want)
		}
		a := topology.NewArray2D(tc.n)
		count := 0
		for _, s := range SaturatedEdges(a) {
			if s {
				count++
			}
		}
		if count != tc.want {
			t.Errorf("n=%d: SaturatedEdges marks %d, want %d", tc.n, count, tc.want)
		}
	}
}

func TestMaxSaturatedCrossings(t *testing.T) {
	// Figure 2: at most 2 saturated edges per route for even n, 4 for odd.
	for _, tc := range []struct{ n, want int }{
		{4, 2}, {6, 2}, {10, 2}, {20, 2},
		{5, 4}, {7, 4}, {15, 4}, {3, 4},
	} {
		if got := MaxSaturatedCrossings(tc.n); got != tc.want {
			t.Errorf("n=%d: MaxSaturatedCrossings = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestMaxSaturatedCrossingsMatchesRouteScan(t *testing.T) {
	// The axis decomposition must agree with counting saturated edges on
	// full greedy routes.
	for _, n := range []int{4, 5, 6, 7} {
		a := topology.NewArray2D(n)
		sat := SaturatedEdges(a)
		g := routing.GreedyXY{A: a}
		var buf []int
		maxCount := 0
		for src := 0; src < a.NumNodes(); src++ {
			for dst := 0; dst < a.NumNodes(); dst++ {
				buf = g.AppendRoute(buf[:0], src, dst, nil)
				count := 0
				for _, e := range buf {
					if sat[e] {
						count++
					}
				}
				if count > maxCount {
					maxCount = count
				}
			}
		}
		if maxCount != MaxSaturatedCrossings(n) {
			t.Errorf("n=%d: route scan max %d != axis computation %d",
				n, maxCount, MaxSaturatedCrossings(n))
		}
	}
}

func TestSBar(t *testing.T) {
	// s̄ = 3/2 exactly for even n; < 3 for odd n, approaching 3.
	for _, n := range []int{4, 6, 10, 20} {
		if !almost(SBar(n), 1.5, 1e-9) {
			t.Errorf("n=%d: s̄ = %v, want 1.5", n, SBar(n))
		}
	}
	prev := 0.0
	for _, n := range []int{5, 9, 15, 25, 41} {
		s := SBar(n)
		if s >= 3 {
			t.Errorf("n=%d: s̄ = %v, want < 3", n, s)
		}
		if s < prev {
			t.Errorf("n=%d: odd-n s̄ = %v not increasing toward 3 (prev %v)", n, s, prev)
		}
		prev = s
	}
	if prev < 2.5 {
		t.Errorf("odd-n s̄ should approach 3; at n=41 got %v", prev)
	}
}

func TestGapLimit(t *testing.T) {
	// As ρ→1 the ratio upper/Thm14 must approach 2s̄ = 3 (even), <= 6 (odd).
	for _, n := range []int{6, 10} {
		if !almost(GapLimit(n), 3, 1e-9) {
			t.Errorf("n=%d: GapLimit = %v, want 3", n, GapLimit(n))
		}
	}
	for _, n := range []int{5, 9} {
		if g := GapLimit(n); g >= 6 {
			t.Errorf("n=%d: GapLimit = %v, want < 6", n, g)
		}
	}
	for _, n := range []int{6, 9} {
		ratioAt := func(rho float64) float64 {
			lambda := LambdaForLoad(n, rho)
			return UpperBoundT(n, lambda) / Thm14LowerBound(n, lambda)
		}
		r999 := ratioAt(0.999)
		if math.Abs(r999-GapLimit(n)) > 0.15*GapLimit(n) {
			t.Errorf("n=%d: ratio at rho=0.999 is %v, want near %v", n, r999, GapLimit(n))
		}
		// Convergence: closer at 0.999 than at 0.9.
		if math.Abs(ratioAt(0.9)-GapLimit(n)) < math.Abs(r999-GapLimit(n)) {
			t.Errorf("n=%d: gap ratio not converging to limit", n)
		}
	}
}

func TestThm12TightensThm10(t *testing.T) {
	for _, n := range []int{4, 5, 10} {
		lambda := 0.9 * StabilityLimit(n)
		if Thm12LowerBound(n, lambda) <= Thm10LowerBound(n, lambda) {
			t.Errorf("n=%d: Thm 12 does not improve on Thm 10", n)
		}
		// The improvement factor is d/d̄ = 2(n-1)/(n-1/2) < 2.
		ratio := Thm12LowerBound(n, lambda) / Thm10LowerBound(n, lambda)
		want := float64(MaxRouteLen(n)) / DBar(n)
		if !almost(ratio, want, 1e-9) {
			t.Errorf("n=%d: improvement ratio %v, want %v", n, ratio, want)
		}
	}
}

func TestOptimalAllocationStabilityWindow(t *testing.T) {
	// With the standard budget, Theorem 15's allocation is feasible exactly
	// for lambda < 6/(n+1).
	for _, n := range []int{4, 5, 8, 9} {
		a := topology.NewArray2D(n)
		limit := OptimalStabilityLimit(n)
		if _, dstar, err := ArrayOptimalAllocation(a, 0.99*limit, StandardBudget(n)); err != nil || dstar <= 0 {
			t.Errorf("n=%d: allocation infeasible just below 6/(n+1): %v", n, err)
		}
		if _, _, err := ArrayOptimalAllocation(a, 1.01*limit, StandardBudget(n)); err == nil {
			t.Errorf("n=%d: allocation feasible above 6/(n+1)", n)
		}
	}
}

func TestOptimalBeatsStandardNearCapacity(t *testing.T) {
	// Above the standard stability limit but below 6/(n+1) the optimal
	// network is stable while the standard one is not; below the standard
	// limit the optimal Jackson delay is no worse.
	n := 8
	a := topology.NewArray2D(n)
	lambda := 0.5 * (StabilityLimit(n) + OptimalStabilityLimit(n)) // between limits
	if !math.IsInf(UpperBoundT(n, lambda), 1) {
		t.Fatal("standard array should be unstable here")
	}
	topt, err := ArrayOptimalT(a, lambda, StandardBudget(n))
	if err != nil || math.IsInf(topt, 1) {
		t.Fatalf("optimal array should be stable here: T=%v err=%v", topt, err)
	}
	lambda = 0.9 * StabilityLimit(n)
	topt, err = ArrayOptimalT(a, lambda, StandardBudget(n))
	if err != nil {
		t.Fatal(err)
	}
	tstd, err := ArrayStandardT(a, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if topt > tstd {
		t.Errorf("optimal T %v worse than standard T %v", topt, tstd)
	}
}

func TestOptimalTMatchesJacksonAtOptimum(t *testing.T) {
	n := 6
	a := topology.NewArray2D(n)
	lambda := 0.8 * StabilityLimit(n)
	phi, _, err := ArrayOptimalAllocation(a, lambda, StandardBudget(n))
	if err != nil {
		t.Fatal(err)
	}
	rates := EdgeRates(a, lambda)
	direct, err := JacksonT(rates, phi, lambda*float64(n*n))
	if err != nil {
		t.Fatal(err)
	}
	closed, err := ArrayOptimalT(a, lambda, StandardBudget(n))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(direct, closed, 1e-9) {
		t.Errorf("closed form %v != Jackson at optimum %v", closed, direct)
	}
	// Budget exactly spent.
	spent := 0.0
	for _, p := range phi {
		spent += p
	}
	if !almost(spent, StandardBudget(n), 1e-6) {
		t.Errorf("budget spent %v != %v", spent, StandardBudget(n))
	}
}

func TestVerifyLayering(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 12} {
		if err := VerifyLayering(n); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRenderFigures(t *testing.T) {
	// The renders should mention the right counts and not be empty.
	fig1 := RenderLayering(4)
	if len(fig1) < 50 {
		t.Error("Figure 1 render too short")
	}
	fig2even := RenderSaturated(4)
	fig2odd := RenderSaturated(5)
	if len(fig2even) < 50 || len(fig2odd) < 50 {
		t.Error("Figure 2 render too short")
	}
	if !containsAll(fig2even, "even", "max 2") {
		t.Errorf("even render missing markers:\n%s", fig2even)
	}
	if !containsAll(fig2odd, "odd", "max 4") {
		t.Errorf("odd render missing markers:\n%s", fig2odd)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMeanRouteLenGeneral(t *testing.T) {
	a := topology.NewArray2D(6)
	got := MeanRouteLen(a, routing.GreedyXY{A: a}, UniformDist(a), nil)
	if !almost(got, MeanDist(6), 1e-9) {
		t.Errorf("MeanRouteLen = %v, want %v", got, MeanDist(6))
	}
}

func TestJacksonTErrors(t *testing.T) {
	if _, err := JacksonT([]float64{2}, []float64{1}, 1); err == nil {
		t.Error("unstable JacksonT accepted")
	}
	if _, err := MD1SystemT([]float64{2}, []float64{1}, 1); err == nil {
		t.Error("unstable MD1SystemT accepted")
	}
}

// Guard against accidental changes to the queueing package invariants this
// package depends on.
func TestLemma9AtSingleQueue(t *testing.T) {
	for _, u := range []float64{0.1, 0.5, 0.9, 0.99} {
		mm, _ := queueing.MM1Number(u, 1)
		md, _ := queueing.MD1Number(u, 1)
		if mm < md || mm > 2*md {
			t.Errorf("u=%v: Lemma 9 sandwich violated (%v vs %v)", u, mm, md)
		}
	}
}
