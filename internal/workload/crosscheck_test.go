package workload

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestAnalysisMatchesCombinatorialRates cross-validates the two analytic
// pipelines for every pattern: the table-driven route walk (Analyze) must
// reproduce the AppendRoute enumeration (bounds.ExactEdgeRates) to within
// float summation order.
func TestAnalysisMatchesCombinatorialRates(t *testing.T) {
	cases := []struct {
		net    topology.Network
		router routing.Router
	}{
		{topology.NewArray2D(4), routing.GreedyXY{A: topology.NewArray2D(4)}},
		{topology.NewArray2D(5), routing.GreedyXY{A: topology.NewArray2D(5)}},
		{topology.NewTorus2D(5), routing.TorusGreedy{T: topology.NewTorus2D(5)}},
	}
	for _, c := range cases {
		for name, d := range bindAll(t, c.net) {
			an, err := Analyze(c.net, c.router, d, nil)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, c.net.Name(), err)
			}
			exact := bounds.ExactEdgeRates(c.net, c.router, 1, d.Prob, nil)
			for e := range exact {
				if math.Abs(an.EdgeRates[e]-exact[e]) > 1e-8 {
					t.Fatalf("%s on %s: edge %d analysis rate %v != combinatorial %v",
						name, c.net.Name(), e, an.EdgeRates[e], exact[e])
				}
			}
			if an.LambdaStar <= 0 || math.IsInf(an.LambdaStar, 1) {
				t.Errorf("%s on %s: bad lambda* %v", name, c.net.Name(), an.LambdaStar)
			}
		}
	}
}

// TestUniformAnalysisMatchesClosedForm pins the pipeline to the paper's
// closed-form array edge rates (Theorem 6).
func TestUniformAnalysisMatchesClosedForm(t *testing.T) {
	a := topology.NewArray2D(5)
	d, err := Uniform{}.Bind(a)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a, routing.GreedyXY{A: a}, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := bounds.EdgeRates(a, 1)
	for e := range closed {
		if math.Abs(an.EdgeRates[e]-closed[e]) > 1e-9 {
			t.Fatalf("edge %d: pipeline %v != closed form %v", e, an.EdgeRates[e], closed[e])
		}
	}
	if want := bounds.StabilityLimit(5); math.Abs(an.LambdaStar-want) > 1e-9 {
		t.Errorf("lambda* = %v, want closed form %v", an.LambdaStar, want)
	}
}

// TestEmpiricalEdgeRatesMatchAnalysis is the simulation leg of the
// cross-check: for each pattern the per-edge arrival rates measured by a
// seeded run must match the analytic λ_e within sampling tolerance.
func TestEmpiricalEdgeRatesMatchAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every pattern; skipped with -short")
	}
	type tc struct {
		net    topology.Network
		router routing.Router
	}
	a4 := topology.NewArray2D(4)
	t5 := topology.NewTorus2D(5)
	cases := []tc{
		{a4, routing.GreedyXY{A: a4}},
		{t5, routing.TorusGreedy{T: t5}},
	}
	for _, c := range cases {
		for name, d := range bindAll(t, c.net) {
			an, err := Analyze(c.net, c.router, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			perNode := 0.5 * an.LambdaStar
			res, err := sim.Run(sim.Config{
				Net:      c.net,
				Router:   c.router,
				Dest:     d,
				NodeRate: perNode,
				Warmup:   500,
				Horizon:  10000,
				Seed:     11,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, c.net.Name(), err)
			}
			totalWant, totalGot := 0.0, 0.0
			for e, rate := range an.EdgeRates {
				want := rate * perNode
				got := res.EdgeRates[e]
				totalWant += want
				totalGot += got
				// Edge arrival streams are positively correlated through the
				// queues (over-dispersed relative to Poisson), so the bound
				// is several nominal sigmas wide; skip edges whose expected
				// count over the horizon is too small for any tight bound.
				if want*res.Time < 400 {
					continue
				}
				if math.Abs(got-want)/want > 0.15 {
					t.Errorf("%s on %s: edge %d measured rate %v vs analytic %v",
						name, c.net.Name(), e, got, want)
				}
			}
			if totalWant > 0 && math.Abs(totalGot-totalWant)/totalWant > 0.03 {
				t.Errorf("%s on %s: total edge traffic %v vs analytic %v",
					name, c.net.Name(), totalGot, totalWant)
			}
		}
	}
}
