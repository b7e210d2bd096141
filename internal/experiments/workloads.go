package experiments

import (
	"context"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// workloadScenario binds a registry scenario shrunk to the experiment
// options: quick mode takes the registry's Quick() form and thins the
// load grid.
func workloadScenario(name string, o Options) (*workload.Bound, error) {
	s, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	s.Seed = o.seed()
	if o.Quick {
		s = s.Quick()
		if len(s.Loads) > 2 {
			s.Loads = []float64{s.Loads[0], s.Loads[len(s.Loads)-1]}
		}
	}
	return s.Bind()
}

// HotSpotLadder runs the hot-spot bound ladder: the hotspot-8x8 scenario
// simulated across its load grid against the pattern-aware analytic
// pipeline — exact bottleneck utilization and the per-queue M/D/1
// estimate — with the analytic saturation rate λ* as the column to watch
// the measured delay diverge toward.
func HotSpotLadder(o Options) ([]Table, error) {
	b, err := workloadScenario("hotspot-8x8", o)
	if err != nil {
		return nil, err
	}
	an := b.Analysis
	t := Table{
		ID:     "hotladder",
		Title:  "Hot-spot bound ladder: simulation vs pattern-aware analytics (hotspot-8x8)",
		Header: []string{"load", "lambda", "lambda*", "rho_max", "T(sim)", "±95%", "T(md1)"},
	}
	sets, err := sweep.Collect(len(b.Configs), func(emit func(int, sim.ReplicaSet, error)) {
		sim.StreamSweep(context.Background(), b.Configs, o.replicas(b.Scenario.Replicas), o.Workers, emit)
	})
	if err != nil {
		return nil, err
	}
	for i, rs := range sets {
		pt := b.Points[i]
		t.AddRow(
			f2(pt.Load), f4(pt.NodeRate), f4(an.LambdaStar),
			f2(an.UtilAt(pt.NodeRate)),
			f3(rs.MeanDelay), f3(rs.DelayCI),
			f3(an.MD1DelayAt(pt.NodeRate)),
		)
	}
	t.AddNote("lambda* = %.4f per node (bottleneck edge %d: %d->%d); loads are fractions of lambda*, so rho_max = load.",
		an.LambdaStar, an.Bottleneck, b.Net.EdgeFrom(an.Bottleneck), b.Net.EdgeTo(an.Bottleneck))
	t.AddNote("expected shape: T(sim) tracks T(md1) at low load and diverges as load -> 1, the sim-measured saturation onset agreeing with the analytic lambda*.")
	return []Table{t}, nil
}

// BurstyDelay compares identical mean-rate uniform traffic under the
// three arrival processes — stationary Poisson, on-off MMPP bursts, and
// deterministic periodic injection — at each load. Burstiness is pure
// added variance at equal throughput, so delays must order
// periodic ≤ Poisson ≤ bursty.
func BurstyDelay(o Options) ([]Table, error) {
	kinds := []workload.ArrivalSpec{
		{Kind: "poisson"},
		{Kind: "bursty", BurstFactor: 4, MeanOn: 10, MeanOff: 30},
		{Kind: "periodic"},
	}
	s, err := workload.ByName("bursty-8x8")
	if err != nil {
		return nil, err
	}
	s.Seed = o.seed()
	if o.Quick {
		s = s.Quick()
		s.Loads = []float64{0.3, 0.7}
	}
	// One flat config list over (kind, load) so a single pool run covers
	// the whole comparison.
	var cfgs []sim.Config
	var bounds []*workload.Bound
	for _, kind := range kinds {
		sk := s
		sk.Arrivals = kind
		b, err := sk.Bind()
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, b)
		cfgs = append(cfgs, b.Configs...)
	}
	// Replica count comes from the bound scenario: Bind has applied the
	// registry defaults (the raw spec leaves Replicas at 0).
	sets, err := sweep.Collect(len(cfgs), func(emit func(int, sim.ReplicaSet, error)) {
		sim.StreamSweep(context.Background(), cfgs, o.replicas(bounds[0].Scenario.Replicas), o.Workers, emit)
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "bursty",
		Title: "Bursty vs Poisson vs periodic arrivals at equal mean rate (uniform 8x8)",
		Header: []string{"load", "lambda", "T(poisson)", "±95%", "T(bursty)", "±95%",
			"T(periodic)", "±95%"},
	}
	nLoads := len(s.Loads)
	for i := 0; i < nLoads; i++ {
		pt := bounds[0].Points[i]
		row := []string{f2(pt.Load), f4(pt.NodeRate)}
		for k := range kinds {
			rs := sets[k*nLoads+i]
			row = append(row, f3(rs.MeanDelay), f3(rs.DelayCI))
		}
		t.AddRow(row...)
	}
	t.AddNote("same mean rate per cell; bursty = on-off MMPP at 4x rate in bursts (mean on 10, off 30), periodic = deterministic interarrivals.")
	t.AddNote("expected shape: T(periodic) <= T(poisson) <= T(bursty) at every load, widening with load.")
	return []Table{t}, nil
}
