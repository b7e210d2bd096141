// Scenarios: drive the workload subsystem from Go — bind a registered
// scenario, read its analytic traffic view (per-edge rates, bottleneck,
// saturation rate λ*), simulate its load ladder on the shared pool, and
// lower a custom declarative spec from JSON.
//
// Run with: go run ./examples/scenarios
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	// A named scenario from the registry (see `go run ./cmd/scenario list`).
	s, err := workload.ByName("hotspot-8x8")
	if err != nil {
		log.Fatal(err)
	}
	s = s.Quick() // shrink for a demo; drop for paper-grade horizons
	b, err := s.Bind()
	if err != nil {
		log.Fatal(err)
	}
	an := b.Analysis
	fmt.Printf("%s on %s\n", s.Name, b.Net.Name())
	fmt.Printf("analytic, before simulating anything:\n")
	fmt.Printf("  saturation rate lambda* = %.4f per node\n", an.LambdaStar)
	fmt.Printf("  bottleneck edge %d (%d->%d)\n", an.Bottleneck,
		b.Net.EdgeFrom(an.Bottleneck), b.Net.EdgeTo(an.Bottleneck))
	fmt.Printf("  mean route length = %.3f hops\n\n", an.MeanHops)

	fmt.Println("load  lambda   T(sim)   T(md1)")
	sim.StreamSweep(context.Background(), b.Configs, s.Replicas, 0, func(i int, rs sim.ReplicaSet, err error) {
		if err != nil {
			log.Fatal(err)
		}
		pt := b.Points[i]
		fmt.Printf("%.2f  %.4f   %-7.3f  %.3f\n",
			pt.Load, pt.NodeRate, rs.MeanDelay, an.MD1DelayAt(pt.NodeRate))
	})

	// The same machinery from a declarative JSON spec: tornado traffic
	// under bursty on-off sources on a 6x6 torus.
	spec := []byte(`{
		"name":     "tornado-bursty-6x6",
		"topology": {"kind": "torus", "n": 6},
		"pattern":  {"kind": "tornado"},
		"arrivals": {"kind": "bursty", "burstFactor": 3, "meanOn": 5, "meanOff": 15},
		"loads":    [0.5, 0.8],
		"horizon":  400,
		"replicas": 2
	}`)
	custom, err := workload.ParseScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	cb, err := custom.Bind()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s: lambda* = %.4f per node (every packet rides its row ring %d hops)\n",
		custom.Name, cb.Analysis.LambdaStar, int(cb.Analysis.MeanHops))
	sets, err := sweep.Collect(len(cb.Configs), func(emit func(int, sim.ReplicaSet, error)) {
		sim.StreamSweep(context.Background(), cb.Configs, custom.Replicas, 0, emit)
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, rs := range sets {
		fmt.Printf("  load %.2f: T = %.3f ± %.3f\n",
			cb.Points[i].Load, rs.MeanDelay, rs.DelayCI)
	}
}
