// Adaptive sweep A/B: the measurement behind BENCH.md's "Variance
// reduction" section. The same slotted hotspot ρ-ladder is swept at equal
// precision three ways and timed end to end:
//
//   - fixed: the standard practice this PR's adaptive layer replaces — a
//     uniform replica budget sized so the WORST point of the ladder meets
//     the precision target, paid at every point;
//   - adaptive: sequential stopping (sweep.Opts.TargetCI) —
//     each point stops at the first batch boundary where its 95%
//     half-width is under the target, so the easy low-ρ points stop at
//     MinReps and only the near-saturation points spend the budget;
//   - adaptive+warm: stopping plus snapshot warm-starts along the ladder
//     (each replica resumes the previous point's captured steady state
//     with Slots/8 of re-warm instead of the full warmup).
//
// "Equal precision" is literal: the target is the half-width profile the
// fixed budget actually buys at its loosest point, measured from the
// fixed baseline itself, so every mode delivers hw <= target at every
// point (unless capped at the budget, which the table marks).
//
// Run with: go run ./examples/adaptivesweep            # full 64×64 ladder
//
//	go run ./examples/adaptivesweep -quick     # small sanity run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 64, "array side (n x n)")
	budget := flag.Int("budget", 32, "fixed replica budget (adaptive MaxReps)")
	minReps := flag.Int("min-reps", 4, "adaptive minimum replicas per point")
	workers := flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
	quick := flag.Bool("quick", false, "shrink horizon and budget for a fast sanity run")
	flag.Parse()

	s, err := workload.ByName("hotspot-8x8")
	if err != nil {
		log.Fatal(err)
	}
	s.Topology.N = *n
	if *quick {
		s.Horizon, s.Warmup = 800, 200
		if *budget > 8 {
			*budget = 8
		}
	}
	b, err := s.Bind()
	if err != nil {
		log.Fatal(err)
	}
	cfgs, err := b.SlottedConfigs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s scaled to %dx%d, slotted engine: %d loads, %d warmup + %d measured slots, budget %d\n\n",
		s.Name, *n, *n, len(cfgs), cfgs[0].WarmupSlots, cfgs[0].Slots, *budget)

	type mode struct {
		name string
		opts sweep.Opts
	}
	fixed := mode{"fixed", sweep.Opts{Replicas: *budget, Workers: *workers}}
	run := func(opts sweep.Opts) ([]stepsim.ReplicaSet, error) {
		return sweep.Collect(len(cfgs), func(emit func(int, stepsim.ReplicaSet, error)) {
			stepsim.StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
		})
	}

	// The fixed baseline doubles as the calibration run: its loosest
	// point defines the precision target every mode must meet.
	start := time.Now()
	base, err := run(fixed.opts)
	if err != nil {
		log.Fatal(err)
	}
	fixedTime := time.Since(start)
	var target float64
	for _, rs := range base {
		if rs.DelayCI > target {
			target = rs.DelayCI
		}
	}
	fmt.Printf("precision target (loosest fixed half-width): %.4f slots\n\n", target)

	adaptive := sweep.Opts{
		TargetCI: target, MinReps: *minReps, MaxReps: *budget, Workers: *workers,
	}
	warm := adaptive
	warm.WarmStart = true
	warm.Rewarm = float64(cfgs[0].Slots / 8)

	modes := []mode{fixed, {"adaptive", adaptive}, {"adaptive+warm", warm}}
	results := make([][]stepsim.ReplicaSet, len(modes))
	times := make([]time.Duration, len(modes))
	results[0], times[0] = base, fixedTime
	for i := 1; i < len(modes); i++ {
		start = time.Now()
		results[i], err = run(modes[i].opts)
		if err != nil {
			log.Fatal(err)
		}
		times[i] = time.Since(start)
	}

	fmt.Println("mode              wall-clock  replicas  max-hw   speedup  per-point replicas (low->high rho)")
	for i, m := range modes {
		total, maxHW := 0, 0.0
		capped := false
		perPoint := ""
		for _, rs := range results[i] {
			total += rs.ReplicasUsed
			if rs.DelayCI > maxHW {
				maxHW = rs.DelayCI
			}
			if rs.DelayCI > target && rs.ReplicasUsed >= *budget {
				capped = true
			}
			perPoint += fmt.Sprintf(" %d", rs.ReplicasUsed)
		}
		note := ""
		if capped {
			note = " (capped)"
		}
		fmt.Printf("%-17s %9.2fs  %8d  %.4f  %6.2fx %s%s\n",
			m.name, times[i].Seconds(), total, maxHW,
			times[0].Seconds()/times[i].Seconds(), perPoint, note)
	}
	fmt.Println("\nall modes deliver a 95% half-width <= the target at every point;")
	fmt.Println("speedup is end-to-end wall-clock vs the fixed baseline.")
}
