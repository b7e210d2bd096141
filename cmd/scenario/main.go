// Command scenario lists, describes, validates and runs the declarative
// traffic scenarios of internal/workload: named (topology, router,
// pattern, arrival process, load ladder) bundles that lower to parallel
// simulation sweeps with a matching analytic pipeline (exact per-edge
// rates, bottleneck utilization, and the saturation rate λ*).
//
// Usage:
//
//	scenario list
//	scenario describe hotspot-8x8
//	scenario validate my-scenario.json
//	scenario run hotspot-8x8 -quick
//	scenario run tornado-8x8 -replicas 8 -workers 4 -json
//
// run accepts either a registered name (scenario list) or a path to a
// JSON spec file with the same schema describe prints.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: scenario <command> [arguments]

commands:
  list                       list registered scenarios
  describe <name|file.json>  print a scenario's spec, analysis and JSON schema
  validate <name|file.json>  check a scenario spec and its analytic stability
  run <name|file.json>       simulate a scenario across its load ladder
      -quick     shrink horizon and replicas for a smoke run
      -json      emit results as JSON instead of a table
      -engine    des (event-driven, default) | slotted (synchronous §5.2 model)
      -replicas  override the replica count
      -workers   max parallel simulations (0 = GOMAXPROCS)
      -seed      override the base seed
      -horizon   override the measured horizon (slots when -engine=slotted)
      -shards    slotted intra-run tiles per run: N, or auto (spend spare
                 cores; results are bit-identical at every value)
      -lookahead slotted batched barriers: slots each tile runs between
                 global barriers (clamped to the tile plan; results are
                 bit-identical at every depth; -1: keep the scenario's
                 lookahead field)
      -target-ci adaptive replica stopping: stop each point once its 95%
                 delay half-width is <= this (overrides the scenario's
                 targetCI; 0 keeps fixed replicas)
      -min-reps  adaptive mode: minimum replicas per point
      -max-reps  adaptive mode: replica cap per point
      -warm-start chain engine snapshots up the load ladder instead of
                 cold-starting every point (Poisson scenarios only)
      -rewarm    warm-started points' warmup in slots (-1: keep the
                 scenario's rewarmSlots)`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		for _, s := range workload.Registry() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.Name, s.Description)
		}
		return 0
	case "describe":
		return describe(args[1:], stdout, stderr)
	case "validate":
		return validate(args[1:], stdout, stderr)
	case "run":
		return runScenario(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "scenario: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

// load resolves a scenario argument: a path to a JSON spec when it names a
// readable file, a registry name otherwise.
func load(arg string) (workload.Scenario, error) {
	if data, err := os.ReadFile(arg); err == nil {
		return workload.ParseScenario(data)
	}
	if strings.HasSuffix(arg, ".json") {
		return workload.Scenario{}, fmt.Errorf("scenario: cannot read spec file %q", arg)
	}
	return workload.ByName(arg)
}

func describe(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "scenario: describe needs exactly one scenario name or spec file")
		return 2
	}
	s, err := load(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b, err := s.Bind()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s\n", s.Name, s.Description)
	printHeader(stdout, b)
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\nspec:\n%s\n", data)
	return 0
}

func validate(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "scenario: validate needs exactly one scenario name or spec file")
		return 2
	}
	s, err := load(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, err := s.Bind(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok\n", s.Name)
	return 0
}

// pointResult is one load point's outcome in -json mode.
type pointResult struct {
	Load      float64 `json:"load"`
	NodeRate  float64 `json:"nodeRate"`
	RhoMax    float64 `json:"rhoMax"`
	MeanDelay float64 `json:"meanDelay"`
	DelayCI   float64 `json:"delayCI"`
	MeanN     float64 `json:"meanN"`
	MD1Delay  float64 `json:"md1Delay"`
	// MeanActiveEdges and ArrivalSlotFraction carry the slotted engine's
	// occupancy instrumentation (stepsim.Result); zero on des runs.
	MeanActiveEdges     float64 `json:"meanActiveEdges,omitempty"`
	ArrivalSlotFraction float64 `json:"arrivalSlotFraction,omitempty"`
	// ReplicasUsed records the replication: the fixed count normally, the
	// adaptive stopping point under a targetCI.
	ReplicasUsed int    `json:"replicasUsed,omitempty"`
	Error        string `json:"error,omitempty"`
}

// runResult is the -json document.
type runResult struct {
	Scenario workload.Scenario `json:"scenario"`
	Engine   string            `json:"engine"`
	// Version is the build's code identity (buildinfo.Version): with the
	// engines bit-deterministic per build, scenario + engine + version
	// fully determine every float below, so a recorded document carries
	// its own reproducibility contract.
	Version    string        `json:"version"`
	LambdaStar float64       `json:"lambdaStar"`
	Bottleneck int           `json:"bottleneckEdge"`
	MeanHops   float64       `json:"meanHops"`
	Points     []pointResult `json:"points"`
}

func runScenario(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "shrink horizon and replicas for a smoke run")
		jsonOut  = fs.Bool("json", false, "emit JSON instead of a table")
		engine   = fs.String("engine", "des", "des (event-driven) | slotted (synchronous)")
		replicas = fs.Int("replicas", 0, "override the replica count")
		workers  = fs.Int("workers", 0, "max parallel simulations (0 = GOMAXPROCS)")
		seed     = fs.Uint64("seed", 0, "override the base seed")
		horizon  = fs.Float64("horizon", 0, "override the measured horizon")
		shards   = fs.String("shards", "", "slotted intra-run tiles per run: N, or auto (default: the scenario's shards field)")
		lookahd  = fs.Int("lookahead", -1, "slotted batched barriers: slots each tile runs between global barriers (-1: keep the scenario's lookahead field)")
		targetCI = fs.Float64("target-ci", 0, "adaptive replica stopping target half-width (overrides the scenario's targetCI)")
		minReps  = fs.Int("min-reps", 0, "adaptive minimum replicas per point (overrides the scenario's minReplicas)")
		maxReps  = fs.Int("max-reps", 0, "adaptive replica cap per point (overrides the scenario's maxReplicas)")
		warm     = fs.Bool("warm-start", false, "chain engine snapshots up the load ladder")
		rewarm   = fs.Int("rewarm", -1, "warm-started points' warmup in slots (-1: keep the scenario's rewarmSlots)")
	)
	// Accept both "run -quick name" and "run name -quick".
	var name string
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		name, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if name == "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "scenario: run needs exactly one scenario name or spec file")
			return 2
		}
		name = fs.Arg(0)
	}
	s, err := load(name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *quick {
		s = s.Quick()
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *horizon > 0 {
		s.Horizon = *horizon
		s.Warmup = *horizon / 4
	}
	if *replicas > 0 {
		s.Replicas = *replicas
	}
	shardsFlagged := *shards != ""
	if shardsFlagged {
		if *shards == "auto" {
			s.Shards = 0 // the sweep pool resolves spare cores at run time
		} else if v, err := strconv.Atoi(*shards); err == nil && v >= 0 {
			s.Shards = v
		} else {
			fmt.Fprintf(stderr, "scenario: bad -shards %q (want a count or auto)\n", *shards)
			return 2
		}
	}
	if *lookahd >= 0 {
		s.Lookahead = *lookahd
	}
	// Variance-reduction overrides ride on the scenario before Bind so the
	// spec-level validation (Poisson-only warm starts, min <= max) applies
	// to the effective combination.
	if *targetCI > 0 {
		s.TargetCI = *targetCI
	}
	if *minReps > 0 {
		s.MinReplicas = *minReps
	}
	if *maxReps > 0 {
		s.MaxReplicas = *maxReps
	}
	if *warm {
		s.WarmStart = true
	}
	if *rewarm >= 0 {
		s.RewarmSlots = *rewarm
	}
	b, err := s.Bind()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *engine != "des" && *engine != "slotted" {
		fmt.Fprintf(stderr, "scenario: unknown engine %q (want des or slotted)\n", *engine)
		return 2
	}
	// An explicit -shards flag on the event engine is a contradiction worth
	// stopping on; a shards field inside the scenario spec is not — the
	// field is documented as slotted-only and the des path ignores it.
	if shardsFlagged && s.Shards > 1 && *engine != "slotted" {
		fmt.Fprintf(stderr, "scenario: -shards applies to -engine=slotted only (the event engine has no intra-run parallelism)\n")
		return 2
	}
	if *lookahd > 1 && *engine != "slotted" {
		fmt.Fprintf(stderr, "scenario: -lookahead applies to -engine=slotted only (the event engine has no slot barriers to batch)\n")
		return 2
	}
	an := b.Analysis
	out := runResult{
		Scenario:   b.Scenario,
		Engine:     *engine,
		Version:    buildinfo.Version(),
		LambdaStar: an.LambdaStar,
		Bottleneck: an.Bottleneck,
		MeanHops:   an.MeanHops,
	}
	slotted := *engine == "slotted"
	if !*jsonOut {
		fmt.Fprintf(stdout, "%s: %s [engine: %s]\n", b.Scenario.Name, b.Scenario.Description, *engine)
		printHeader(stdout, b)
		if slotted {
			// The slotted table carries the occupancy instrumentation that
			// explains the engine's wall-clock per point.
			fmt.Fprintf(stdout, "\n%-6s %-10s %-8s %-9s %-8s %-9s %-8s %-10s %-9s %-5s\n",
				"load", "lambda", "rho_max", "T(sim)", "±95%", "N(sim)", "T(md1)", "act_edges", "arr_frac", "reps")
		} else {
			fmt.Fprintf(stdout, "\n%-6s %-10s %-8s %-9s %-8s %-9s %-8s %-5s\n",
				"load", "lambda", "rho_max", "T(sim)", "±95%", "N(sim)", "T(md1)", "reps")
		}
	}
	failed := 0
	record := func(i int, meanDelay, delayCI, meanN, activeEdges, arrivalFrac float64, replicasUsed int, err error) {
		pt := b.Points[i]
		pr := pointResult{
			Load:     pt.Load,
			NodeRate: pt.NodeRate,
			RhoMax:   an.UtilAt(pt.NodeRate),
			MD1Delay: an.MD1DelayAt(pt.NodeRate),
		}
		if err != nil {
			pr.Error = err.Error()
			failed++
			if !*jsonOut {
				fmt.Fprintf(stderr, "scenario: load %.2f: %v\n", pt.Load, err)
			}
		} else {
			pr.MeanDelay, pr.DelayCI, pr.MeanN = meanDelay, delayCI, meanN
			pr.MeanActiveEdges, pr.ArrivalSlotFraction = activeEdges, arrivalFrac
			pr.ReplicasUsed = replicasUsed
			if !*jsonOut {
				if slotted {
					fmt.Fprintf(stdout, "%-6.2f %-10.6f %-8.2f %-9.3f %-8.3f %-9.3f %-8s %-10.1f %-9.5f %-5d\n",
						pt.Load, pt.NodeRate, pr.RhoMax,
						meanDelay, delayCI, meanN, fmtMD1(pr.MD1Delay),
						activeEdges, arrivalFrac, replicasUsed)
				} else {
					fmt.Fprintf(stdout, "%-6.2f %-10.6f %-8.2f %-9.3f %-8.3f %-9.3f %-8s %-5d\n",
						pt.Load, pt.NodeRate, pr.RhoMax,
						meanDelay, delayCI, meanN, fmtMD1(pr.MD1Delay), replicasUsed)
				}
			}
		}
		out.Points = append(out.Points, pr)
	}
	// One replication policy for both engines: the scenario's fixed
	// replicas unless it (or a flag) sets targetCI or warmStart.
	opts := b.SweepOpts(*workers)
	if slotted {
		cfgs, err := b.SlottedConfigs()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		emitFn := func(i int, rs stepsim.ReplicaSet, err error) {
			record(i, rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.MeanActiveEdges, rs.ArrivalSlotFraction, rs.ReplicasUsed, err)
		}
		stepsim.StreamSweepAdaptive(context.Background(), cfgs, opts, emitFn)
	} else {
		emitFn := func(i int, rs sim.ReplicaSet, err error) {
			record(i, rs.MeanDelay, rs.DelayCI, rs.MeanN, 0, 0, rs.ReplicasUsed, err)
		}
		sim.StreamSweepAdaptive(context.Background(), b.Configs, opts, emitFn)
	}
	if *jsonOut {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printHeader renders the analytic summary shared by describe and run.
func printHeader(w io.Writer, b *workload.Bound) {
	an := b.Analysis
	fmt.Fprintf(w, "topology %s  router %s  pattern %s  arrivals %s\n",
		b.Net.Name(), routerName(b.Scenario.Router), b.Scenario.Pattern, b.Scenario.Arrivals)
	fmt.Fprintf(w, "analytic: lambda* = %.6f per node; bottleneck edge %d (%d->%d, rho/lambda = %.4f); mean hops %.3f\n",
		an.LambdaStar, an.Bottleneck,
		b.Net.EdgeFrom(an.Bottleneck), b.Net.EdgeTo(an.Bottleneck),
		an.UtilPerRate, an.MeanHops)
}

func routerName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

func fmtMD1(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}
