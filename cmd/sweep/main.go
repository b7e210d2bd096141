// Command sweep runs simulation parameter sweeps in parallel and emits CSV:
// one row per (topology, size, load) cell with measured delay, N, r, and
// the matching analytic bounds. It is the workhorse behind the larger
// EXPERIMENTS.md comparisons.
//
// Usage:
//
//	sweep -topology array -n 8 -rhos 0.2,0.5,0.8,0.9 -horizon 20000
//	sweep -topology torus -n 8 -rhos 0.5,0.8
//	sweep -topology cube -d 7 -p 0.5 -rhos 0.5,0.9
//	sweep -topology kd -n 5 -k 3 -rhos 0.5
//	sweep -topology array -n 256 -rhos 0.8 -engine slotted -horizon 2000
//	sweep -topology array -n 1024 -rhos 0.8 -engine slotted -shards 4
//
// -engine selects the simulator: des (the continuous-time event engine,
// default) or slotted (the synchronous §5.2 engine in internal/stepsim,
// built for large arrays; -horizon is then measured in slots and the
// r_per_n column is empty, as the slotted engine does not track remaining
// services).
//
// -shards controls the slotted engine's intra-run tile parallelism: an
// explicit N pins every run to N tiles, auto (the default) lets the sweep
// pool spend spare cores inside runs when there are fewer points×replicas
// than workers. Results are bit-identical at every shard count.
//
// -lookahead controls the slotted engine's barrier batching: each tile
// runs up to k consecutive slots between global barriers, with nodes near
// tile boundaries still synchronized every slot through per-neighbor
// gates. The engine clamps the depth to what the tile plan supports, and
// results are bit-identical at every depth — the knob trades barrier
// waits for ring-buffer footprint.
//
// -target-ci switches the sweep to adaptive replica stopping: each load
// point runs between -min-reps and -max-reps replicas and stops as soon
// as its 95% delay half-width is at or below the target, so easy
// (low-load) points stop early and the replica budget concentrates where
// the variance is. -warm-start chains engine snapshots up the load
// ladder — each point's replicas resume the previous point's steady
// state with only -rewarm of re-warm instead of the full horizon/4. Both
// are opt-in; without them every point runs exactly -replicas replicas.
//
// The fault flags (-link-mtbf/-link-mttr/-link-frac, the -node-*
// counterparts, -liars with -liar-mode/-liar-delay/-liar-prob, and
// -fault-seed) run the whole sweep on a degraded network (internal/fault):
// the selected links and nodes fail and recover as two-state Markov
// processes, seeded routers misbehave, and greedy routing recovers by
// detouring via the alternate dimension. Degraded sweeps append
// dropped, detour_hops and link_down_frac columns plus a `# faults:`
// header comment; without the flags the output stays byte-identical to
// previous releases. -warm-start is refused alongside faults (snapshots
// do not capture fault state).
//
// CSV output is self-describing: a leading `#` comment records the
// engine, sharding, pool shape, GOMAXPROCS and the
// variance-reduction knobs, and a trailing one the wall-clock at which
// each point's row streamed out. Slotted rows also carry the occupancy
// instrumentation that explains the engine's wall-clock per point:
// active_edges (mean nonempty queues per slot) and arrival_frac
// (fraction of source-slots with a nonzero batch); both are empty on des
// rows. The last two columns are the replication record: replicas_used
// (how many replicas the point consumed — constant on fixed sweeps,
// variable under -target-ci) and ci_halfwidth (the half-width of the
// estimator of record, duplicating T_ci explicitly for downstream
// tooling).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/buildinfo"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

type cell struct {
	rho      float64
	cfg      sim.Config
	lower    float64
	estimate float64
	upper    float64 // +Inf when no upper bound is known (torus)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo     = fs.String("topology", "array", "array | torus | cube | butterfly | kd")
		n        = fs.Int("n", 8, "side length (array/torus/kd)")
		k        = fs.Int("k", 3, "dimensions (kd)")
		d        = fs.Int("d", 7, "dimension/levels (cube/butterfly)")
		p        = fs.Float64("p", 0.5, "cube destination bit-flip probability")
		rhoList  = fs.String("rhos", "0.2,0.5,0.8,0.9", "comma-separated loads")
		engine   = fs.String("engine", "des", "des (event-driven) | slotted (synchronous; array-family topologies)")
		horizon  = fs.Float64("horizon", 20000, "measured time per run (slots when -engine=slotted)")
		replicas = fs.Int("replicas", 4, "replicas per cell")
		seed     = fs.Uint64("seed", 1, "base seed")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		shards   = fs.String("shards", "auto", "slotted intra-run tiles per run: N, or auto (spend spare cores; results are identical either way)")
		lookahd  = fs.Int("lookahead", 1, "slotted batched barriers: slots each tile runs between global barriers (clamped to what the tile plan supports; results are identical at every depth)")
		targetCI = fs.Float64("target-ci", 0, "adaptive replica stopping: stop each point once its 95% delay half-width is <= this (0 = fixed -replicas)")
		minReps  = fs.Int("min-reps", 4, "adaptive mode: minimum replicas per point")
		maxReps  = fs.Int("max-reps", 64, "adaptive mode: replica cap per point (points that hit it report their achieved half-width)")
		warm     = fs.Bool("warm-start", false, "chain engine snapshots up the load ladder: each point resumes the previous point's steady state with -rewarm of warmup instead of the full horizon/4")
		rewarm   = fs.Float64("rewarm", -1, "warm-started points' warmup (slots for -engine=slotted); -1 = horizon/16")

		// Fault layer (internal/fault): any of these switches the sweep to a
		// degraded network and appends dropped/detour_hops/link_down_frac
		// columns; all zero leaves the fault-free path bit-identical.
		linkMTBF  = fs.Float64("link-mtbf", 0, "fault layer: mean up time per failure-prone link (0 = no link failures)")
		linkMTTR  = fs.Float64("link-mttr", 0, "fault layer: mean link repair time")
		linkFrac  = fs.Float64("link-frac", 0, "fault layer: fraction of links failure-prone (0 = all when -link-mtbf is set)")
		nodeMTBF  = fs.Float64("node-mtbf", 0, "fault layer: mean up time per failure-prone node (0 = no node failures)")
		nodeMTTR  = fs.Float64("node-mttr", 0, "fault layer: mean node repair time")
		nodeFrac  = fs.Float64("node-frac", 0, "fault layer: fraction of nodes failure-prone (0 = all when -node-mtbf is set)")
		liars     = fs.Int("liars", 0, "fault layer: misbehaving routers to seed (hash-selected)")
		liarMode  = fs.String("liar-mode", "delay", "misbehaving routers: delay | misroute | drop")
		liarDelay = fs.Int("liar-delay", 4, "delay liars: extra slots of service per forwarded packet")
		liarProb  = fs.Float64("liar-prob", 0.1, "misroute/drop liars: per-packet misbehavior probability")
		faultSeed = fs.Uint64("fault-seed", 1, "fault layer: seed for entity selection and dwell streams")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *minReps < 1 || *maxReps < *minReps {
		fmt.Fprintf(stderr, "sweep: need 1 <= -min-reps <= -max-reps, got %d and %d\n", *minReps, *maxReps)
		return 2
	}
	if *rewarm < 0 {
		*rewarm = *horizon / 16
	}
	// Resolve -shards: auto (0) lets the sweep pool spend spare cores
	// inside runs; an explicit N pins every run to N tiles. Bit-identical
	// results at every value make this a pure wall-clock knob.
	shardCount := 0
	if *shards != "auto" {
		v, err := strconv.Atoi(*shards)
		if err != nil || v < 0 {
			fmt.Fprintf(stderr, "sweep: bad -shards %q (want a count or auto)\n", *shards)
			return 2
		}
		shardCount = v
	}
	if shardCount > 1 && *engine != "slotted" {
		fmt.Fprintf(stderr, "sweep: -shards applies to -engine=slotted only (the event engine has no intra-run parallelism)\n")
		return 2
	}
	if *lookahd < 0 {
		fmt.Fprintf(stderr, "sweep: bad -lookahead %d (want a non-negative batch depth)\n", *lookahd)
		return 2
	}
	if *lookahd > 1 && *engine != "slotted" {
		fmt.Fprintf(stderr, "sweep: -lookahead applies to -engine=slotted only (the event engine has no slot barriers to batch)\n")
		return 2
	}

	fspec := &fault.Spec{
		LinkMTBF: *linkMTBF, LinkMTTR: *linkMTTR, LinkFraction: *linkFrac,
		NodeMTBF: *nodeMTBF, NodeMTTR: *nodeMTTR, NodeFraction: *nodeFrac,
		Seed: *faultSeed,
	}
	if *liars > 0 {
		m := fault.Misbehave{Mode: *liarMode, Count: *liars}
		if *liarMode == fault.ModeDelay {
			m.ExtraDelay = *liarDelay
		} else {
			m.Prob = *liarProb
		}
		fspec.Misbehave = []fault.Misbehave{m}
	}
	faultsOn := fspec.Enabled()
	if faultsOn {
		if err := fspec.Validate(); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 2
		}
		if *warm {
			fmt.Fprintf(stderr, "sweep: -warm-start chains engine snapshots, which the fault layer does not capture; run degraded sweeps without it\n")
			return 2
		}
	}

	var rhos []float64
	for _, s := range strings.Split(*rhoList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 || v >= 1 {
			fmt.Fprintf(stderr, "sweep: bad load %q\n", s)
			return 2
		}
		rhos = append(rhos, v)
	}

	cells := make([]cell, 0, len(rhos))
	for _, rho := range rhos {
		c := cell{rho: rho}
		c.cfg.Warmup = *horizon / 4
		c.cfg.Horizon = *horizon
		c.cfg.Seed = *seed
		switch *topo {
		case "array":
			a := topology.NewArray2D(*n)
			c.cfg.Net, c.cfg.Router = a, routing.GreedyXY{A: a}
			c.cfg.Dest = routing.UniformDest{NumNodes: a.NumNodes()}
			c.cfg.NodeRate = bounds.LambdaForLoad(*n, rho)
			c.lower = bounds.BestLowerBound(*n, c.cfg.NodeRate)
			c.estimate = bounds.MD1ApproxT(*n, c.cfg.NodeRate)
			c.upper = bounds.UpperBoundT(*n, c.cfg.NodeRate)
		case "torus":
			tor := topology.NewTorus2D(*n)
			c.cfg.Net, c.cfg.Router = tor, routing.TorusGreedy{T: tor}
			c.cfg.Dest = routing.UniformDest{NumNodes: tor.NumNodes()}
			c.cfg.NodeRate = rho / bounds.TorusPlusRate(*n, 1)
			c.lower = bounds.TorusThm10LowerBound(*n, c.cfg.NodeRate)
			c.estimate = bounds.TorusMD1ApproxT(*n, c.cfg.NodeRate)
			c.upper = math.Inf(1)
		case "cube":
			h := topology.NewHypercube(*d)
			c.cfg.Net, c.cfg.Router = h, routing.CubeGreedy{H: h}
			c.cfg.Dest = routing.BernoulliCubeDest{H: h, P: *p}
			c.cfg.NodeRate = rho / *p
			c.lower = bounds.CubeThm12LowerBound(*d, *p, c.cfg.NodeRate)
			c.estimate = bounds.CubeMD1ApproxT(*d, *p, c.cfg.NodeRate)
			c.upper = bounds.CubeUpperBoundT(*d, *p, c.cfg.NodeRate)
		case "butterfly":
			b := topology.NewButterfly(*d)
			c.cfg.Net, c.cfg.Router = b, routing.ButterflyRoute{B: b}
			c.cfg.Dest = routing.ButterflyUniformDest{B: b}
			c.cfg.NodeRate = 2 * rho
			c.lower = bounds.ButterflyThm10LowerBound(*d, c.cfg.NodeRate)
			c.estimate = bounds.ButterflyMD1ApproxT(*d, c.cfg.NodeRate)
			c.upper = bounds.ButterflyUpperBoundT(*d, c.cfg.NodeRate)
		case "kd":
			sizes := make([]int, *k)
			for i := range sizes {
				sizes[i] = *n
			}
			a := topology.NewArrayKD(sizes...)
			c.cfg.Net, c.cfg.Router = a, routing.GreedyKD{A: a}
			c.cfg.Dest = routing.UniformDest{NumNodes: a.NumNodes()}
			c.cfg.NodeRate = bounds.LambdaForLoad(*n, rho)
			c.lower = bounds.KDThm12LowerBound(*k, *n, c.cfg.NodeRate)
			c.estimate = bounds.KDMD1ApproxT(*k, *n, c.cfg.NodeRate)
			c.upper = bounds.KDUpperBoundT(*k, *n, c.cfg.NodeRate)
		default:
			fmt.Fprintf(stderr, "sweep: unknown topology %q\n", *topo)
			return 2
		}
		cells = append(cells, c)
	}

	if *engine != "des" && *engine != "slotted" {
		fmt.Fprintf(stderr, "sweep: unknown engine %q (want des or slotted)\n", *engine)
		return 2
	}

	// One plan for every cell: all cells share the topology, so binding
	// against the first net fixes the same degraded entities everywhere
	// (common random numbers across the load ladder).
	if faultsOn {
		plan, err := fspec.Bind(cells[0].cfg.Net)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 2
		}
		for i := range cells {
			cells[i].cfg.Faults = plan
		}
	}

	// One shared worker pool over every (load, replica) pair: the pool
	// saturates the machine even for short load lists, and rows stream out
	// in input order as soon as each cell's replicas finish.
	//
	// The leading `#` comments make recorded sweeps self-describing —
	// engine, sharding, pool shape and Go scheduler width — and the
	// trailing one records wall-clock per point (cumulative elapsed when
	// that row streamed out, i.e. when the point and all earlier ones had
	// finished) so perf regressions are visible in the CSV itself.
	fmt.Fprintf(stdout, "# sweep: engine=%s topology=%s shards=%s lookahead=%d workers=%d gomaxprocs=%d replicas=%d horizon=%g seed=%d target_ci=%g min_reps=%d max_reps=%d warm_start=%v rewarm=%g version=%s\n",
		*engine, *topo, *shards, *lookahd, *workers, runtime.GOMAXPROCS(0), *replicas, *horizon, *seed,
		*targetCI, *minReps, *maxReps, *warm, *rewarm, buildinfo.Version())
	if faultsOn {
		fmt.Fprintf(stdout, "# faults: link_mtbf=%g link_mttr=%g link_frac=%g node_mtbf=%g node_mttr=%g node_frac=%g liars=%d liar_mode=%s liar_delay=%d liar_prob=%g fault_seed=%d\n",
			*linkMTBF, *linkMTTR, *linkFrac, *nodeMTBF, *nodeMTTR, *nodeFrac, *liars, *liarMode, *liarDelay, *liarProb, *faultSeed)
	}
	hdr := "topology,rho,lambda,T_sim,T_ci,N_sim,r_per_n,lower,estimate,upper,active_edges,arrival_frac,replicas_used,ci_halfwidth"
	if faultsOn {
		// The degraded columns exist only on degraded sweeps, so fault-free
		// invocations keep the historical 14-column shape byte-for-byte.
		hdr += ",dropped,detour_hops,link_down_frac"
	}
	fmt.Fprintln(stdout, hdr)
	// One replication policy for both engines; without -target-ci it is
	// the fixed -replicas count (the slotted engine truncates -rewarm to
	// whole slots).
	opts := sweep.Opts{
		Replicas: *replicas, Workers: *workers,
		TargetCI: *targetCI, MinReps: *minReps, MaxReps: *maxReps,
		WarmStart: *warm, Rewarm: *rewarm,
	}
	failed := 0
	start := time.Now()
	var wall []string
	clock := func(rho float64) {
		wall = append(wall, fmt.Sprintf("rho=%.4f t+%.3fs", rho, time.Since(start).Seconds()))
	}
	switch *engine {
	case "des":
		cfgs := make([]sim.Config, len(cells))
		for i, c := range cells {
			cfgs[i] = c.cfg
		}
		emit := func(i int, r sim.ReplicaSet, err error) {
			c := cells[i]
			if err != nil {
				fmt.Fprintf(stderr, "sweep: rho=%v: %v\n", c.rho, err)
				failed++
				return
			}
			clock(c.rho)
			faultCols := ""
			if faultsOn {
				faultCols = fmt.Sprintf(",%d,%d,%.6f", r.Dropped, r.DetourHops, r.LinkDownFrac)
			}
			fmt.Fprintf(stdout, "%s,%.4f,%.6f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s,,,%d,%.4f%s\n",
				*topo, c.rho, c.cfg.NodeRate,
				r.MeanDelay, r.DelayCI, r.MeanN, r.RPerN,
				c.lower, c.estimate, upperStr(c.upper),
				r.ReplicasUsed, r.DelayCI, faultCols)
		}
		sim.StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
	case "slotted":
		cfgs := make([]stepsim.Config, len(cells))
		for i, c := range cells {
			cfgs[i] = stepsim.Config{
				Net:         c.cfg.Net,
				Router:      c.cfg.Router,
				Dest:        c.cfg.Dest,
				NodeRate:    c.cfg.NodeRate,
				WarmupSlots: int(c.cfg.Warmup),
				Slots:       int(c.cfg.Horizon),
				Seed:        c.cfg.Seed,
				Shards:      shardCount,
				Lookahead:   *lookahd,
				Faults:      c.cfg.Faults,
			}
		}
		emit := func(i int, r stepsim.ReplicaSet, err error) {
			c := cells[i]
			if err != nil {
				fmt.Fprintf(stderr, "sweep: rho=%v: %v\n", c.rho, err)
				failed++
				return
			}
			clock(c.rho)
			faultCols := ""
			if faultsOn {
				faultCols = fmt.Sprintf(",%d,%d,%.6f", r.Dropped, r.DetourHops, r.LinkDownFrac)
			}
			fmt.Fprintf(stdout, "%s,%.4f,%.6f,%.4f,%.4f,%.4f,,%.4f,%.4f,%s,%.2f,%.6f,%d,%.4f%s\n",
				*topo, c.rho, c.cfg.NodeRate,
				r.MeanDelay, r.DelayCI, r.MeanN,
				c.lower, c.estimate, upperStr(c.upper),
				r.MeanActiveEdges, r.ArrivalSlotFraction,
				r.ReplicasUsed, r.DelayCI, faultCols)
		}
		stepsim.StreamSweepAdaptive(context.Background(), cfgs, opts, emit)
	}
	fmt.Fprintf(stdout, "# wall: %s | total %.3fs\n", strings.Join(wall, " "), time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

func upperStr(v float64) string {
	if math.IsInf(v, 1) {
		return "none"
	}
	return fmt.Sprintf("%.4f", v)
}
