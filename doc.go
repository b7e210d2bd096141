// Package greedyroute is a reproduction of Michael Mitzenmacher's "Bounds
// on the Greedy Routing Algorithm for Array Networks" (SPAA 1994; JCSS 53,
// 1996) as a Go library.
//
// The paper studies dynamic greedy routing on an n×n mesh: every node
// generates packets as a Poisson process with rate λ, each packet is routed
// first along its row to the correct column and then along that column to a
// uniformly random destination, and each directed edge is a FIFO queue with
// unit service time. The library provides:
//
//   - the analytic bound ladder for the mean packet delay T — Theorem 7's
//     product-form upper bound, the §4.2 M/D/1 independence approximation,
//     and the lower bounds of Theorems 8, 10, 12 and 14 (see BoundSet);
//   - a deterministic discrete-event simulator of the full model with FIFO
//     and Processor-Sharing disciplines, deterministic and exponential
//     service, parallel replication, and the paper's measurement plane
//     (delay, E[N], E[R], E[R_s], per-edge rates);
//   - the paper's extensions: optimally configured transmission rates
//     (Theorem 15), non-uniform destination distributions, k-dimensional
//     arrays, slotted time, tori, hypercubes and butterflies;
//   - a workload layer (internal/workload, cmd/scenario): named traffic
//     patterns, bursty arrival processes, and declarative scenario specs
//     that pair every simulation sweep with its exact analytic traffic
//     view;
//   - regeneration harnesses for every table and figure in the paper
//     (internal/experiments, cmd/tables, and the root benchmarks).
//
// # Quick start
//
//	m := greedyroute.NewArrayModelAtLoad(8, 0.9)
//	fmt.Printf("upper bound: %.3f\n", m.Bounds().Upper)
//	rs, err := m.Simulate(greedyroute.SimParams{Horizon: 20000, Replicas: 4})
//	if err != nil { ... }
//	fmt.Printf("simulated:   %.3f ± %.3f\n", rs.MeanDelay, rs.DelayCI)
//
// # Performance architecture
//
// Every number the paper reports comes from long discrete-event runs, so
// the simulator's steady state is engineered to be allocation-free and
// cache-friendly (measured results in BENCH.md):
//
//   - Implicit routing (internal/routing.Stepper): greedy routes on arrays
//     are fully determined by the (current node, destination) pair, so
//     every deterministic router hands the engine one edge at a time and
//     packets never carry a materialized route slice. The randomized
//     §6 router resolves its coin at generation time into a 1-bit stepper
//     choice. Router.AppendRoute remains the reference implementation and
//     cross-check oracle. Every hop walker — both engines and the exact
//     traffic analysis — steps through one routing.Table, which on 2-D
//     arrays replaces the per-hop interface call and divisions with
//     closed-form edge-id arithmetic on packed coordinates.
//   - Packet arena (internal/sim): in-flight packets are 24-byte structs
//     in one contiguous slice, addressed by generation-checked int32
//     handles; queues hold handles, not pointers.
//   - Tournament event tree (internal/des.EventTree): every scheduling
//     entity (edge server, source clock) has at most one pending event, so
//     the event queue is a winner tree of 16-byte packed records — the
//     next event is a root read, rescheduling is one branch-free
//     leaf-to-root replay, and the merged arrival clock lives in two
//     scalars outside the tree.
//   - Deterministic worker pool (internal/sweep, behind
//     sim.StreamSweep): sweeps parallelize across (point, replica) tasks
//     with per-task seeds
//     derived only from the point seed and replica index, streaming cells
//     back in input order, so results never depend on worker count.
//   - Sweep-scoped engine reuse (internal/sim.Runner): each pool worker
//     keeps one Runner whose event tree, stations, ring slab, packet arena
//     and per-edge tables are reset — not reallocated — between runs, so
//     the ~34-allocation per-run setup amortizes to ~5 across a sweep.
//     Reuse is semantically invisible: every reused structure resets to a
//     fresh-identical state and Runner.Run is bit-identical to Run for any
//     config sequence (TestRunnerMatchesRun).
//
// All of it preserves the exact (Time, Seq) event order and RNG call
// sequence of the original engine: seeded runs are bit-identical, which
// the golden-value and cross-check tests in internal/sim enforce.
//
// # Two engines
//
// The library ships two independent simulators of the same model, and
// which one to reach for depends on the question:
//
//   - internal/sim is the continuous-time discrete-event engine: Poisson
//     arrivals in continuous time, FIFO/PS/FurthestFirst disciplines,
//     deterministic or exponential service, and the full measurement plane
//     (E[R], E[R_s], occupancy, N-distributions). It also simulates §5.2's
//     slotted model via Config.SlotTau.
//   - internal/stepsim is the synchronous slotted engine, a
//     structure-of-arrays cycle machine for the paper's own slotted model
//     (unit slots, per-slot Poisson batches, one service per edge per
//     slot). Packets are single 64-bit ring entries whose position is
//     implicit in the queue they occupy; greedy array routing reduces to
//     closed-form edge-id arithmetic. It measures delay, E[N] and queue
//     occupancy (Result.MeanActiveEdges, ArrivalSlotFraction), and
//     reaches 256×256 and beyond in seconds — the regime where the
//     paper's asymptotic bounds actually bite. stepsim.Engine is reusable
//     across runs (the slotted mirror of sim.Runner).
//
// Both engines sweep through one driver, internal/sweep: the same
// replication policy, worker pool, replica seeding, estimator, stopping
// rule and warm-start chain. Each engine contributes only a small adapter
// (run one replica, read its delay, aggregate a replica set), so
// sim.StreamSweep and stepsim.StreamSweep differ in nothing but the engine
// they run, one reused Runner or Engine per pool worker.
//
// # Sparse slotted execution
//
// Below saturation most sources generate nothing in a given slot and most
// edge queues are empty, so the slotted engine's one execution body is
// sparse: per-slot cost proportional to traffic, not to topology size.
// Skip-ahead arrivals replace the per-source-per-slot Poisson draw with
// one geometric gap draw per nonzero batch (xrand.PoissonSkip +
// PoissonPositive on a per-tile timing wheel), and active-edge worklists
// (a two-level bitmap per tile) let the service phase visit only nonempty
// queues, in the ascending-edge order the determinism contract requires.
// Both run on per-node keyed RNG streams, so runs are bit-identical at
// every shard count. The dense per-slot body it replaced was never faster
// (1.05–1.2× slower even at ρ = 0.9) and has been removed. Measured effect
// and the load-dependence of the win (by Little's law, busy-edge density
// ≈ (2/3)·ρ independent of array size, so the speedup is largest at
// genuinely sparse loads): BENCH.md's "Sparse engine" section.
//
// The two engines share no simulation code, which is the point: their
// statistical agreement (the `xval` experiment, now up to 128×128) is
// strong evidence that neither misimplements the model. Both are
// deterministic — stepsim runs are additionally checked statistically
// against the pre-rewrite pointer implementation, which survives as the
// test-only oracle in internal/stepsim/oracle_test.go — and both are
// exposed through the workload layer (`cmd/scenario run -engine=slotted`,
// `cmd/sweep -engine=slotted`, workload.Bound.SlottedConfigs).
//
// # Sharded execution
//
// A single slotted run can additionally be sharded across cores
// (stepsim.Config.Shards; -shards on cmd/sweep and
// cmd/scenario): topology.Partition splits the node-id space into
// contiguous tiles — row bands on 2-D arrays and tori, index ranges on
// k-d arrays, cubes and butterflies — and each tile's goroutine owns the
// ring queues of the edges leaving its nodes, the RNG streams of its
// sources, and its measurement accumulators. Each slot runs the same
// three phases as the serial loop with exactly one synchronization: after
// tile-local arrivals and service, a synchronization point, then
// placement, in which each tile merges its own survivors with the
// boundary-crossing packets other tiles handed it through per-(tile,tile)
// ring-buffered lists (no locks anywhere on the hot path).
//
// The load-bearing property is that the shard count cannot change
// results, which is what makes it a safe runtime knob (the sweep pools
// auto-shard when points×replicas < GOMAXPROCS — sweep.SpareFactor — so
// cores never idle at the tail of a sweep). Three invariants deliver
// bit-identical Results at every shard count, each pinned by tests:
// per-node keyed RNG streams (xrand.ReseedSplit(Seed, nodeID), so a
// node's variates are independent of which tile simulates it), canonical
// placement order (per slot, each queue receives arrivals from its own
// source followed by moved packets in ascending served-edge order — the
// handoff merge reconstructs exactly what a serial edge scan produces),
// and exact integer accumulation (delays are whole slots, so per-tile
// (count, Σd, Σd², min, max) merge associatively; stats.WelfordFromInts
// converts once, exactly, at collect time).
//
// Synchronization itself is batched (Config.Lookahead; -lookahead on the
// tools): a packet entering a tile from outside needs at least one slot
// per row to reach any node d rows inside, so only the boundary band —
// nodes within the batch depth of a tile edge, classified once by
// topology.BoundaryDistance — must see its neighbors' packets every
// slot. The interior is safe to speculate. Each tile therefore publishes
// its per-slot handoffs through a small per-tile gate that only the
// tiles it actually feeds wait on, runs up to k consecutive slots, and
// pays the full sense-reversing barrier once per batch; handoff rings
// are 2k deep so a writer never laps an unread slot. The depth is
// clamped to what the tile plan supports (deep tiles allow k=8 and
// beyond; a 2-row tile degenerates to the per-slot schedule) and, like
// the shard count, cannot change results: every depth is
// Float64bits-identical to serial, pinned by the same invariance
// batteries, so lookahead is excluded from sweepd cache keys alongside
// shards. Result.BarrierWaits counts the global barriers a run actually
// paid — shards·⌈slots/k⌉ exactly — and BENCH.md's "Batched barriers"
// tables record the wall-clock return.
//
// # Workload architecture
//
// Traffic is a first-class object (internal/workload). A Pattern binds to
// a topology as a Demand — simultaneously a routing.DestSampler for the
// simulator and an exact distribution P[dst|src] for analytics. Eight
// built-ins cover the classic interconnect patterns: uniform, hot-spot,
// transpose, bit reversal, bit complement, tornado, nearest-neighbor and
// Zipf-over-distance. The demand-matrix → queueing.Traffic bridge solves
// the traffic equations λ = a + λP for exact per-edge rates, the
// bottleneck edge, and the saturation rate λ*, letting declarative
// Scenario specs express load points as fractions of λ* across any
// pattern. sim.ArrivalProcess generalizes the merged Poisson clock to
// MMPP/on-off bursty sources and deterministic periodic injection without
// touching the allocation-free event loop (the process shares the
// out-of-tree merged-clock scalars; the Poisson default path is
// untouched and stays golden-pinned). Simulation runs whose demand is
// exactly known are validated for stability up front: a pattern-implied
// edge utilization at or above 1 is rejected with the saturating edge
// named, instead of silently producing horizon-dependent garbage.
//
// # Variance reduction and adaptive precision
//
// The sweep driver (internal/sweep) treats replica count as a spend
// (sweep.Opts, aliased as sim.SweepOpts and stepsim.SweepOpts; all
// opt-in — a fixed replica count is the one-rung ladder of the same
// pool). Replica r of every sweep point runs the stream
// Split(seed, r) — common random numbers — so ladder contrasts can be
// estimated as paired differences (stats.PairedDiff, measured ~1.6×
// tighter). SweepOpts.TargetCI switches a sweep to sequential stopping:
// each point runs a deterministic batch ladder (MinReps, ×1.5 growth,
// capped at MaxReps) and stops at the first batch boundary where the 95%
// half-width of the plain mean delay meets the target; stopping is
// evaluated only on complete replica prefixes, so replicas used is a
// pure function of the results, independent of worker scheduling
// (sweep.StreamCellsAdaptive). WarmStart chains engine snapshots along the
// load ladder: both engines capture their complete state into versioned,
// CRC-checked byte strings (EVTSNAP1 / SLOTSNP1) whose resumption is
// bit-exact, and each replica resumes the previous point's steady state
// with a short re-warm instead of the full warmup. Measured on the
// full-length 64×64 hotspot ladder at equal precision: 3.4× end-to-end
// vs the uniform-budget baseline from stopping alone (BENCH.md,
// "Variance reduction"; examples/adaptivesweep reproduces it). Count
// control variates were measured there too, widened the interval at most
// loads, and have been removed.
//
// # Serving sweeps
//
// cmd/sweepd wraps the whole stack in a long-running HTTP service
// (internal/serve): POST a declarative scenario spec to /v1/sweeps and
// it is validated (the same analytic stability checks as Bind), queued
// on a bounded priority queue with explicit backpressure (429 +
// Retry-After when full), and executed through the shared sweep driver
// (internal/sweep; one executor body serves both engines); GET /v1/sweeps/{id}/events streams every ladder point
// exactly once over SSE (replay-then-live, so late subscribers see the
// full history); DELETE stops the engine pools mid-run through the
// context plumbing both engines thread (Config.Ctx) — a canceled run
// returns no partial measurements and leaks no goroutines. Completed
// result documents land in a content-addressed cache keyed by the
// SHA-256 of (canonical scenario JSON, engine, code version) — the
// engines are bit-deterministic per build, so a resubmitted spec is
// answered instantly with the byte-identical document and "cached": true
// provenance (workload.Scenario.Canonical defines the semantic normal
// form; internal/buildinfo the code identity). cmd/sweepctl is the
// matching client; make sweepd-smoke drives the contract end to end.
//
// See the examples directory for runnable programs and DESIGN.md for the
// full system inventory.
package greedyroute
