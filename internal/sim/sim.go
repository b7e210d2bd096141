// Package sim is the discrete-event simulator for the paper's dynamic
// routing model: packets are generated at network nodes by Poisson
// processes, routed along greedy routes, and queue at each directed edge,
// which serves them FIFO (or Processor-Sharing) with deterministic or
// exponential service times.
//
// The simulator measures exactly the quantities the paper reports:
//
//   - T, the mean packet delay (Table I), with batch-means confidence
//     intervals;
//   - E[N], the time-averaged number of packets in the system;
//   - E[R], the time-averaged total remaining services over all packets in
//     the system, giving Table II's r = E[R]/E[N];
//   - E[R_s], the remaining services at saturated queues only, giving
//     Table III's r_s = E[R_s]/E[N];
//   - per-edge arrival rates, validating Theorem 6.
//
// A single run is strictly sequential and deterministic given its seed;
// parallelism comes from independent replicas and sweep points scheduled on
// the shared sweep driver, internal/sweep (replicas.go adapts this engine
// to it).
//
// # Steady-state performance
//
// The event loop is allocation-free at steady state and organized around
// three structures (see BENCH.md for measurements):
//
//   - routing.Stepper: deterministic routers hand out one edge at a time
//     from the (current, destination) pair, so packets never materialize a
//     route slice (generate falls back to Router.AppendRoute only for
//     routers that do not implement Stepper, or when
//     Config.MaterializeRoutes forces the cross-check path);
//   - a packet arena: packets are 24-byte structs in one contiguous slice,
//     addressed by generation-checked int32 handles (arena.go);
//   - des.EventTree: a tournament tree of 16-byte packed event records
//     (payload packs the event kind and edge/source id into 24 bits) with
//     one slot per edge server and source clock — the next event is a root
//     read and (re)scheduling is one branch-free leaf-to-root replay. The
//     merged arrival clock stays outside the tree entirely, in two scalars
//     ordered against the root via a reserved sequence word.
//
// Loop invariants (total arrival rate, per-edge service means and rates,
// the EdgeTo table) are hoisted out of the loop at Run setup. All of this
// preserves the exact (Time, Seq) event order and RNG call sequence of the
// original materialized-route engine, so seeded results are bit-identical
// across both paths (asserted by TestGoldenDeterminism and
// TestStepperEngineMatchesMaterialized).
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// pollEvery is the event-loop cancellation poll period (a power of two so
// the check compiles to a mask). At ~100ns/event a canceled run stops
// within a few hundred microseconds while the poll itself stays invisible
// in profiles.
const pollEvery = 4096

// Discipline selects the queueing discipline at every edge.
type Discipline int

// Disciplines. FIFO is the paper's standard model; PS is the comparison
// network of Theorem 5, whose equilibrium matches the Jackson model;
// FurthestFirst is Leighton's service order (packets with the furthest
// still to travel served first, non-preemptively), which the paper's
// introduction contrasts with FIFO.
const (
	FIFO Discipline = iota
	PS
	FurthestFirst
)

// ServiceModel selects the service-time distribution at every edge.
type ServiceModel int

// Service models. Deterministic unit service is the standard model;
// Exponential turns the network into the Jackson model of §3.3.
const (
	Deterministic ServiceModel = iota
	Exponential
)

// Config describes one simulation run. Net, Router, Dest and NodeRate are
// required; zero values elsewhere mean defaults.
type Config struct {
	// Net is the network topology.
	Net topology.Network
	// Router generates packet routes. Routers implementing routing.Stepper
	// (all deterministic routers in internal/routing) are walked
	// incrementally; others go through AppendRoute.
	Router routing.Router
	// Dest samples packet destinations.
	Dest routing.DestSampler
	// NodeRate is λ, the Poisson packet-generation rate per source node.
	NodeRate float64
	// Warmup is the simulated time discarded before measurement starts.
	Warmup float64
	// Horizon is the measured simulated time after warmup.
	Horizon float64
	// Seed drives all randomness in the run.
	Seed uint64
	// Discipline selects FIFO (default) or PS servers.
	Discipline Discipline
	// Service selects Deterministic (default) or Exponential service.
	Service ServiceModel
	// ServiceTime optionally gives each edge's mean service time (1/φ_e);
	// nil means unit service everywhere.
	ServiceTime []float64
	// Saturated optionally marks saturated edges to enable R_s tracking.
	Saturated []bool
	// BatchCount sets the number of batches for the delay confidence
	// interval; 0 means 16.
	BatchCount int
	// PerNodeArrivals switches from the merged Poisson source (one
	// exponential clock at rate λ·#sources) to one independent clock per
	// source node. The two are statistically identical; the merged form is
	// the default because it keeps the event heap small.
	PerNodeArrivals bool
	// Arrivals optionally replaces the merged Poisson clock with a custom
	// merged arrival process (bursty MMPP/on-off sources, deterministic
	// periodic injection; see internal/workload). The factory is invoked
	// once per run so parallel replicas never share mutable process state.
	// When set, NodeRate must be zero (the process's Rate() defines the
	// offered load) and each arrival picks a uniform source node, exactly
	// like the merged Poisson stream. Mutually exclusive with SlotTau and
	// PerNodeArrivals.
	Arrivals func() ArrivalProcess
	// AllowUnstable skips the pattern-implied stability check performed
	// when Dest exposes its exact distribution (see DemandDist); set it
	// for experiments that deliberately saturate edges.
	AllowUnstable bool
	// SlotTau, if positive, switches to §5.2's slotted-time model: at each
	// multiple of SlotTau every source receives a Poisson(λ·SlotTau) batch.
	SlotTau float64
	// TrackEdgeOccupancy enables per-edge time-averaged queue lengths
	// (Result.EdgeOccupancy), used to verify §4.4's observation that the
	// middle queues grow largest.
	TrackEdgeOccupancy bool
	// TrackNDist enables the exact time-weighted distribution of the
	// number-in-system process N(t) (Result.NDist), used to check the
	// stochastic dominance of Theorems 1 and 5 at the distribution level
	// rather than just in expectation.
	TrackNDist bool
	// DelayHistWidth, if positive, enables a delay histogram with the given
	// bucket width (Result.DelayHist), for tail quantiles.
	DelayHistWidth float64
	// MaterializeRoutes forces the AppendRoute path even when the router
	// implements routing.Stepper. The two paths consume identical RNG
	// sequences and produce bit-identical results; this switch exists so
	// tests can cross-check them.
	MaterializeRoutes bool
	// Resume, if non-nil, starts the run from a captured steady-state
	// checkpoint instead of an empty network, continuing the captured
	// run's absolute clock: measurement covers [Snapshot.Time+Warmup,
	// Snapshot.Time+Warmup+Horizon], so Warmup becomes the RE-warm budget
	// on top of the inherited state. Seed is ignored — the restored
	// stream continues where it left off. Same-rate resume is bit-exact
	// (restore-and-continue equals an uninterrupted longer run); a
	// NodeRate change warm-starts the next point of a ρ-ladder and is
	// statistically exact on the merged and slotted arrival models (see
	// snapshot.go). Only the FIFO + stepper-routing path supports
	// checkpoints.
	Resume *Snapshot
	// Capture asks the run to export its end-of-run state as
	// Result.Snapshot, for a later Resume. Same path restrictions as
	// Resume.
	Capture bool
	// Ctx, when non-nil, lets a long run be aborted mid-flight: the event
	// loop polls it every few thousand events and Run returns the context's
	// cause as its error. Cancellation is control flow only — it never
	// perturbs the variate stream, so an uncanceled run with a Ctx is
	// bit-identical to one without. Sweep pools thread their own context
	// into every config that leaves Ctx nil (sim.StreamSweep), which is how
	// a canceled sweep stops its in-flight simulations instead of waiting
	// them out.
	Ctx context.Context
	// Faults, when non-nil, degrades the run with the plan's link/node
	// failure processes, scheduled outages and misbehaving routers
	// (internal/fault), and switches routing to greedy-with-recovery:
	// packets detour around down greedy next hops and are dropped —
	// counted in Result, never silently lost — at dead ends. Only the
	// FIFO + stepper-routing fast path supports faults (no PS or
	// FurthestFirst, no MaterializeRoutes, no Resume/Capture). MeanR and
	// MeanRs are tracked per packet on fault runs: detours and misroutes
	// re-evaluate the remaining greedy continuation (see fault.go). The
	// fault-free path is bit-identical with or without this field
	// compiled in; a nil Faults changes nothing.
	Faults *fault.Plan
}

// maxEventID is the largest edge or source index the packed 24-bit event
// payload can carry (3 bits of kind, 21 bits of id); deriving it from the
// packing mask keeps the validation limit and evPack from ever diverging.
const maxEventID = evIDMask

func (c *Config) validate() error {
	switch {
	case c.Net == nil || c.Router == nil || c.Dest == nil:
		return fmt.Errorf("sim: Net, Router and Dest are required")
	case c.NodeRate < 0:
		return fmt.Errorf("sim: negative NodeRate")
	case c.Horizon <= 0:
		return fmt.Errorf("sim: Horizon must be positive")
	case c.Warmup < 0 || c.SlotTau < 0:
		return fmt.Errorf("sim: negative Warmup or SlotTau")
	case c.ServiceTime != nil && len(c.ServiceTime) != c.Net.NumEdges():
		return fmt.Errorf("sim: ServiceTime has %d entries, want %d", len(c.ServiceTime), c.Net.NumEdges())
	case c.Saturated != nil && len(c.Saturated) != c.Net.NumEdges():
		return fmt.Errorf("sim: Saturated has %d entries, want %d", len(c.Saturated), c.Net.NumEdges())
	case c.SlotTau > 0 && c.PerNodeArrivals:
		return fmt.Errorf("sim: SlotTau and PerNodeArrivals are mutually exclusive arrival models")
	case c.Arrivals != nil && (c.SlotTau > 0 || c.PerNodeArrivals):
		return fmt.Errorf("sim: Arrivals is mutually exclusive with SlotTau and PerNodeArrivals")
	case c.Arrivals != nil && c.NodeRate != 0:
		return fmt.Errorf("sim: NodeRate must be zero when Arrivals is set (the process's Rate() defines the load)")
	case c.Net.NumEdges() > maxEventID+1 || c.Net.NumNodes() > maxEventID+1:
		return fmt.Errorf("sim: %s exceeds the %d edge/node event-encoding limit", c.Net.Name(), maxEventID+1)
	case c.Faults != nil && c.Discipline != FIFO:
		return fmt.Errorf("sim: fault layer supports only the FIFO discipline")
	case c.Faults != nil && c.MaterializeRoutes:
		return fmt.Errorf("sim: fault layer requires stepper routing; MaterializeRoutes cannot combine with Faults")
	case c.Faults != nil && (c.Resume != nil || c.Capture):
		return fmt.Errorf("sim: fault processes are not snapshottable; Faults cannot combine with Resume or Capture")
	case c.Faults != nil && (c.Faults.NumNodes != c.Net.NumNodes() || c.Faults.NumEdges != c.Net.NumEdges()):
		return fmt.Errorf("sim: fault plan bound to a %d-node/%d-edge network; config's %s has %d/%d",
			c.Faults.NumNodes, c.Faults.NumEdges, c.Net.Name(), c.Net.NumNodes(), c.Net.NumEdges())
	}
	return nil
}

// Result holds the measurements of one run.
type Result struct {
	// MeanDelay is T̂: the mean time in system over measured packets
	// (including zero-hop packets, as in the paper's model).
	MeanDelay float64
	// DelayCI is the 95% batch-means half-width for MeanDelay.
	DelayCI float64
	// Delay holds the full per-packet delay statistics.
	Delay stats.Welford
	// MeanN is the time-averaged number of packets in the system.
	MeanN float64
	// MeanR is the time-averaged total remaining services E[R].
	MeanR float64
	// MeanRs is the time-averaged remaining saturated services E[R_s]
	// (zero unless Config.Saturated was set).
	MeanRs float64
	// RPerN is Table II's r = E[R]/E[N].
	RPerN float64
	// RsPerN is Table III's r_s = E[R_s]/E[N].
	RsPerN float64
	// Generated and Delivered count measured packets.
	Generated, Delivered int64
	// Time is the measured horizon.
	Time float64
	// EdgeRates is the measured per-edge arrival rate (arrivals/time).
	EdgeRates []float64
	// MaxN is the peak number of packets in the system during measurement.
	MaxN float64
	// LittleRelErr is the relative discrepancy |N - Λ̂·T̂|/N, a self-check
	// of the simulator's bookkeeping (small but nonzero due to boundary
	// censoring).
	LittleRelErr float64
	// EdgeOccupancy is the per-edge time-averaged queue length (including
	// the packet in service); nil unless Config.TrackEdgeOccupancy.
	EdgeOccupancy []float64
	// NDist[k] is the fraction of measured time with exactly k packets in
	// the system; nil unless Config.TrackNDist.
	NDist []float64
	// DelayHist is the per-packet delay histogram; nil unless
	// Config.DelayHistWidth > 0.
	DelayHist *stats.Histogram
	// Fault-layer outcome counters, all zero on fault-free runs (see
	// Config.Faults). Dropped counts measured packets that left the
	// system undelivered: generated at a down source, dropped by a drop
	// liar, or dead-ended with no live improving neighbor. DeadEnds
	// counts the last kind separately (DeadEnds ⊆ Dropped). DetourHops
	// counts recovery detours taken off the greedy route; Misrouted
	// counts adversarial misroutes. Generated − Delivered − Dropped
	// equals the measured packets still in flight at the horizon.
	Dropped, DeadEnds, DetourHops, Misrouted int64
	// LinkDownFrac and NodeDownFrac are the measured fraction of
	// entity-time down, with ALL links/nodes of the network in the
	// denominator (so 1% of links each down 2% of the time reads
	// ≈ 0.0002). Zero on fault-free runs.
	LinkDownFrac, NodeDownFrac float64
	// Snapshot is the end-of-run engine checkpoint, present only when the
	// run was configured with Capture. It feeds Config.Resume.
	Snapshot *Snapshot
}

// TailProb returns Pr[N > k] under the measured NDist (0 when untracked).
func (r *Result) TailProb(k int) float64 {
	total := 0.0
	for i := k + 1; i < len(r.NDist); i++ {
		total += r.NDist[i]
	}
	return total
}

// Event kinds, packed into the top 3 bits of a des.EventTree payload; the
// low 21 bits carry the edge or source id.
const (
	evArrival     uint32 = iota // merged-source generation (kept out of the tree; see engine.nextArr)
	evNodeArrival               // per-node packet generation (id = source index)
	evSlot                      // slotted-time batch generation
	evDeparture                 // FIFO service completion (id = edge)
	evPSDone                    // PS service completion (id = edge, station-validated)

	evKindShift = 21
	evIDMask    = 1<<evKindShift - 1
)

// evPack packs an event kind and id into a 24-bit heap payload.
func evPack(kind uint32, id int) uint32 {
	return kind<<evKindShift | uint32(id)
}

// engine is the per-run state.
type engine struct {
	cfg     Config
	rng     *xrand.RNG
	tree    *des.EventTree
	fifo    []des.FIFOStation[int32]
	ps      []des.PSStation[int32]
	prio    []des.PriorityStation[int32]
	sources []int
	arena   arena

	// arrivals is the custom merged arrival process (nil on the default
	// Poisson / slotted / per-node paths).
	arrivals ArrivalProcess

	// routing plane: tab (the Runner's route-step table) is nil on the
	// legacy AppendRoute path. Packets carry node ids; each hop converts
	// them to table keys through tab.NodeKey / tab.EdgeKey.
	tab      *routing.Table
	edgeTo   []int32
	fastFIFO bool // FIFO discipline + stepper routing: use departFIFO

	// flt is the fault layer's per-run state (nil on fault-free runs;
	// every fault hook in the engine is behind this check).
	flt *desFaults

	// loop invariants hoisted at setup
	totalRate float64   // NodeRate · #sources
	slotMean  float64   // NodeRate · SlotTau
	svcMean   []float64 // per-edge mean service time
	svcRate   []float64 // per-edge service rate 1/mean (Exponential only)

	// Merged arrival (or slotted batch) stream, kept out of the event
	// tree: there is always exactly one pending generator event, so it
	// lives in two scalars. nextArrMeta is the ReserveSeq tie-break key
	// (0 = stream inactive), which keeps the stream in the exact
	// (Time, Seq) total order of a heap-scheduled formulation.
	nextArr     float64
	nextArrMeta uint64

	// measurement plane
	measuring  bool
	start, end float64
	nInt       stats.TimeWeighted
	rInt       stats.TimeWeighted
	rsInt      stats.TimeWeighted
	nNow       float64
	rNow       float64
	rsNow      float64
	delay      stats.Welford
	batches    *stats.BatchMeans
	edgeCount  []int64
	generated  int64
	delivered  int64

	// optional trackers
	edgeOcc   []stats.TimeWeighted
	nDur      []float64
	nLast     float64
	delayHist *stats.Histogram
}

// bumpN shifts the number-in-system process by delta at time t, keeping the
// mean integrator and (when enabled) the exact time-at-each-level record.
func (e *engine) bumpN(t, delta float64) {
	if e.nDur != nil && e.measuring {
		idx := int(e.nNow)
		for idx >= len(e.nDur) {
			e.nDur = append(e.nDur, 0)
		}
		e.nDur[idx] += t - e.nLast
		e.nLast = t
	}
	e.nNow += delta
	if e.measuring {
		e.nInt.Set(t, e.nNow)
	}
}

// stationLen returns the queue length (including in service) at edge.
func (e *engine) stationLen(edge int) int {
	switch e.cfg.Discipline {
	case PS:
		return e.ps[edge].Len()
	case FurthestFirst:
		return e.prio[edge].Len()
	default:
		return e.fifo[edge].Len()
	}
}

// noteOccupancy records edge's queue length after a change. Callers check
// e.edgeOcc != nil first so the disabled tracker costs no call in the hot
// loop.
func (e *engine) noteOccupancy(t float64, edge int) {
	if e.measuring {
		e.edgeOcc[edge].Set(t, float64(e.stationLen(edge)))
	}
}

// Run executes one simulation and returns its measurements. Sweeps and
// replica sets should prefer a per-worker Runner (StreamSweep's workers use
// one), which produces bit-identical results while amortizing the per-run
// setup allocations to ~0; Run itself is a throwaway Runner.
func Run(cfg Config) (Result, error) {
	var r Runner
	return r.Run(cfg)
}

// scheduleSources seeds the generator events.
func (e *engine) scheduleSources() {
	switch {
	case e.cfg.SlotTau > 0:
		e.nextArr = e.cfg.SlotTau
		e.nextArrMeta = e.tree.ReserveSeq()
	case e.arrivals != nil:
		// The custom process shares the merged clock's two scalars; +Inf
		// (an ended stream) orders after every tree event and the horizon,
		// so the loop retires it without a special case.
		e.nextArr = e.arrivals.Next(0, e.rng)
		e.nextArrMeta = e.tree.ReserveSeq()
	case e.cfg.PerNodeArrivals:
		for i := range e.sources {
			if e.cfg.NodeRate > 0 {
				e.tree.Schedule(e.srcSlot(i), e.rng.Exp(e.cfg.NodeRate), evPack(evNodeArrival, i))
			}
		}
	default:
		if e.totalRate > 0 {
			e.nextArr = e.rng.Exp(e.totalRate)
			e.nextArrMeta = e.tree.ReserveSeq()
		}
	}
}

// srcSlot returns the event-tree slot of source clock i (edge slots come
// first).
func (e *engine) srcSlot(i int) int { return e.cfg.Net.NumEdges() + i }

// loop drains events until the measurement horizon ends, or until the
// config's context is canceled (polled every pollEvery events; the poll is
// pure control flow and never touches the RNG, so uncanceled runs are
// bit-identical with or without a Ctx). It returns false iff canceled.
func (e *engine) loop() bool {
	ctx := e.cfg.Ctx
	var events int
	for {
		if ctx != nil {
			if events++; events&(pollEvery-1) == 0 && ctx.Err() != nil {
				return false
			}
		}
		if e.nextArrMeta != 0 && e.tree.HeadAfter(e.nextArr, e.nextArrMeta) {
			// The generator clock fires before every tree event.
			t := e.nextArr
			if t > e.end {
				return true
			}
			if !e.measuring && t >= e.start {
				e.beginMeasurement()
			}
			switch {
			case e.cfg.SlotTau > 0:
				for _, src := range e.sources {
					for k := e.rng.Poisson(e.slotMean); k > 0; k-- {
						e.generate(t, src)
					}
				}
				e.nextArr = t + e.cfg.SlotTau
			case e.arrivals != nil:
				src := e.sources[e.rng.Intn(len(e.sources))]
				e.generate(t, src)
				e.nextArr = e.arrivals.Next(t, e.rng)
			default:
				src := e.sources[e.rng.Intn(len(e.sources))]
				e.generate(t, src)
				e.nextArr = t + e.rng.Exp(e.totalRate)
			}
			e.nextArrMeta = e.tree.ReserveSeq()
			continue
		}
		t, payload, ok := e.tree.Head()
		if !ok {
			return true
		}
		if t > e.end {
			return true
		}
		if !e.measuring && t >= e.start {
			e.beginMeasurement()
		}
		id := int(payload & evIDMask)
		// Every handler overwrites or clears the head's slot, so the tree
		// never needs an explicit pop.
		switch payload >> evKindShift {
		case evNodeArrival:
			e.generate(t, e.sources[id])
			e.tree.Schedule(e.srcSlot(id), t+e.rng.Exp(e.cfg.NodeRate), payload)
		case evDeparture:
			if e.fastFIFO {
				if e.flt != nil {
					e.departFIFOFault(t, id)
				} else {
					e.departFIFO(t, id)
				}
			} else {
				e.fifoDepart(t, id)
			}
		case evPSDone:
			e.psDepart(t, id)
		}
	}
}

// beginMeasurement resets the measurement plane at the warmup boundary.
func (e *engine) beginMeasurement() {
	e.measuring = true
	e.nInt.StartAt(e.start, e.nNow)
	e.rInt.StartAt(e.start, e.rNow)
	e.rsInt.StartAt(e.start, e.rsNow)
	for i := range e.edgeCount {
		e.edgeCount[i] = 0
	}
	e.generated = 0
	e.delivered = 0
	for i := range e.edgeOcc {
		e.edgeOcc[i].StartAt(e.start, float64(e.stationLen(i)))
	}
	e.nLast = e.start
}

// generate creates a packet at src at time t and injects it.
func (e *engine) generate(t float64, src int) {
	dst := e.cfg.Dest.Sample(src, e.rng)
	if e.measuring {
		e.generated++
	}
	if e.tab != nil {
		choice := 0
		if e.tab.Choose != nil {
			// The randomized router's coin, resolved at generation time;
			// consumes the same variate AppendRoute would.
			choice = e.tab.Choose(e.rng)
		}
		if e.flt != nil && !e.flt.nodeUp(int32(src), t) {
			// Down source: the packet is offered but immediately lost —
			// checked after the destination and coin draws so the variate
			// stream does not depend on the fault state (mirroring the
			// slotted engine's source-drop hook).
			if e.measuring {
				e.flt.dropped++
			}
			return
		}
		pos, key := e.tab.NodeKey[src], e.tab.NodeKey[dst]
		rem := e.tab.Hops(pos, key, uint32(choice))
		if rem == 0 {
			// Source equals destination: delivered instantly with zero
			// delay, never entering any queue (the paper allows these).
			e.recordDelivery(t, t, e.measuring)
			return
		}
		h, p := e.arena.alloc()
		p.genTime = t
		p.cur = int32(src)
		p.dst = int32(dst)
		p.choice = uint8(choice)
		p.measured = e.measuring
		e.bumpN(t, 1)
		e.rNow += float64(rem)
		if e.flt != nil {
			// Fault runs track remaining services per packet: detours and
			// misroutes re-evaluate the greedy continuation, so each
			// packet remembers what it charged (see departFIFOFault).
			p.rem = int32(rem)
		}
		if e.cfg.Saturated != nil {
			rs := e.countSaturatedWalk(pos, key, uint32(choice))
			e.rsNow += float64(rs)
			if e.flt != nil {
				p.rs = int32(rs)
			}
		}
		if e.measuring {
			e.rInt.Set(t, e.rNow)
			if e.cfg.Saturated != nil {
				e.rsInt.Set(t, e.rsNow)
			}
		}
		e.enqueue(t, h, p)
		return
	}

	// Legacy path: materialize the route through AppendRoute.
	h, p := e.arena.alloc()
	p.genTime = t
	p.measured = e.measuring
	route := e.cfg.Router.AppendRoute(e.arena.route(h)[:0], src, dst, e.rng)
	e.arena.setRoute(h, route)
	if len(route) == 0 {
		e.recordDelivery(t, t, e.measuring)
		e.arena.release(h)
		return
	}
	e.bumpN(t, 1)
	e.rNow += float64(len(route))
	if e.cfg.Saturated != nil {
		e.rsNow += float64(e.countSaturated(route))
	}
	if e.measuring {
		e.rInt.Set(t, e.rNow)
		if e.cfg.Saturated != nil {
			e.rsInt.Set(t, e.rsNow)
		}
	}
	e.enqueue(t, h, p)
}

// countSaturatedWalk counts saturated edges on the route from key pos to
// key dst under stepper choice.
func (e *engine) countSaturatedWalk(pos, dst int32, choice uint32) int {
	count := 0
	for {
		edge, done := e.tab.Next(pos, dst, choice)
		if done {
			return count
		}
		if e.cfg.Saturated[edge] {
			count++
		}
		pos = e.tab.EdgeKey[edge]
	}
}

func (e *engine) countSaturated(route []int) int {
	count := 0
	for _, edge := range route {
		if e.cfg.Saturated[edge] {
			count++
		}
	}
	return count
}

// serviceTime samples the service requirement at edge; means and rates are
// hoisted to per-edge tables at setup.
func (e *engine) serviceTime(edge int) float64 {
	if e.svcRate != nil {
		return e.rng.Exp(e.svcRate[edge])
	}
	return e.svcMean[edge]
}

// nextEdge returns the edge p enters next.
func (e *engine) nextEdge(h int32, p *packet) int {
	if e.tab != nil {
		edge, _ := e.tab.Next(e.tab.NodeKey[p.cur], e.tab.NodeKey[p.dst], uint32(p.choice))
		return int(edge)
	}
	return e.arena.route(h)[p.hop]
}

// remainingHops returns the hop count left for p, counting the hop p is
// currently queued for (or about to be).
func (e *engine) remainingHops(h int32, p *packet) int {
	if e.tab != nil {
		return e.tab.Hops(e.tab.NodeKey[p.cur], e.tab.NodeKey[p.dst], uint32(p.choice))
	}
	return len(e.arena.route(h)) - int(p.hop)
}

// enqueue places p at its next edge's station.
func (e *engine) enqueue(t float64, h int32, p *packet) {
	edge := e.nextEdge(h, p)
	if e.measuring {
		e.edgeCount[edge]++
	}
	switch e.cfg.Discipline {
	case PS:
		st := &e.ps[edge]
		st.Arrive(t, h, e.serviceTime(edge))
		e.schedulePS(t, edge)
	case FurthestFirst:
		remaining := float64(e.remainingHops(h, p))
		if e.prio[edge].Arrive(h, remaining) {
			e.tree.ScheduleIdle(edge, t+e.serviceTime(edge), evPack(evDeparture, edge))
		}
	default:
		if e.fifo[edge].Arrive(h) {
			if e.flt != nil {
				// The greedy first hop is taken even when currently down
				// (the queue holds, like the slotted engine's); only the
				// service start defers to the edge's next up time.
				e.tree.ScheduleIdle(edge, e.departAtFault(edge, t), evPack(evDeparture, edge))
			} else {
				e.tree.ScheduleIdle(edge, t+e.serviceTime(edge), evPack(evDeparture, edge))
			}
		}
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
}

// schedulePS replaces edge's completion event with a fresh one reflecting
// the station's current job set; slot replacement means a stale completion
// never exists, so no epoch or claim check is needed.
func (e *engine) schedulePS(t float64, edge int) {
	st := &e.ps[edge]
	if tc, ok := st.NextCompletion(t); ok {
		e.tree.Schedule(edge, tc, evPack(evPSDone, edge))
	} else {
		e.tree.Clear(edge)
	}
}

// departFIFO is the fused FIFO+stepper fast path: fifoDepart, advance and
// enqueue in one frame. Departures dominate the event mix (one per routed
// hop), and the three-deep call chain is too large for the inliner, so the
// fusion saves measurable dispatch overhead. The generic handlers below
// remain the reference semantics; the golden and materialized cross-check
// tests pin both paths to bit-identical results.
func (e *engine) departFIFO(t float64, edge int) {
	finished, _, hasNext := e.fifo[edge].Complete()
	if hasNext {
		e.tree.Schedule(edge, t+e.serviceTime(edge), evPack(evDeparture, edge))
	} else {
		e.tree.Clear(edge)
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
	p := e.arena.get(finished)
	e.rNow--
	if e.cfg.Saturated != nil && e.cfg.Saturated[edge] {
		e.rsNow--
	}
	p.cur = e.edgeTo[edge]
	done := p.cur == p.dst
	if done {
		e.bumpN(t, -1)
	}
	if e.measuring {
		e.rInt.Set(t, e.rNow)
		if e.cfg.Saturated != nil {
			e.rsInt.Set(t, e.rsNow)
		}
	}
	if done {
		e.recordDelivery(t, p.genTime, p.measured)
		e.arena.release(finished)
		return
	}
	step, _ := e.tab.Next(e.tab.EdgeKey[edge], e.tab.NodeKey[p.dst], uint32(p.choice))
	next := int(step)
	if e.measuring {
		e.edgeCount[next]++
	}
	if e.fifo[next].Arrive(finished) {
		e.tree.ScheduleIdle(next, t+e.serviceTime(next), evPack(evDeparture, next))
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, next)
	}
}

// fifoDepart completes the in-service packet at edge (FIFO or priority).
func (e *engine) fifoDepart(t float64, edge int) {
	var finished int32
	var hasNext bool
	if e.cfg.Discipline == FurthestFirst {
		finished, _, hasNext = e.prio[edge].Complete()
	} else {
		finished, _, hasNext = e.fifo[edge].Complete()
	}
	if hasNext {
		e.tree.Schedule(edge, t+e.serviceTime(edge), evPack(evDeparture, edge))
	} else {
		e.tree.Clear(edge)
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
	e.advance(t, finished, edge)
}

// psDepart completes the least-remaining packet at edge's PS station. The
// fired event is the station's live one by construction: rescheduling
// replaces the slot, so stale completions cannot reach here.
func (e *engine) psDepart(t float64, edge int) {
	st := &e.ps[edge]
	finished := st.CompleteOne(t)
	e.schedulePS(t, edge)
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
	e.advance(t, finished, edge)
}

// advance moves the packet h past its just-completed service at edge.
func (e *engine) advance(t float64, h int32, edge int) {
	p := e.arena.get(h)
	e.rNow--
	if e.cfg.Saturated != nil && e.cfg.Saturated[edge] {
		e.rsNow--
	}
	var done bool
	if e.tab != nil {
		p.cur = e.edgeTo[edge]
		done = p.cur == p.dst
	} else {
		p.hop++
		done = int(p.hop) == len(e.arena.route(h))
	}
	if done {
		e.bumpN(t, -1)
	}
	if e.measuring {
		e.rInt.Set(t, e.rNow)
		// rsInt integrates an identically-zero process when no edges are
		// marked saturated; skipping it changes nothing but the loop cost.
		if e.cfg.Saturated != nil {
			e.rsInt.Set(t, e.rsNow)
		}
	}
	if done {
		e.recordDelivery(t, p.genTime, p.measured)
		e.arena.release(h)
		return
	}
	e.enqueue(t, h, p)
}

// recordDelivery accounts one delivered packet generated at genTime.
func (e *engine) recordDelivery(t, genTime float64, measured bool) {
	if measured && e.measuring {
		d := t - genTime
		e.delay.Add(d)
		e.batches.Add(d)
		if e.delayHist != nil {
			e.delayHist.Add(d)
		}
		e.delivered++
	}
}

// result assembles the Result at the end of the horizon.
func (e *engine) result() Result {
	r := Result{
		Delay:     e.delay,
		MeanDelay: e.delay.Mean(),
		DelayCI:   e.batches.HalfWidth95(),
		MeanN:     e.nInt.MeanAt(e.end),
		MeanR:     e.rInt.MeanAt(e.end),
		MeanRs:    e.rsInt.MeanAt(e.end),
		Generated: e.generated,
		Delivered: e.delivered,
		Time:      e.end - e.start,
		MaxN:      e.nInt.Max(),
	}
	if r.MeanN > 0 {
		r.RPerN = r.MeanR / r.MeanN
		r.RsPerN = r.MeanRs / r.MeanN
	}
	r.EdgeRates = make([]float64, len(e.edgeCount))
	for i, c := range e.edgeCount {
		r.EdgeRates[i] = float64(c) / r.Time
	}
	if r.MeanN > 0 && r.Time > 0 {
		littleN := float64(r.Delivered) / r.Time * r.MeanDelay
		r.LittleRelErr = math.Abs(littleN-r.MeanN) / r.MeanN
	}
	if e.edgeOcc != nil {
		r.EdgeOccupancy = make([]float64, len(e.edgeOcc))
		for i := range e.edgeOcc {
			r.EdgeOccupancy[i] = e.edgeOcc[i].MeanAt(e.end)
		}
	}
	if e.nDur != nil {
		idx := int(e.nNow)
		for idx >= len(e.nDur) {
			e.nDur = append(e.nDur, 0)
		}
		e.nDur[idx] += e.end - e.nLast
		r.NDist = make([]float64, len(e.nDur))
		for i, d := range e.nDur {
			r.NDist[i] = d / r.Time
		}
	}
	r.DelayHist = e.delayHist
	if e.flt != nil {
		f := e.flt
		f.finish(e.end)
		r.Dropped = f.dropped
		r.DeadEnds = f.deadEnds
		r.DetourHops = f.detourHops
		r.Misrouted = f.misrouted
		if r.Time > 0 {
			r.LinkDownFrac = f.links.downtime / (float64(f.plan.NumEdges) * r.Time)
			r.NodeDownFrac = f.nodes.downtime / (float64(f.plan.NumNodes) * r.Time)
		}
	}
	return r
}
