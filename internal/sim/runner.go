package sim

import (
	"context"
	"fmt"

	"repro/internal/des"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Runner executes simulation runs while reusing the engine's allocation-
// heavy state between them: the RNG, the event tree, the station arrays and
// their ring slab, the packet arena, the route-step table, and every
// per-edge lookup and counter table. A fresh Run performs ~36 setup
// allocations; a Runner's subsequent runs of the same network shape
// perform almost none, so a sweep that gives each worker one Runner
// (StreamSweep does) amortizes per-run setup to ~0.
//
// Reuse is semantically invisible: every reused structure is reset to a
// state indistinguishable from a freshly allocated one (the RNG is
// reseeded, the tree's sequence counter restarts, stations and the arena
// empty at generation zero), so Runner.Run is bit-identical to Run for any
// sequence of configurations — including sequences that change topology,
// discipline, or tracking options, which simply fall back to fresh
// allocation where shapes differ. TestRunnerMatchesRun pins this.
//
// A Runner is not safe for concurrent use; use one per goroutine.
type Runner struct {
	rng       *xrand.RNG
	tree      *des.EventTree
	fifo      []des.FIFOStation[int32]
	ps        []des.PSStation[int32]
	prio      []des.PriorityStation[int32]
	arena     arena
	tab       routing.Table
	batches   *stats.BatchMeans
	sources   []int
	edgeTo    []int32
	svcMean   []float64
	svcRate   []float64
	edgeCount []int64
	edgeOcc   []stats.TimeWeighted
	nDur      []float64
}

// Run executes one simulation with the same semantics and bit-identical
// results as the package-level Run, reusing the Runner's cached state.
func (r *Runner) Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	var arrivals ArrivalProcess
	if cfg.Arrivals != nil {
		if arrivals = cfg.Arrivals(); arrivals == nil {
			return Result{}, fmt.Errorf("sim: Arrivals factory returned nil")
		}
	}
	if !cfg.AllowUnstable {
		if err := cfg.checkStability(arrivals); err != nil {
			return Result{}, err
		}
	}
	if cfg.Capture || cfg.Resume != nil {
		if err := snapshotGate(cfg); err != nil {
			return Result{}, err
		}
	}
	e := r.prepare(cfg, arrivals)
	if cfg.Faults != nil && !e.fastFIFO {
		return Result{}, fmt.Errorf("sim: fault layer requires a router implementing routing.Stepper")
	}
	if cfg.Resume != nil {
		// A restore replaces source scheduling entirely: the captured
		// clock scalars, tree events and packets carry the whole pending
		// future.
		if err := e.restoreSnapshot(cfg.Resume); err != nil {
			return Result{}, err
		}
	} else {
		e.scheduleSources()
	}
	finished := e.loop()
	r.capture(e)
	if !finished {
		// Canceled mid-run: the partial measurements are not a valid
		// Result (the horizon was not reached), so only the error escapes.
		return Result{}, context.Cause(cfg.Ctx)
	}
	res := e.result()
	if cfg.Capture {
		res.Snapshot = e.snapshot()
	}
	return res, nil
}

// appendSources appends net's source nodes to buf (reusing its capacity),
// mirroring topology.Sources without the per-call allocation.
func appendSources(buf []int, net topology.Network) []int {
	if ss, ok := net.(topology.SourceSet); ok {
		return append(buf, ss.SourceNodes()...)
	}
	for i := 0; i < net.NumNodes(); i++ {
		buf = append(buf, i)
	}
	return buf
}

// growF64 returns buf resized to n, reusing its capacity (contents are
// unspecified; callers refill).
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growI32 returns buf resized to n, reusing its capacity.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// prepare assembles the per-run engine, drawing every reusable structure
// from the Runner's caches and resetting it to fresh-equivalent state.
func (r *Runner) prepare(cfg Config, arrivals ArrivalProcess) *engine {
	numEdges := cfg.Net.NumEdges()
	e := &engine{
		cfg:      cfg,
		arrivals: arrivals,
		start:    cfg.Warmup,
		end:      cfg.Warmup + cfg.Horizon,
	}
	if r.rng != nil {
		r.rng.Reseed(cfg.Seed)
		e.rng = r.rng
	} else {
		e.rng = xrand.New(cfg.Seed)
	}
	if r.sources == nil {
		// Pre-size once so the dense-node fill is a single allocation, not
		// a growth ladder (keeps the fresh-run allocation count at the
		// pre-Runner engine's level).
		r.sources = make([]int, 0, cfg.Net.NumNodes())
	}
	e.sources = appendSources(r.sources[:0], cfg.Net)
	if cap(r.edgeCount) >= numEdges {
		e.edgeCount = r.edgeCount[:numEdges]
		for i := range e.edgeCount {
			e.edgeCount[i] = 0
		}
	} else {
		e.edgeCount = make([]int64, numEdges)
	}
	slots := numEdges
	if cfg.PerNodeArrivals {
		slots += len(e.sources) // one clock slot per source, after the edges
	}
	if r.tree != nil {
		r.tree.Reset(slots)
		e.tree = r.tree
	} else {
		e.tree = des.NewEventTree(slots)
	}
	if !cfg.MaterializeRoutes {
		if steppers, choose, ok := routing.Steppers(cfg.Router); ok {
			// Fault mode keeps node-id keys, as the slotted engine's
			// does: the fault plan's tables index nodes directly.
			r.tab.Init(cfg.Net, steppers, choose, cfg.Faults == nil)
			e.tab = &r.tab
		}
	}
	e.arena = r.arena
	if e.tab != nil {
		e.arena.reset(false)
		e.edgeTo = growI32(r.edgeTo, numEdges)
		for ed := 0; ed < numEdges; ed++ {
			e.edgeTo[ed] = int32(cfg.Net.EdgeTo(ed))
		}
	} else {
		e.arena.reset(true)
	}
	e.fastFIFO = cfg.Discipline == FIFO && e.tab != nil
	e.totalRate = cfg.NodeRate * float64(len(e.sources))
	if e.arrivals != nil {
		// Batch sizing and rate bookkeeping use the process's mean rate;
		// the loop never draws from totalRate on this path.
		e.totalRate = e.arrivals.Rate()
	}
	e.slotMean = cfg.NodeRate * cfg.SlotTau
	e.svcMean = growF64(r.svcMean, numEdges)
	for ed := range e.svcMean {
		e.svcMean[ed] = 1
		if cfg.ServiceTime != nil {
			e.svcMean[ed] = cfg.ServiceTime[ed]
		}
	}
	if cfg.Service == Exponential {
		e.svcRate = growF64(r.svcRate, numEdges)
		for ed := range e.svcRate {
			e.svcRate[ed] = 1 / e.svcMean[ed]
		}
	}
	switch cfg.Discipline {
	case PS:
		if len(r.ps) == numEdges {
			for i := range r.ps {
				r.ps[i].Reset()
			}
			e.ps = r.ps
		} else {
			e.ps = make([]des.PSStation[int32], numEdges)
		}
	case FurthestFirst:
		if len(r.prio) == numEdges {
			for i := range r.prio {
				r.prio[i].Reset()
			}
			e.prio = r.prio
		} else {
			e.prio = make([]des.PriorityStation[int32], numEdges)
		}
	default:
		if len(r.fifo) == numEdges {
			for i := range r.fifo {
				r.fifo[i].Reset()
			}
			e.fifo = r.fifo
		} else {
			e.fifo = make([]des.FIFOStation[int32], numEdges)
			// Carve every station's initial ring from one slab: two
			// allocations for all queues instead of a growth ladder per
			// busy edge.
			const ringCap = 16
			slab := make([]int32, numEdges*ringCap)
			for i := range e.fifo {
				e.fifo[i].InitRing(slab[i*ringCap : (i+1)*ringCap : (i+1)*ringCap])
			}
		}
	}
	batchCount := cfg.BatchCount
	if batchCount <= 0 {
		batchCount = 16
	}
	expected := e.totalRate * cfg.Horizon
	batchSize := int64(expected) / int64(batchCount)
	if batchSize < 1 {
		batchSize = 1
	}
	if r.batches != nil {
		r.batches.Reset(batchSize)
		e.batches = r.batches
	} else {
		e.batches = stats.NewBatchMeans(batchSize)
	}
	if cfg.TrackEdgeOccupancy {
		if cap(r.edgeOcc) >= numEdges {
			e.edgeOcc = r.edgeOcc[:numEdges]
			for i := range e.edgeOcc {
				e.edgeOcc[i] = stats.TimeWeighted{}
			}
		} else {
			e.edgeOcc = make([]stats.TimeWeighted, numEdges)
		}
	}
	if cfg.TrackNDist {
		if cap(r.nDur) >= 64 {
			// Reslice to the fresh length exactly: NDist's length (and so
			// the Result) must not depend on an earlier run's growth.
			e.nDur = r.nDur[:64]
			for i := range e.nDur {
				e.nDur[i] = 0
			}
		} else {
			e.nDur = make([]float64, 64)
		}
	}
	if cfg.DelayHistWidth > 0 {
		// The histogram escapes into the Result, so it is never reused.
		e.delayHist = stats.NewHistogram(cfg.DelayHistWidth, 4096)
	}
	if cfg.Faults != nil {
		// Fault state is per-run (dwell streams restart at the fault
		// seed), so it is built fresh rather than cached on the Runner;
		// degraded runs pay the setup allocations, fault-free runs none.
		e.flt = newDESFaults(cfg.Faults, e.start, e.end)
	}
	return e
}

// capture stores the engine's (possibly regrown) structures back on the
// Runner for the next run.
func (r *Runner) capture(e *engine) {
	r.rng = e.rng
	r.tree = e.tree
	r.arena = e.arena
	r.batches = e.batches
	r.sources = e.sources
	r.svcMean = e.svcMean
	r.edgeCount = e.edgeCount
	if e.fifo != nil {
		r.fifo = e.fifo
	}
	if e.ps != nil {
		r.ps = e.ps
	}
	if e.prio != nil {
		r.prio = e.prio
	}
	if e.edgeTo != nil {
		r.edgeTo = e.edgeTo
	}
	if e.svcRate != nil {
		r.svcRate = e.svcRate
	}
	if e.edgeOcc != nil {
		r.edgeOcc = e.edgeOcc
	}
	if e.nDur != nil {
		r.nDur = e.nDur
	}
}
