// Package stepsim is the synchronous slotted-time engine: a second,
// independent implementation of the paper's §5.2 model in which time
// advances in unit slots, every source receives a Poisson(λτ) batch of new
// packets at the start of each slot, each edge serves exactly one queued
// packet per slot (FIFO), and a packet that completes a hop becomes
// eligible for service at its next edge in the following slot.
//
// It serves two purposes. First, cross-validation: the event-driven engine
// in internal/sim, configured with SlotTau = 1 and deterministic unit
// service, simulates the same stochastic system through an entirely
// different mechanism (event tree vs. synchronous phases); the two share no
// simulation code, so statistical agreement between them is strong evidence
// that neither misimplements the model (asserted in tests and reported by
// the `xval` experiment). Second, scale: the slotted model is the paper's
// own, and the asymptotic bounds bite only on large arrays, so this engine
// is built to push 256×256 and beyond — with Config.Shards, a single
// 1024×1024 run spreads across cores — through in seconds to minutes.
//
// # Engine architecture
//
// The engine is a structure-of-arrays cycle machine with an allocation-free
// steady state. Its central trick is that a queued packet's position is
// implicit: a packet waiting at edge e stands at EdgeTo(e), so packets
// carry no current-node field at all. Each in-flight packet is one 64-bit
// ring entry — the destination key in the high word, and the generation
// slot (24 bits, modular), the stepper choice and the measured bit in the
// low word:
//
//   - routing is implicit via routing.Table, the route-step table the
//     event engine and the traffic analysis share: the destination key
//     plus the popped edge's endpoint key determine the next edge, so
//     routes are never materialized (the pre-rewrite pointer engine
//     survives as the test-only oracle in oracle_test.go);
//   - on 2-D arrays with greedy row/column routers (the paper's core
//     model) the table's keys pack (row, col) coordinates, so no hop
//     divides and the next edge comes from the closed-form edge-id
//     arithmetic — a few ALU ops per hop, no interface calls;
//   - per-edge FIFO queues are power-of-two ring slices carved from one
//     slab — O(1) dequeue with a mask, no head-of-line memmove;
//   - the three phases (arrivals, service, placement) are tight flat
//     loops; packets that completed a hop park in a reusable `moved`
//     scratch array so no packet is served twice in one slot;
//   - execution is sparse (sparse.go): sources skip ahead to their next
//     nonzero arrival slot (xrand.PoissonSkip + PoissonPositive on a
//     timing wheel) and the service phase walks a two-level bitmap of
//     nonempty queues, so a slot costs O(traffic), not O(nodes + edges).
//
// # Random-number regime
//
// Randomness is consumed only at generation time (arrival skip, batch
// size, then per packet destination and routing coin); service is
// deterministic FIFO. Every source node has its own keyed stream,
// xrand.ReseedSplit(Seed, nodeID), and draws its variates from it in a
// canonical order. Because a node's draws then depend on nothing but
// (Seed, nodeID, its own draw history), the run's results are a pure
// function of the configuration — independent of source iteration order
// and, crucially, of how nodes are grouped into worker tiles, which is
// what makes sharded runs bit-identical to serial ones (see shard.go).
//
// An Engine's state survives across runs: Run resets bookkeeping but keeps
// the ring slab, tables and scratch, so a sweep that reuses one Engine per
// worker (see StreamSweep) amortizes setup to ~0 allocations per point.
// The zero Engine value is ready to use. Sweeps run on the shared driver in
// internal/sweep, the same one internal/sim uses; pool.go is this engine's
// adapter to it.
package stepsim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Config describes one slotted run. All fields mirror internal/sim's Config
// where they overlap; times are measured in slots.
type Config struct {
	// Net is the network topology.
	Net topology.Network
	// Router generates packet routes. Packets walk its Steppers one edge
	// at a time; a routing.ChoiceRouter's Choose picks each packet's
	// stepper at generation.
	Router routing.Router
	// Dest samples packet destinations. Samplers must be pure given (src,
	// rng) — every sampler in internal/routing and internal/workload is —
	// because sharded runs call Sample concurrently with per-node streams.
	Dest routing.DestSampler
	// NodeRate is λ: each source receives a Poisson(NodeRate) batch per slot.
	NodeRate float64
	// WarmupSlots are discarded before measurement.
	WarmupSlots int
	// Slots is the number of measured slots.
	Slots int
	// Seed drives all randomness.
	Seed uint64
	// Shards is the intra-run tile parallelism: the node set is split into
	// this many contiguous tiles (row bands on 2-D arrays and tori, index
	// ranges elsewhere), each simulated by its own goroutine with one
	// synchronization barrier per slot. 0 and 1 both mean serial. Results
	// are bit-identical for every value — per-node keyed RNG streams plus
	// a canonical per-slot placement order make the shard count a pure
	// performance knob — so sweeps may pick it freely per run.
	Shards int
	// Lookahead is the batched-barrier depth k: a sharded run takes its
	// global sense-reversing barrier once per k slots instead of every
	// slot, with per-tile published-slot gates providing the only per-slot
	// ordering (a tile waits just for the tiles that hand packets TO it,
	// and only until their service phase — not for the whole fleet), and
	// handoff buffers widened to 2k-deep rings so tiles inside a batch may
	// skew. 0 and 1 both mean one barrier per slot (the pre-lookahead
	// cadence). Lookahead is RESULT-INERT: like Shards it changes only how
	// a run synchronizes, never what it computes — results stay
	// Float64bits-identical for every k at every shard count, pinned by
	// TestShardInvariance — so sweeps and caches may treat it as a pure
	// performance knob. Values past the plan's useful depth (every node
	// within k hops of a tile boundary) are clamped, not errors; the
	// effective depth is reported as Result.Lookahead, and the amortization
	// as Result.BarrierWaits.
	Lookahead int
	// Resume, if non-nil, starts the run from a captured steady-state
	// checkpoint instead of an empty network: ring queues, per-node RNG
	// streams and pending arrival slots are restored, and WarmupSlots
	// becomes the RE-warm budget on top of the inherited state. Seed is
	// ignored on resume — the restored streams continue where they left
	// off. The snapshot's topology and key format must match the config; a
	// NodeRate differing from the captured one is allowed (warm-starting
	// the next point of a ρ-ladder) and redraws each source's next arrival
	// at the new rate, which the Poisson process's memorylessness makes
	// statistically exact. Same-rate resume is bit-exact: restore-and-continue equals an
	// uninterrupted longer run (see snapshot.go).
	Resume *Snapshot
	// Capture asks the run to export its end-of-run state as
	// Result.Snapshot, for a later Resume.
	Capture bool
	// Ctx, when non-nil, lets a long run be aborted mid-flight: the slot
	// loop polls it (every slot serially; via tile 0 on sharded runs, with
	// the per-slot barrier publishing the stop decision to every tile, so
	// all tiles leave at the same slot and no goroutine leaks) and Run
	// returns the context's cause as its error. Cancellation is control
	// flow only — it never touches the variate streams — so an uncanceled
	// run with a Ctx is bit-identical to one without. Sweep pools thread
	// their own context into every config that leaves Ctx nil.
	Ctx context.Context
	// Faults, when non-nil, degrades the run under the bound fault plan
	// (fault.Spec.Bind against this same network): link/node up–down
	// Markov processes, scheduled regional outages, and misbehaving
	// routers, with greedy-with-recovery routing around down entities (see
	// fault.go). nil leaves every fault hook off and the run bit-identical
	// to a build without the fault layer. The fault streams are keyed by
	// (fault seed, entity id), disjoint from the arrival streams, so
	// fault-enabled runs remain bit-identical at every shard count.
	// Incompatible with Resume and Capture.
	Faults *fault.Plan
	// PerDestStats asks the run to accumulate exact per-destination
	// delivered counts and delay sums (Result.DestCount / DestDelaySum) —
	// the raw material of the lying-node detection experiment
	// (internal/verify), which compares each source→destination path's
	// mean delay against its hop count. Works with or without Faults; the
	// fault-free variate streams are untouched either way.
	PerDestStats bool
}

// Result holds the measurements of one slotted run.
type Result struct {
	// MeanDelay is the mean packet delay in slots. Zero-hop packets
	// (destination equal to source) count with delay 0; the paper's
	// Table I appears to exclude them (see ROADMAP.md).
	MeanDelay float64
	// Delay holds full per-packet statistics.
	Delay stats.Welford
	// MeanN is the per-slot average number of packets in the system,
	// sampled during the service phase (after arrivals, before
	// departures), which matches the continuous-time time average: a
	// packet with delay d slots is present in exactly d samples, so
	// MeanN = Λ·MeanDelay as Little's law requires.
	MeanN float64
	// Delivered counts measured packets.
	Delivered int64
	// MeanActiveEdges is the per-slot average number of nonempty edge
	// queues at the service phase — the unit of phase-2 work, and what
	// the engine's service cost is proportional to. Accumulated as an
	// exact integer count per measured slot (merged across tiles like
	// the delay moments) and divided once at collect time.
	MeanActiveEdges float64
	// ArrivalSlotFraction is the fraction of (source, measured-slot)
	// pairs that received a nonzero arrival batch — the unit of phase-1
	// work, since the skip-ahead sampler touches a source only on those
	// slots. Exact-integer accumulation, like MeanActiveEdges.
	ArrivalSlotFraction float64
	// Generated counts packets generated during measured slots (including
	// zero-hop ones); its exact expectation is NodeRate × sources × Slots.
	Generated int64
	// Snapshot is the end-of-run engine checkpoint, present only when the
	// run was configured with Capture. It feeds Config.Resume.
	Snapshot *Snapshot

	// BarrierWaits counts entries into the global sense-reversing barrier,
	// summed over tiles — the synchronization bill of a sharded run, and
	// what Config.Lookahead amortizes (≈ shards × slots / k; zero on
	// serial runs, which have no barrier). Deterministic, unlike wall
	// clock, so the ~k× reduction is measurable even on one vCPU.
	BarrierWaits int64
	// Lookahead is the effective batch depth the run executed with after
	// clamping Config.Lookahead to the tile plan's useful depth (1 on
	// serial runs, where there is nothing to amortize).
	Lookahead int

	// Fault-layer counters, all zero on fault-free runs. Dropped counts
	// measured packets that left the system undelivered: generated at a
	// down source, discarded by a drop liar, or dead-ended with no live
	// improving neighbor (Generated − Delivered − Dropped is the measured
	// traffic still in flight at the horizon). DeadEnds is the dead-end
	// subset of Dropped. DetourHops counts recovery detours taken by
	// measured packets; Misrouted counts adversarial misroutes applied to
	// them. All are exact integers merged across tiles like the delay
	// moments.
	Dropped    int64
	DeadEnds   int64
	DetourHops int64
	Misrouted  int64
	// LinkDownFrac / NodeDownFrac are the fractions of (entity, measured
	// slot) pairs the entity spent down, over ALL links/nodes of the
	// topology (so a plan failing 1% of links at 2% steady-state downtime
	// reads ≈ 0.0002). Exact-integer down-entity-slot counts divided once
	// at collect time.
	LinkDownFrac float64
	NodeDownFrac float64

	// DestCount / DestDelaySum are per-destination delivered counts and
	// delay sums (indexed by node id), present only when
	// Config.PerDestStats is set.
	DestCount    []int64
	DestDelaySum []uint64
}

// Ring-entry layout. The low word is the packet: generation slot modulo
// 2²⁴ (delays are computed with modular subtraction, so per-packet sojourn
// times up to 2²⁴−1 slots are exact at any run length — far beyond any
// stable configuration), stepper choice (7 bits) and the measured flag.
// The high word is the destination key in routing.Table's format: the node
// id on the generic path, or packed (row, col) coordinates on the array
// fast path.
const (
	entSlotBits   = 24
	entSlotMask   = 1<<entSlotBits - 1
	entChoiceMask = 0x7f
	entMeasured   = 1 << 31
	entKeyShift   = 32
)

// ringCap is each edge queue's initial ring capacity (a power of two).
// Stable loads keep per-edge queues around ρ/(1−ρ), so 4 covers the common
// case; hot edges grow their ring privately by doubling.
const ringCap = 4

// movedRec parks one packet between the service and placement phases.
// src is the edge the packet was served at this slot; a sharded run
// merges boundary-crossing packets back into ascending src order, which is
// exactly the order a serial service scan would have placed them in.
type movedRec struct {
	ent  uint64
	edge int32
	src  int32
}

// resolveConfig validates cfg and resolves the router's steppers and
// per-packet choice function.
func resolveConfig(cfg Config) (steppers []routing.Stepper, choose func(*xrand.RNG) int, err error) {
	if cfg.Net == nil || cfg.Router == nil || cfg.Dest == nil {
		return nil, nil, fmt.Errorf("stepsim: Net, Router and Dest are required")
	}
	if cfg.Slots <= 0 || cfg.WarmupSlots < 0 || cfg.NodeRate < 0 {
		return nil, nil, fmt.Errorf("stepsim: invalid slot counts or rate")
	}
	if cfg.Lookahead < 0 {
		return nil, nil, fmt.Errorf("stepsim: negative Lookahead %d", cfg.Lookahead)
	}
	steppers, choose = routing.Steppers(cfg.Router)
	if len(steppers) > entChoiceMask+1 {
		return nil, nil, fmt.Errorf("stepsim: router %T exposes %d steppers, more than the %d a ring entry can index", cfg.Router, len(steppers), entChoiceMask+1)
	}
	if cfg.Net.NumNodes() > math.MaxInt32 {
		return nil, nil, fmt.Errorf("stepsim: %s exceeds the int32 node-id limit", cfg.Net.Name())
	}
	return steppers, choose, nil
}

// poissonExpOf returns exp(−mean) when the mean sits in the inversion
// regime of xrand.PoissonPositive, so the batch draw can hoist it
// (xrand.PoissonPositiveExp); else 0 (meaning: draw through
// xrand.PoissonPositive).
func poissonExpOf(mean float64) float64 {
	if mean > 0 && mean < 10 {
		return math.Exp(-mean)
	}
	return 0
}

// ringSet is the per-edge FIFO queue state: qbuf[e] is a power-of-two
// ring slice (initially carved from one slab), qhead[e]/qsize[e] its head
// index and length. In a sharded run each tile touches only the entries of
// the edges it owns, so the arrays are shared without locks.
type ringSet struct {
	qbuf  [][]uint64
	qhead []int32
	qsize []int32
}

// reset prepares rings for numEdges edges, reusing grown buffers when the
// edge count matches, else carving a fresh power-of-two ring per edge from
// one slab.
func (r *ringSet) reset(numEdges int) {
	if len(r.qbuf) == numEdges {
		for i := range r.qhead {
			r.qhead[i], r.qsize[i] = 0, 0
		}
		return
	}
	r.qbuf = make([][]uint64, numEdges)
	r.qhead = make([]int32, numEdges)
	r.qsize = make([]int32, numEdges)
	slab := make([]uint64, numEdges*ringCap)
	for i := range r.qbuf {
		r.qbuf[i] = slab[i*ringCap : (i+1)*ringCap : (i+1)*ringCap]
	}
}

// push appends entry ent to edge's ring, doubling the ring (privately,
// detached from the slab) when full.
func (r *ringSet) push(edge int32, ent uint64) {
	buf := r.qbuf[edge]
	size := r.qsize[edge]
	if int(size) == len(buf) {
		grown := make([]uint64, 2*len(buf))
		head := r.qhead[edge]
		mask := int32(len(buf) - 1)
		for i := int32(0); i < size; i++ {
			grown[i] = buf[(head+i)&mask]
		}
		buf = grown
		r.qbuf[edge] = buf
		r.qhead[edge] = 0
	}
	buf[(r.qhead[edge]+size)&int32(len(buf)-1)] = ent
	r.qsize[edge] = size + 1
}

// grow returns buf resized to n elements, reusing its capacity. Contents
// are unspecified: callers either overwrite every element or explicitly
// clear.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Run executes one synchronous simulation on a throwaway engine. Sweeps
// should reuse an Engine (or go through StreamSweep, which does).
func Run(cfg Config) (Result, error) {
	var e Engine
	return e.Run(cfg)
}
