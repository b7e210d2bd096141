package stepsim

// Tile-sharded execution of a single slotted run.
//
// The node set is partitioned into contiguous tiles (topology.Partition:
// row bands on 2-D arrays and tori, index ranges elsewhere) and each tile
// runs on its own goroutine, owning everything its nodes touch: the ring
// queues of the edges leaving its nodes, the keyed RNG streams of its
// source nodes, and its measurement accumulators. A slot is the same three
// phases as a serial run — arrivals, service, placement — but the fleet
// does not rendezvous every slot. Per-slot ordering comes from per-tile
// GATES, and the global barrier fires once per k-slot batch
// (Config.Lookahead):
//
//	arrivals(slot)     tile-local: sources push onto their own out-edges
//	service(slot)      tile-local pops; boundary-crossing packets go to the
//	                   per-(tile,tile) handoff ring for slot%2k
//	publish(slot+1)    this tile's handoffs for the slot are complete
//	place-eager(slot)  own survivors bound for INTERIOR nodes (boundary
//	                   distance ≥ 1 — no handoff can ever target their
//	                   queues) are pushed without waiting for anyone
//	GATE               wait, per SENDING tile only, until it has published
//	                   this slot — a one-way producer→consumer wait on the
//	                   1–2 tiles that actually feed this one, not a global
//	                   rendezvous, and only up to their service phase
//	place-bnd(slot)    own boundary-bound survivors merge with the
//	                   handoffs addressed to this tile, in ascending
//	                   served-edge order
//	BARRIER            only when the slot ends a k-slot batch
//
// Handoff lists are 2k-deep rings indexed by slot modulo 2k: tiles inside
// one batch may skew freely (the gates bound the skew wherever traffic
// actually flows), and the batch barrier keeps any writer two full
// batches behind the reuse of a ring slot, generalizing the old parity
// double-buffer (which this degenerates to at k = 1). The interior/
// boundary split is planned by topology.BoundaryDistance: a node at
// distance d from the nearest cross edge cannot exchange packets with
// another tile for d slots, so only distance-0 nodes' queues ever receive
// handoffs and everything deeper places eagerly, ahead of the gate.
//
// The barrier amortization is the measurable win (Result.BarrierWaits
// drops ≈ k×, deterministically, even on one vCPU); the gates are what
// keep it correct — and they are cheaper than the barrier they replace,
// because a tile waits only for its actual upstream, one atomic load on
// the fast path, instead of for the slowest tile in the fleet.
//
// # Why results cannot depend on the shard count
//
// Three invariants make shards ∈ {1, 2, …} produce math.Float64bits-equal
// Results, pinned by TestShardInvariance and golden tests:
//
//  1. Randomness is per node, not per engine: source v draws from the
//     keyed stream xrand.ReseedSplit(Seed, v) in a canonical order, so the
//     variates a node consumes are independent of which tile simulates it.
//  2. Queue contents are order-canonical: within a slot, a queue receives
//     its arrivals (only its own source generates them, in that source's
//     draw order) followed by moved packets in ascending served-edge
//     order. Each edge serves at most one packet per slot, so served-edge
//     ids are unique keys and the k-way merge of sorted handoff lists
//     reconstructs exactly the order a serial scan over all edges yields.
//  3. Accumulation is exact-integer: delays are whole slots, so each tile
//     keeps (count, Σd, Σd², min, max) in integers and the cross-tile
//     merge is associative addition; MeanN sums per-tile live counters the
//     same way. The only floating-point operations happen once, at
//     collect time (stats.WelfordFromInts).
//
// The barrier is a sense-reversing barrier whose fast path is a bounded
// atomic spin (no locks or syscalls when every tile has its own core),
// parking in the scheduler when the window expires; the gates follow the
// same spin-then-park discipline. Handoff lists are plain slices because
// the writer's gate publish happens-before the reader's gate pass (and
// ring-slot reuse is ordered by the batch barrier), so neither needs
// locks.
//
// Fault-layer runs replicate the cheap shared state instead of adding
// synchronization: every tile advances ALL Markov and outage processes on
// a private copy of the up/down arrays (the dwell streams are keyed per
// entity, so every copy computes identical values), charging the downtime
// integrals only for the entities it owns. What was a second, fault-only
// barrier per slot in the pre-lookahead engine is now zero barriers, and
// degraded runs batch exactly like fault-free ones.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// maxShards bounds the tile count: handoff buffers are O(shards²) slice
// headers, and no machine this engine targets has more cores.
const maxShards = 1024

// maxLookahead bounds Config.Lookahead before the plan-derived clamp:
// handoff rings are O(shards² · 2k) slice headers, and a batch deeper than
// this amortizes nothing a shallower one does not already.
const maxLookahead = 64

// tile is one worker's share of a sharded run: a contiguous node range,
// the sources and out-edges inside it, their RNG streams, and the tile's
// private accumulators and scratch. Only its own goroutine writes any of
// it during a run.
type tile struct {
	id    int32
	sense int32 // barrier sense, flipped every wait

	// sources are the generating nodes in the tile's range, ascending;
	// rngs[i] is sources[i]'s keyed stream.
	sources []int32
	rngs    []xrand.RNG

	// moved parks own-tile placements bound for interior nodes (placed
	// eagerly, before the gate); movedB parks those bound for boundary
	// nodes, which must merge with incoming handoffs; bnd is the merge
	// scratch. Single-tile plans use only moved.
	moved  []movedRec
	movedB []movedRec
	bnd    []movedRec

	// Sparse-execution state (sparse.go): the busy-edge bitmap over the
	// tile's owned edges, the arrival timing wheel (intrusive chains:
	// bucket heads plus one link per source, so filing never allocates),
	// and each source's next arrival slot (aligned with sources).
	act       activeSet
	wheelHead []int32
	wheelLink []int32
	next      []int64

	// Measurement accumulators; exact integers so cross-tile merging is
	// associative (see the package comment on determinism). busySum and
	// arrivalHits feed Result.MeanActiveEdges / ArrivalSlotFraction.
	live        int64
	liveSum     int64
	count       int64
	sumDelay    uint64
	sumSq       uint64
	busySum     int64
	arrivalHits int64
	genCount    int64
	minD        int32
	maxD        int32

	// Fault-layer state (fault.go): the tile's REPLICA of every Markov
	// entity's keyed dwell stream, next-transition slot and up/down state
	// (aligned with the plan's FaultEdges/FaultNodes lists; identical
	// values on every tile, advanced without synchronization), plus the
	// running counts of OWNED down entities feeding the measured-slot
	// integrals, and the fault outcome counters. Empty/zero on fault-free
	// runs.
	fltLinkRng  []xrand.RNG
	fltLinkNext []int64
	fltNodeRng  []xrand.RNG
	fltNodeNext []int64
	fltLinkDown []bool
	fltNodeDown []uint8
	downLinks   int64
	downNodes   int64
	barWaits    int64

	linkDownSlots int64
	nodeDownSlots int64
	dropped       int64
	deadEnds      int64
	detourHops    int64
	misrouted     int64

	// Per-destination delivery accumulators (Config.PerDestStats), indexed
	// by destination node id; nil when disabled.
	destCount []int64
	destDelay []uint64

	_ [64]byte // keep neighboring tiles' hot counters off this cache line
}

// addDelay records one delivered packet's delay.
func (t *tile) addDelay(d int32) {
	if t.count == 0 {
		t.minD, t.maxD = d, d
	} else {
		if d < t.minD {
			t.minD = d
		}
		if d > t.maxD {
			t.maxD = d
		}
	}
	t.count++
	t.sumDelay += uint64(d)
	t.sumSq += uint64(d) * uint64(d)
}

// barrier is a reusable sense-reversing barrier with a two-stage wait:
// waiters first spin on an atomic sense word — on a machine with a core
// per tile the release lands within the spin window and a slot's
// synchronization costs no lock, no syscall and no allocation — and only
// if the window expires do they park on a condition variable. Parking is
// what keeps oversubscribed configurations (more tiles than cores, or a
// loaded machine) graceful: an unbounded spinner would burn its whole OS
// quantum while the tile it waits for cannot run.
type barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Int32

	mu     sync.Mutex
	cond   sync.Cond
	parked int32 // under mu
}

// barrierSpin bounds the fast-path spin; a release that takes longer than
// this is waited out in the scheduler instead.
const barrierSpin = 4096

// init prepares the barrier for n participants.
func (b *barrier) init(n int) {
	b.n = int32(n)
	b.count.Store(0)
	b.sense.Store(0)
	b.cond.L = &b.mu
}

// wait blocks until all n participants have called it. local is the
// caller's sense word (one per participant, flipped on every wait).
func (b *barrier) wait(local *int32) {
	s := *local ^ 1
	*local = s
	if b.count.Add(1) == b.n {
		// Last arriver: reset the count BEFORE releasing the sense, so a
		// released waiter re-entering the next barrier cannot race the
		// reset. The sense flip is published under the lock so a waiter
		// cannot park after missing it.
		b.count.Store(0)
		b.mu.Lock()
		b.sense.Store(s)
		parked := b.parked
		b.mu.Unlock()
		if parked > 0 {
			b.cond.Broadcast()
		}
		return
	}
	for spins := 0; spins < barrierSpin; spins++ {
		if b.sense.Load() == s {
			return
		}
	}
	b.mu.Lock()
	b.parked++
	for b.sense.Load() != s {
		b.cond.Wait()
	}
	b.parked--
	b.mu.Unlock()
}

// gate is one tile's published-slot word: the producer stores slot+1 after
// its service phase writes every handoff for that slot, and a consumer
// about to merge handoffs for the slot waits until the word passes it.
// Like the barrier it spins first and parks only when the producer is
// genuinely behind — but unlike the barrier it is pairwise and one-way:
// nobody waits on a tile that sends them nothing, and a fast producer
// never waits at all. The padding keeps each tile's hot word on its own
// cache line so the per-slot publishes of neighboring tiles do not
// false-share.
type gate struct {
	slot   atomic.Int64
	parked atomic.Int32

	mu   sync.Mutex
	cond sync.Cond

	_ [64]byte
}

// init prepares the gate for a run starting at slot 0.
func (g *gate) init() {
	g.slot.Store(0)
	g.parked.Store(0)
	g.cond.L = &g.mu
}

// publish announces that every slot below v is fully serviced. The parked
// check is ordered after the store (both are seq-cst), so a waiter that
// registered before the check is woken and one that registers after it
// re-reads the slot word first and never sleeps on a published value.
func (g *gate) publish(v int64) {
	g.slot.Store(v)
	if g.parked.Load() != 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// await blocks until the gate has published v or beyond.
func (g *gate) await(v int64) {
	for spins := 0; spins < barrierSpin; spins++ {
		if g.slot.Load() >= v {
			return
		}
	}
	g.mu.Lock()
	g.parked.Add(1)
	for g.slot.Load() < v {
		g.cond.Wait()
	}
	g.parked.Add(-1)
	g.mu.Unlock()
}

// Engine is a reusable slotted simulator. The zero value is ready; Run
// honors cfg.Shards (0 and 1 mean a single tile run inline on the calling
// goroutine) and keeps tables, rings, tile scratch and handoff buffers
// across runs, so a sweep that reuses one Engine per worker (see
// StreamSweep) stays allocation-free in steady state. An Engine is not
// safe for concurrent use: its worker goroutines exist only inside Run.
//
// Results are bit-identical for every shard count — see the determinism
// notes at the top of this file.
type Engine struct {
	cfg      Config
	shards   int
	resumed  bool // cfg.Resume != nil: reset restored state, workers skip seeding
	tab      routing.Table
	rings    ringSet
	poissonL float64

	// Ownership tables (shards > 1 only). A served packet's next edge
	// always leaves the node it stands at — pos, already decoded from the
	// popped edge — so ownership is looked up by position key, not by edge
	// id: rowOwner (n entries, L1-resident) on the packed-coordinate fast
	// path, nodeOwner (node-id indexed) on the generic path. nodeOwner
	// doubles as the plan-time edge-owner lookup via EdgeFrom.
	nodeOwner []int32
	rowOwner  []int32

	tiles []tile

	// lookahead is the effective batch depth k (Config.Lookahead clamped
	// to the plan's useful depth); ringDepth = 2k is the handoff ring
	// depth. Serial plans pin both to 1 resp. 2.
	lookahead int
	ringDepth int

	// handoff[(src*shards+dst)*ringDepth + slot%ringDepth] carries the
	// packets tile src served that slot whose next edge belongs to tile
	// dst, in ascending served-edge order. The ring generalizes the old
	// per-slot parity double-buffer to k-slot batches.
	handoff [][]movedRec

	// gates[t] is tile t's published-slot word; senders[t] lists the tiles
	// with at least one cross edge INTO tile t — the only gates t ever
	// awaits — ascending. boundaryRow / boundaryNode mark the distance-0
	// nodes of the plan (whole rows on the packed-coordinate fast path),
	// whose queues are the only possible handoff targets: survivors headed
	// anywhere deeper place eagerly, before the gate.
	gates        []gate
	senders      [][]int32
	senderMark   []bool
	boundaryRow  []bool
	boundaryNode []bool

	bar barrier

	// flt is the run's fault state (fault.go); nil on fault-free runs, in
	// which case every fault hook in the slot loop is one predictable
	// nil-check.
	flt *stepFaults

	// stopAt is the cancellation consensus: on multi-tile runs only tile 0
	// polls cfg.Ctx, and on cancellation it stores its current slot + 1
	// here before its barrier wait. Every tile compares the value against
	// its own slot AFTER the barrier and leaves only on an exact match —
	// the slot tag is what makes the protocol safe, because a slow tile's
	// post-barrier load at round k can observe a store tile 0 makes during
	// round k+1 (the loads of round k are not ordered before the stores of
	// round k+1); a boolean would make that tile leave a round early and
	// deadlock the barrier on a missing participant. With the tag it just
	// sees a future slot, continues, and exits in lockstep one round later.
	// Zero means "not canceled"; nonzero also tells Run the result is void.
	stopAt atomic.Int64
}

// Run executes one synchronous simulation, reusing the engine's storage.
func (s *Engine) Run(cfg Config) (Result, error) {
	if err := s.reset(cfg); err != nil {
		return Result{}, err
	}
	if s.shards == 1 {
		s.worker(&s.tiles[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(s.shards)
		for i := range s.tiles {
			t := &s.tiles[i]
			go func() {
				defer wg.Done()
				s.worker(t)
			}()
		}
		wg.Wait()
	}
	if s.stopAt.Load() != 0 {
		// Canceled mid-run: partial tile accumulators are not a valid
		// Result (the horizon was not reached), so only the cause escapes.
		return Result{}, context.Cause(cfg.Ctx)
	}
	res := s.collect()
	if cfg.Capture {
		res.Snapshot = s.capture()
	}
	return res, nil
}

// reset validates cfg and builds the tile plan, reusing prior storage when
// capacities allow.
func (s *Engine) reset(cfg Config) error {
	steppers, choose, err := resolveConfig(cfg)
	if err != nil {
		return err
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > maxShards {
		return fmt.Errorf("stepsim: Shards = %d exceeds the %d-tile limit", shards, maxShards)
	}
	s.cfg = cfg
	s.shards = shards
	s.stopAt.Store(0)
	s.poissonL = poissonExpOf(cfg.NodeRate)
	// Fault mode keys positions by node id: the liar tables, the CSR
	// recovery scan and the misroute pick all index nodes directly.
	s.tab.Init(cfg.Net, steppers, choose, cfg.Faults == nil)
	s.rings.reset(cfg.Net.NumEdges())

	ranges := topology.Partition(cfg.Net, shards)
	if cap(s.tiles) >= shards {
		s.tiles = s.tiles[:shards]
	} else {
		s.tiles = make([]tile, shards)
	}
	for i := range s.tiles {
		t := &s.tiles[i]
		t.id = int32(i)
		t.sense = 0
		t.sources = t.sources[:0]
		// Scratch capacity is bounded by one record per CURRENT edge (each
		// edge serves at most one packet per slot); release what a bigger
		// previous topology grew, so a near-saturation burst on a big array
		// does not pin that worst case across every later point of a sweep.
		if cap(t.moved) > 2*cfg.Net.NumEdges() {
			t.moved = nil
		}
		if cap(t.movedB) > 2*cfg.Net.NumEdges() {
			t.movedB = nil
		}
		if cap(t.bnd) > 2*cfg.Net.NumEdges() {
			t.bnd = nil
		}
		t.moved = t.moved[:0]
		t.movedB = t.movedB[:0]
		t.bnd = t.bnd[:0]
		t.live, t.liveSum = 0, 0
		t.count, t.sumDelay, t.sumSq = 0, 0, 0
		t.busySum, t.arrivalHits, t.genCount = 0, 0, 0
		t.minD, t.maxD = 0, 0
		t.barWaits = 0
	}

	// Source sets are COPIED into tile-owned buffers, never aliased (a
	// reused engine truncates and refills them on every reset, which would
	// otherwise scribble over the topology's own node list), and split by
	// node range; within a tile they stay ascending, though per-node
	// streams make the order immaterial.
	if ss, isRestricted := cfg.Net.(topology.SourceSet); isRestricted {
		for _, v := range ss.SourceNodes() {
			t := &s.tiles[topology.RangeOf(ranges, v)]
			t.sources = append(t.sources, int32(v))
		}
	} else {
		for i, r := range ranges {
			t := &s.tiles[i]
			for v := r.Lo; v < r.Hi; v++ {
				t.sources = append(t.sources, int32(v))
			}
		}
	}
	for i := range s.tiles {
		t := &s.tiles[i]
		if cap(t.rngs) >= len(t.sources) {
			t.rngs = t.rngs[:len(t.sources)]
		} else {
			t.rngs = make([]xrand.RNG, len(t.sources))
		}
		t.resetSparse(cfg.Net.NumEdges())
	}

	s.lookahead, s.ringDepth = 1, 2
	if shards > 1 {
		numNodes, numEdges := cfg.Net.NumNodes(), cfg.Net.NumEdges()
		s.nodeOwner = grow(s.nodeOwner, numNodes)
		for i, r := range ranges {
			for v := r.Lo; v < r.Hi; v++ {
				s.nodeOwner[v] = int32(i)
			}
		}
		if s.tab.Fast() {
			// Row-band plans on the array fast path: position keys are
			// packed (row, col), so ownership reduces to a row lookup.
			n := cfg.Net.(*topology.Array2D).N()
			s.rowOwner = grow(s.rowOwner, n)
			for r := 0; r < n; r++ {
				s.rowOwner[r] = s.nodeOwner[r*n]
			}
		}
		// One edge scan builds the sender adjacency (which tiles hand off
		// INTO which).
		mark := grow(s.senderMark, shards*shards)
		clear(mark)
		s.senderMark = mark
		for e := 0; e < numEdges; e++ {
			fo := s.nodeOwner[cfg.Net.EdgeFrom(e)]
			if to := s.nodeOwner[cfg.Net.EdgeTo(e)]; to != fo {
				mark[int(fo)*shards+int(to)] = true
			}
		}
		if cap(s.senders) >= shards {
			s.senders = s.senders[:shards]
		} else {
			s.senders = make([][]int32, shards)
		}
		for dst := 0; dst < shards; dst++ {
			lst := s.senders[dst][:0]
			for src := 0; src < shards; src++ {
				if mark[src*shards+dst] {
					lst = append(lst, int32(src))
				}
			}
			s.senders[dst] = lst
		}

		// Lookahead plan: classify every node by its distance to the
		// nearest cross edge. Distance-0 nodes are the only possible
		// handoff targets (the boundary band); the requested batch depth
		// is clamped to the deepest interior plus one — past that every
		// queue push is gate-side and deeper batches only hold memory.
		bd := topology.BoundaryDistance(cfg.Net, ranges)
		k := cfg.Lookahead
		if k <= 0 {
			k = 1
		}
		if k > maxLookahead {
			k = maxLookahead
		}
		maxBD := int32(0)
		for _, d := range bd {
			if d > maxBD && d < topology.BoundaryInf {
				maxBD = d
			}
		}
		if k > int(maxBD)+1 {
			k = int(maxBD) + 1
		}
		s.lookahead, s.ringDepth = k, 2*k
		if s.tab.Fast() {
			n := cfg.Net.(*topology.Array2D).N()
			s.boundaryRow = grow(s.boundaryRow, n)
			for r := 0; r < n; r++ {
				s.boundaryRow[r] = bd[r*n] == 0
			}
		} else {
			s.boundaryNode = grow(s.boundaryNode, numNodes)
			for v := 0; v < numNodes; v++ {
				s.boundaryNode[v] = bd[v] == 0
			}
		}

		cells := shards * shards * s.ringDepth
		if cap(s.handoff) >= cells {
			s.handoff = s.handoff[:cells]
			for i := range s.handoff {
				s.handoff[i] = s.handoff[i][:0]
			}
		} else {
			s.handoff = make([][]movedRec, cells)
		}
		if cap(s.gates) >= shards {
			s.gates = s.gates[:shards]
		} else {
			s.gates = make([]gate, shards)
		}
		for i := range s.gates {
			s.gates[i].init()
		}
		s.bar.init(shards)
	}

	// Fault state needs the ownership tables to distribute entities, so it
	// is built after the tile plan.
	if err := s.resetFaults(cfg); err != nil {
		return err
	}

	// A resume fills the freshly reset rings, streams and arrival wheel
	// from the checkpoint; it must run last, after the tile plan and
	// ownership tables exist. workers then skip their own seeding.
	s.resumed = cfg.Resume != nil
	if s.resumed {
		if err := s.restore(cfg.Resume); err != nil {
			return err
		}
	}
	return nil
}

// worker runs one tile through every slot; a single-tile plan runs it
// inline with no gates or barrier, which IS the serial path.
func (s *Engine) worker(t *tile) {
	total := s.cfg.WarmupSlots + s.cfg.Slots
	// Seed this tile's per-node streams and draw each source's first
	// arrival slot, in parallel with the other tiles (each touches only its
	// own). A resumed run skips seeding entirely: reset restored the
	// mid-sequence streams and refiled the wheel, and reseeding would
	// discard them.
	if !s.resumed {
		s.seedArrivals(t, total)
	}
	if s.flt != nil {
		s.seedFaults(t)
	}
	multi := s.shards > 1
	ctx := s.cfg.Ctx
	k := s.lookahead
	ring := 0
	for slot := 0; slot < total; slot++ {
		measuring := slot >= s.cfg.WarmupSlots
		if s.flt != nil {
			// Phase 0 on the tile's PRIVATE replica of the fault state:
			// every tile computes the same up/down values from the same
			// keyed dwell streams, so no barrier publishes them.
			s.faultPhase(t, slot, measuring)
		}
		s.arrivals(t, slot, measuring, total)
		s.service(t, slot, measuring, ring)
		if multi {
			// This slot's handoffs are complete: publish, then place the
			// interior-bound survivors while upstream tiles may still be
			// serving, and gate only on the tiles that actually feed this
			// one before merging the boundary band.
			s.gates[t.id].publish(int64(slot) + 1)
			s.place(t)
			for _, u := range s.senders[t.id] {
				s.gates[u].await(int64(slot) + 1)
			}
			s.placeBoundary(t, ring)
			if (slot+1)%k == 0 || slot == total-1 {
				// Batch boundary: the only global rendezvous. Cancellation
				// consensus rides it — only tile 0 polls the context, and
				// it publishes the slot it is about to leave at before the
				// barrier every other tile is about to cross; a tile exits
				// only when the published slot is its own (see stopAt for
				// why the slot tag, not a boolean, is what prevents a
				// barrier deadlock). All tiles share k and the horizon, so
				// batch ends — and therefore barrier rounds — line up.
				if t.id == 0 && ctx != nil && ctx.Err() != nil && s.stopAt.Load() == 0 {
					s.stopAt.Store(int64(slot) + 1)
				}
				t.barWaits++
				s.bar.wait(&t.sense)
				if s.stopAt.Load() == int64(slot)+1 {
					return
				}
			}
		} else {
			if ctx != nil && slot&63 == 0 && ctx.Err() != nil {
				s.stopAt.Store(int64(slot) + 1)
				return
			}
			s.place(t)
		}
		if ring++; ring == s.ringDepth {
			ring = 0
		}
	}
}

// pushPlaced pushes one placed packet, maintaining the tile's busy-edge
// worklist (the next edge always belongs to this tile, so the bit flip is
// tile-local). The non-growing push is spelled out
// here rather than through ringSet.push: placement is one of the two
// per-hop hot paths, and the method call plus re-derived slice loads are
// measurable at 10⁹ hop-services per large run.
func (s *Engine) pushPlaced(t *tile, edge int32, ent uint64) {
	size := s.rings.qsize[edge]
	if size == 0 {
		t.act.add(edge)
	}
	buf := s.rings.qbuf[edge]
	if int(size) == len(buf) {
		s.rings.push(edge, ent)
		return
	}
	buf[(s.rings.qhead[edge]+size)&int32(len(buf)-1)] = ent
	s.rings.qsize[edge] = size + 1
}

// place pushes this tile's own interior-bound survivors onto their next
// edges. On a single-tile plan that is every survivor, already in the
// ascending order of the edge scan, and this IS phase 3. On a multi-tile
// plan it is the first half of phase 3: survivors whose next edge leaves
// an interior node (boundary distance ≥ 1) can never share a queue with a
// handoff — only distance-0 nodes receive cross-tile traffic — so they are
// placed before this tile waits on anyone. Within any one queue the list
// is already in ascending served-edge order, and the gated boundary merge
// below never touches an interior queue, so the canonical per-queue order
// is preserved.
func (s *Engine) place(t *tile) {
	for _, m := range t.moved {
		s.pushPlaced(t, m.edge, m.ent)
	}
	t.moved = t.moved[:0]
}

// placeBoundary is the gated half of phase 3: merge this tile's own
// boundary-bound survivors with the handoffs addressed to it, in
// ascending served-edge order. Both inputs are sorted for the same reason
// (ascending owned-edge scans), so a sort of the (typically tiny) incoming
// set plus one two-way merge reconstructs exactly the order a serial scan
// over all edges yields. Served-edge ids are unique within a slot, so the
// order is total. The caller has already awaited every sender's gate for
// this slot.
func (s *Engine) placeBoundary(t *tile, ring int) {
	bnd := t.bnd[:0]
	for _, u := range s.senders[t.id] {
		bnd = append(bnd, s.handoff[(int(u)*s.shards+int(t.id))*s.ringDepth+ring]...)
	}
	if len(bnd) > 1 {
		slices.SortFunc(bnd, func(a, b movedRec) int { return int(a.src) - int(b.src) })
	}
	moved := t.movedB
	i, j := 0, 0
	for i < len(moved) && j < len(bnd) {
		if moved[i].src < bnd[j].src {
			s.pushPlaced(t, moved[i].edge, moved[i].ent)
			i++
		} else {
			s.pushPlaced(t, bnd[j].edge, bnd[j].ent)
			j++
		}
	}
	for ; i < len(moved); i++ {
		s.pushPlaced(t, moved[i].edge, moved[i].ent)
	}
	for ; j < len(bnd); j++ {
		s.pushPlaced(t, bnd[j].edge, bnd[j].ent)
	}
	t.movedB = moved[:0]
	t.bnd = bnd[:0]
}

// collect merges the tiles' integer accumulators into a Result. Addition
// and min/max are associative, so the outcome is independent of tiling.
func (s *Engine) collect() Result {
	var count, liveSum, busySum, arrivalHits, generated, sources int64
	var sum, sumSq uint64
	var minD, maxD int32
	for i := range s.tiles {
		t := &s.tiles[i]
		if t.count > 0 {
			if count == 0 {
				minD, maxD = t.minD, t.maxD
			} else {
				if t.minD < minD {
					minD = t.minD
				}
				if t.maxD > maxD {
					maxD = t.maxD
				}
			}
			count += t.count
			sum += t.sumDelay
			sumSq += t.sumSq
		}
		liveSum += t.liveSum
		busySum += t.busySum
		arrivalHits += t.arrivalHits
		generated += t.genCount
		sources += int64(len(t.sources))
	}
	var res Result
	res.Lookahead = s.lookahead
	for i := range s.tiles {
		res.BarrierWaits += s.tiles[i].barWaits
	}
	res.Delay = stats.WelfordFromInts(count, sum, sumSq, float64(minD), float64(maxD))
	res.MeanDelay = res.Delay.Mean()
	res.MeanN = float64(liveSum) / float64(s.cfg.Slots)
	res.Delivered = count
	res.Generated = generated
	res.MeanActiveEdges = float64(busySum) / float64(s.cfg.Slots)
	if denom := float64(sources) * float64(s.cfg.Slots); denom > 0 {
		res.ArrivalSlotFraction = float64(arrivalHits) / denom
	}
	if s.flt != nil {
		var linkDownSlots, nodeDownSlots int64
		for i := range s.tiles {
			t := &s.tiles[i]
			res.Dropped += t.dropped
			res.DeadEnds += t.deadEnds
			res.DetourHops += t.detourHops
			res.Misrouted += t.misrouted
			linkDownSlots += t.linkDownSlots
			nodeDownSlots += t.nodeDownSlots
		}
		slots := float64(s.cfg.Slots)
		if ne := float64(s.cfg.Net.NumEdges()); ne > 0 {
			res.LinkDownFrac = float64(linkDownSlots) / (ne * slots)
		}
		if nn := float64(s.cfg.Net.NumNodes()); nn > 0 {
			res.NodeDownFrac = float64(nodeDownSlots) / (nn * slots)
		}
	}
	if s.cfg.PerDestStats {
		n := s.cfg.Net.NumNodes()
		res.DestCount = make([]int64, n)
		res.DestDelaySum = make([]uint64, n)
		for i := range s.tiles {
			t := &s.tiles[i]
			for v, c := range t.destCount {
				if c != 0 {
					res.DestCount[v] += c
					res.DestDelaySum[v] += t.destDelay[v]
				}
			}
		}
	}
	return res
}
