package stepsim

// Fault-layer execution for the sharded slotted engine.
//
// A run with Config.Faults set simulates the same slotted model on a
// degraded network: links and nodes flip between up and down under
// per-entity two-state Markov processes (discrete dwells, 1 + Geometric),
// scheduled rectangle outages take whole node regions down for a window of
// slots, and misbehaving routers delay, misroute or drop the packets they
// forward. The fault-free path is untouched: every hook below is behind a
// `flt != nil` check, no variate stream changes, and the goldens pin that.
//
// Each slot gains a phase 0 before arrivals: every tile advances EVERY
// Markov process and outage window on its own private replica of the
// up/down arrays. Replication is what lets degraded runs ride the
// lookahead pipeline (shard.go): the dwell streams are keyed by entity id
// (ReseedSplit(faultSeed^salt, entityID)), so every tile computes
// bit-identical state with no cross-tile writes at all — where the
// pre-lookahead engine paid a second, fault-only barrier per slot to
// publish a shared array, the replicated phase 0 costs zero barriers and
// a per-tile O(entities) sweep (entity sets are a few percent of the
// topology, and the arrays are E+N bytes per tile). Downtime integrals
// still count every entity exactly once: a tile charges its counters only
// for the entities it OWNS (the tile of an edge's tail node, or of the
// node itself), even though it advances all of them.
//
// Shard invariance holds by the same rules as the fault-free engine:
// per-entity keyed dwell streams, replicas that are pure functions of
// them, and exact-integer owned-only accumulators. Per-packet adversary
// coins hash (seed, edge, slot) — an edge serves at most one packet per
// slot, so the pair identifies the service event regardless of tiling or
// of how far the lookahead pipeline has let tiles skew.
//
// Fault mode disables the packed-coordinate fast path (Engine.reset
// initializes its routing.Table with allowFast = false): position keys
// are then node ids, which the liar tables, the CSR recovery scan and
// MisrouteEdge all index directly. Fault-enabled runs have no goldens to
// preserve, so the switch costs nothing observable.

import (
	"fmt"

	"repro/internal/fault"
)

// outageEvt is one scheduled outage: the nodes go down at slot start and
// come back at slot end. Read-only after reset; every tile applies it to
// its own replica.
type outageEvt struct {
	start, end int64
	nodes      []int32
}

// stepFaults is the engine-wide fault state of one run: the bound plan,
// per-slot transition probabilities, the preprocessed outage schedule, and
// the delay-liar hold state. The up/down arrays live per tile (replicas);
// hold lives here because edge e's hold is touched only by e's owning
// tile's service scan, so sharing it needs no synchronization.
type stepFaults struct {
	plan *fault.Plan
	seed uint64

	// Per-slot transition probabilities (1/MTBF, 1/MTTR) feeding the
	// geometric dwells.
	pLinkFail, pLinkRepair float64
	pNodeFail, pNodeRepair float64

	// outages is the slot-windowed outage schedule with sub-slot windows
	// already dropped.
	outages []outageEvt

	// hold[e] is the release slot of a delay-liar hold on edge e's head
	// packet (0 = none); edgeExtra[e] is the extra delay e's tail node
	// imposes when it is a delay liar. Both nil when no delay liars.
	hold      []int64
	edgeExtra []int32
}

// owns reports whether tile t charges the downtime integral for node v
// (and for the edges whose tail is v).
func (s *Engine) owns(t *tile, v int32) bool {
	return s.shards == 1 || s.nodeOwner[v] == t.id
}

// resetFaults clears the tiles' fault accumulators and, when cfg.Faults is
// set, builds the run's fault state and sizes every tile's replica. Runs
// after the tile plan and ownership tables exist.
func (s *Engine) resetFaults(cfg Config) error {
	numNodes := cfg.Net.NumNodes()
	for i := range s.tiles {
		t := &s.tiles[i]
		t.downLinks, t.downNodes = 0, 0
		t.linkDownSlots, t.nodeDownSlots = 0, 0
		t.dropped, t.deadEnds, t.detourHops, t.misrouted = 0, 0, 0, 0
		if cfg.PerDestStats {
			t.destCount = grow(t.destCount, numNodes)
			t.destDelay = grow(t.destDelay, numNodes)
			clear(t.destCount)
			clear(t.destDelay)
		} else {
			// The delivery hook keys on destCount != nil, so stale arrays
			// from a previous per-dest run must not linger.
			t.destCount, t.destDelay = nil, nil
		}
	}
	if cfg.Faults == nil {
		s.flt = nil
		return nil
	}
	if cfg.Resume != nil || cfg.Capture {
		return fmt.Errorf("stepsim: fault processes are not snapshottable; Faults cannot combine with Resume or Capture")
	}
	p := cfg.Faults
	if p.NumNodes != numNodes || p.NumEdges != cfg.Net.NumEdges() {
		return fmt.Errorf("stepsim: fault plan bound to a %d-node/%d-edge network; config's %s has %d/%d",
			p.NumNodes, p.NumEdges, cfg.Net.Name(), numNodes, cfg.Net.NumEdges())
	}
	if s.flt == nil {
		s.flt = &stepFaults{}
	}
	f := s.flt
	f.plan = p
	f.seed = p.Spec.Seed
	f.pLinkFail, f.pLinkRepair = 0, 0
	if p.Spec.LinkMTBF > 0 {
		f.pLinkFail, f.pLinkRepair = 1/p.Spec.LinkMTBF, 1/p.Spec.LinkMTTR
	}
	f.pNodeFail, f.pNodeRepair = 0, 0
	if p.Spec.NodeMTBF > 0 {
		f.pNodeFail, f.pNodeRepair = 1/p.Spec.NodeMTBF, 1/p.Spec.NodeMTTR
	}

	hasDelay := false
	for _, v := range p.Liars {
		if p.LiarMode[v] == fault.LiarDelay {
			hasDelay = true
			break
		}
	}
	if hasDelay {
		f.edgeExtra = grow(f.edgeExtra, p.NumEdges)
		f.hold = grow(f.hold, p.NumEdges)
		clear(f.edgeExtra)
		clear(f.hold)
		for e := 0; e < p.NumEdges; e++ {
			if from := p.From[e]; p.LiarMode[from] == fault.LiarDelay {
				f.edgeExtra[e] = p.LiarDelay[from]
			}
		}
	} else {
		f.edgeExtra, f.hold = nil, nil
	}

	f.outages = f.outages[:0]
	for i, nodes := range p.OutageNodes {
		o := p.Spec.Outages[i]
		start := int64(o.Start)
		end := int64(o.Start + o.Duration)
		if end <= start {
			// Sub-slot outage: invisible in slotted time.
			continue
		}
		f.outages = append(f.outages, outageEvt{start: start, end: end, nodes: nodes})
	}

	// Size every tile's replica: dwell streams and next-transition slots
	// aligned with the plan's entity lists, plus the private up/down
	// arrays.
	for i := range s.tiles {
		t := &s.tiles[i]
		t.fltLinkRng = grow(t.fltLinkRng, len(p.FaultEdges))
		t.fltLinkNext = grow(t.fltLinkNext, len(p.FaultEdges))
		t.fltNodeRng = grow(t.fltNodeRng, len(p.FaultNodes))
		t.fltNodeNext = grow(t.fltNodeNext, len(p.FaultNodes))
		t.fltLinkDown = grow(t.fltLinkDown, p.NumEdges)
		t.fltNodeDown = grow(t.fltNodeDown, p.NumNodes)
		clear(t.fltLinkDown)
		clear(t.fltNodeDown)
	}
	return nil
}

// seedFaults seeds one tile's replica of the per-entity dwell streams and
// draws each entity's first failure slot. Runs in the worker alongside the
// per-node arrival stream seeding: the streams are keyed by entity id, so
// every tile's replica draws the identical dwell sequence.
func (s *Engine) seedFaults(t *tile) {
	f := s.flt
	for i, e := range f.plan.FaultEdges {
		rng := &t.fltLinkRng[i]
		rng.ReseedSplit(f.seed^fault.SaltLinkDwell, uint64(e))
		t.fltLinkNext[i] = 1 + int64(rng.Geometric(f.pLinkFail))
	}
	for i, v := range f.plan.FaultNodes {
		rng := &t.fltNodeRng[i]
		rng.ReseedSplit(f.seed^fault.SaltNodeDwell, uint64(v))
		t.fltNodeNext[i] = 1 + int64(rng.Geometric(f.pNodeFail))
	}
}

// faultPhase is phase 0 for one tile: advance the replica of every Markov
// process past this slot, apply outage starts/ends scheduled for it, and
// (while measuring) integrate the tile's OWNED down-entity counts into the
// downtime accumulators. All writes go to this tile's private arrays.
func (s *Engine) faultPhase(t *tile, slot int, measuring bool) {
	f := s.flt
	sl := int64(slot)
	for i, e := range f.plan.FaultEdges {
		for t.fltLinkNext[i] <= sl {
			rng := &t.fltLinkRng[i]
			if t.fltLinkDown[e] {
				t.fltLinkDown[e] = false
				if s.owns(t, f.plan.From[e]) {
					t.downLinks--
				}
				t.fltLinkNext[i] += 1 + int64(rng.Geometric(f.pLinkFail))
			} else {
				t.fltLinkDown[e] = true
				if s.owns(t, f.plan.From[e]) {
					t.downLinks++
				}
				t.fltLinkNext[i] += 1 + int64(rng.Geometric(f.pLinkRepair))
			}
		}
	}
	for i, v := range f.plan.FaultNodes {
		for t.fltNodeNext[i] <= sl {
			rng := &t.fltNodeRng[i]
			if t.fltNodeDown[v]&1 != 0 {
				t.fltNodeDown[v] &^= 1
				if t.fltNodeDown[v] == 0 && s.owns(t, v) {
					t.downNodes--
				}
				t.fltNodeNext[i] += 1 + int64(rng.Geometric(f.pNodeFail))
			} else {
				if t.fltNodeDown[v] == 0 && s.owns(t, v) {
					t.downNodes++
				}
				t.fltNodeDown[v] |= 1
				t.fltNodeNext[i] += 1 + int64(rng.Geometric(f.pNodeRepair))
			}
		}
	}
	for i := range f.outages {
		o := &f.outages[i]
		if sl == o.start {
			for _, v := range o.nodes {
				if t.fltNodeDown[v] == 0 && s.owns(t, v) {
					t.downNodes++
				}
				t.fltNodeDown[v] += 2
			}
		}
		if sl == o.end {
			for _, v := range o.nodes {
				t.fltNodeDown[v] -= 2
				if t.fltNodeDown[v] == 0 && s.owns(t, v) {
					t.downNodes--
				}
			}
		}
	}
	if measuring {
		t.linkDownSlots += t.downLinks
		t.nodeDownSlots += t.downNodes
	}
}

// canUse reports whether an edge can carry a packet this slot: the link's
// own process and both endpoints are up, per this tile's replica.
func (s *Engine) canUse(t *tile, e int32) bool {
	f := s.flt
	return !t.fltLinkDown[e] && t.fltNodeDown[f.plan.From[e]] == 0 && t.fltNodeDown[f.plan.To[e]] == 0
}

// canServe decides whether edge serves its head packet this slot. A
// blocked edge (link or endpoint down) holds its whole queue. A delay
// liar's out-edge holds each head packet for exactly edgeExtra extra
// slots: the first service opportunity posts the hold, the head is served
// when the hold expires (and any down time extends it further, as a real
// slow router's would).
func (s *Engine) canServe(t *tile, edge int32, slot int) bool {
	f := s.flt
	if t.fltLinkDown[edge] || t.fltNodeDown[f.plan.From[edge]] != 0 || t.fltNodeDown[f.plan.To[edge]] != 0 {
		return false
	}
	if f.hold != nil {
		if h := f.hold[edge]; h != 0 {
			if int64(slot) < h {
				return false
			}
			f.hold[edge] = 0
		} else if d := f.edgeExtra[edge]; d > 0 {
			f.hold[edge] = int64(slot) + int64(d)
			return false
		}
	}
	return true
}

// fltAdvance is the advance-point hook: the packet just served on edge now
// stands at pos (a node id — fault mode disables the packed-key fast path)
// with pos != key. The node it reached may misbehave (drop or misroute the
// packet it is about to forward), and the greedy next hop may be down, in
// which case the recovery scan looks for a live strictly-improving
// out-edge (routing.Recover's policy, inlined over the plan's CSR
// adjacency); with none, the packet dead-ends and is dropped. Returns the
// chosen next edge, or dropped = true when the packet left the system.
func (s *Engine) fltAdvance(t *tile, edge int32, slot int, pos, key int32, choice uint32, ent uint64, measuring bool) (int32, bool) {
	f := s.flt
	p := f.plan
	m := ent&entMeasured != 0 && measuring
	switch p.LiarMode[pos] {
	case fault.LiarDrop:
		if fault.Coin(f.seed, fault.SaltDrop, uint64(edge), uint64(slot), p.LiarProb[pos]) {
			t.live--
			if m {
				t.dropped++
			}
			return -1, true
		}
	case fault.LiarMisroute:
		if fault.Coin(f.seed, fault.SaltMisroute, uint64(edge), uint64(slot), p.LiarProb[pos]) {
			if e2 := p.MisrouteEdge(f.seed, edge, uint64(slot)); e2 >= 0 && s.canUse(t, e2) {
				if m {
					t.misrouted++
				}
				return e2, false
			}
		}
	}
	next, _ := s.tab.Next(pos, key, choice)
	if s.canUse(t, next) {
		return next, false
	}
	// Greedy next hop is down: detour via any live out-edge that strictly
	// reduces the remaining hop count (ascending edge ids, so the choice is
	// a pure function of position, destination and the up/down state).
	st := s.tab.Steppers[choice]
	rem := st.RemainingHops(int(pos), int(key))
	lo, hi := p.OutStart[pos], p.OutStart[pos+1]
	for _, e2 := range p.OutEdges[lo:hi] {
		if e2 == next || !s.canUse(t, e2) {
			continue
		}
		if st.RemainingHops(int(p.To[e2]), int(key)) < rem {
			if m {
				t.detourHops++
			}
			return e2, false
		}
	}
	// Dead end: no live improving neighbor.
	t.live--
	if m {
		t.dropped++
		t.deadEnds++
	}
	return -1, true
}
