package sim

// Fault-layer execution for the event-driven engine: the continuous-time
// mirror of internal/stepsim's slotted fault phase.
//
// A run with Config.Faults set simulates the same model on a degraded
// network: links and nodes flip between up and down under per-entity
// two-state Markov processes (exponential dwells with means MTBF up and
// MTTR down — the continuous-time analog of the slotted engine's
// 1+Geometric dwells), scheduled rectangle outages take node regions down
// for fixed windows, and misbehaving routers delay, misroute or drop the
// packets they forward. The fault-free path is untouched: every hook is
// behind an `e.flt == nil` check, no variate stream changes, and the
// existing goldens pin that.
//
// Where the slotted engine advances every owned entity once per slot, the
// event engine advances entities lazily: an entity's dwell stream is only
// consumed when a query (is this edge usable now? when is it next up?)
// reaches past its pending transition, plus one final sweep to the horizon
// at result time. Because each entity's stream is keyed by its id
// (ReseedSplit(faultSeed^salt, entityID)) and advancing to time t yields
// the same state whether reached in one jump or many, the query pattern
// cannot change any dwell sequence — two fault runs with the same seed are
// bit-identical regardless of what the traffic happens to touch.
//
// Failures never interrupt a service in flight (a store-and-forward hop,
// once started, completes); they defer the *next* service start: the
// departure scheduled when an edge takes a new head packet at time t is
// availAt(edge, t) + service + liarExtra, where availAt is the first time
// >= t at which the link's own process, both endpoint nodes and every
// covering outage window are simultaneously up. Routing decisions (greedy,
// misroute, recovery detours) test usability at decision time, exactly as
// the slotted engine tests the current slot's state.
//
// MeanR/MeanRs (remaining-service integrals) are tracked per packet on
// fault runs: detours and misroutes change a packet's remaining hop count
// after injection, so instead of the fault-free decrement-per-service
// invariant each packet carries the charge it holds in the integrals and
// a reroute re-prices it against its new greedy continuation (see
// departFIFOFault). Degraded sweeps therefore report E[R], E[R_s] and the
// r = E[R]/E[N] column alongside the outcome counters.

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// markovSet is the lazy per-entity state of one family (links or nodes) of
// two-state Markov processes.
type markovSet struct {
	ids  []int32 // failure-prone entity ids, ascending (from the plan)
	idx  []int32 // entity id -> position in ids, or -1 (nil when empty)
	down []bool
	last []float64 // time of the entity's most recent transition
	next []float64 // time of its pending transition
	rng  []xrand.RNG

	failRate   float64 // 1/MTBF: rate out of the up state
	repairRate float64 // 1/MTTR: rate out of the down state

	// downtime accumulates each completed down interval's overlap with the
	// measurement window; still-open intervals are closed by finish. wins,
	// when non-nil, holds each entity's merged scheduled-outage windows:
	// time a node spends Markov-down inside a window covering it is already
	// charged by the outage term, so integrate subtracts it here and the
	// total is the exact per-entity UNION of the two down processes.
	downtime float64
	wins     [][]ivl
}

// ivl is a half-open time interval [a, b).
type ivl struct {
	a, b float64
}

// mergeIvls sorts intervals by start and coalesces overlaps in place.
func mergeIvls(ws []ivl) []ivl {
	sort.Slice(ws, func(i, j int) bool { return ws[i].a < ws[j].a })
	out := ws[:1]
	for _, w := range ws[1:] {
		if last := &out[len(out)-1]; w.a <= last.b {
			if w.b > last.b {
				last.b = w.b
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}

// integrate charges entity i's down interval [a, b), clipped to the
// measurement window, minus any part already covered by the entity's
// scheduled outage windows.
func (m *markovSet) integrate(i int, a, b, lo, hi float64) {
	d := overlapWin(a, b, lo, hi)
	if m.wins != nil {
		for _, w := range m.wins[i] {
			wa, wb := w.a, w.b
			if wa < a {
				wa = a
			}
			if wb > b {
				wb = b
			}
			d -= overlapWin(wa, wb, lo, hi)
		}
	}
	m.downtime += d
}

func (m *markovSet) seed(ids, idx []int32, salt, seed uint64, mtbf, mttr float64) {
	m.ids, m.idx = ids, idx
	if len(ids) == 0 {
		return
	}
	m.failRate, m.repairRate = 1/mtbf, 1/mttr
	m.down = make([]bool, len(ids))
	m.last = make([]float64, len(ids))
	m.next = make([]float64, len(ids))
	m.rng = make([]xrand.RNG, len(ids))
	for i, id := range ids {
		r := &m.rng[i]
		r.ReseedSplit(seed^salt, uint64(id))
		m.next[i] = r.Exp(m.failRate)
	}
}

// advance consumes entity i's dwell stream up to time t, integrating each
// down interval completed on the way into downtime (clipped to the measure
// window [mStart, mEnd]).
func (m *markovSet) advance(i int, t, mStart, mEnd float64) {
	for m.next[i] <= t {
		at := m.next[i]
		if m.down[i] {
			m.integrate(i, m.last[i], at, mStart, mEnd)
			m.down[i] = false
			m.next[i] = at + m.rng[i].Exp(m.failRate)
		} else {
			m.down[i] = true
			m.next[i] = at + m.rng[i].Exp(m.repairRate)
		}
		m.last[i] = at
	}
}

// upAfter returns the first time >= t at which entity id's own process is
// up (t itself when the id is not failure-prone or already up).
func (m *markovSet) upAfter(id int32, t, mStart, mEnd float64) float64 {
	if m.idx == nil {
		return t
	}
	i := m.idx[id]
	if i < 0 {
		return t
	}
	m.advance(int(i), t, mStart, mEnd)
	if m.down[i] {
		return m.next[i]
	}
	return t
}

// finish advances every entity to the horizon and closes still-open down
// intervals, completing the downtime integral.
func (m *markovSet) finish(end, mStart, mEnd float64) {
	for i := range m.ids {
		m.advance(i, end, mStart, mEnd)
		if m.down[i] {
			m.integrate(i, m.last[i], end, mStart, mEnd)
		}
	}
}

// outageWin is one scheduled outage: its window and a node-membership
// table over the whole network.
type outageWin struct {
	start, end float64
	member     []bool
}

// desFaults is the fault state of one event-driven run.
type desFaults struct {
	plan *fault.Plan
	seed uint64

	// mStart/mEnd bound the measurement window for downtime integration.
	mStart, mEnd float64

	links markovSet
	nodes markovSet
	outs  []outageWin

	// edgeExtra[e] is the extra service time edge e's tail node imposes as
	// a delay liar (nil when no delay liars). transit[e] counts service
	// completions on e that reached a liar node, keying the per-packet
	// adversary coins — the continuous-time stand-in for the slotted
	// engine's (edge, slot) pair.
	edgeExtra []float64
	transit   []uint64

	// Measured outcome counters (see Result).
	dropped, deadEnds, detourHops, misrouted int64
}

// newDESFaults builds the run's fault state. Fault runs pay these setup
// allocations; the fault-free path allocates nothing.
func newDESFaults(p *fault.Plan, start, end float64) *desFaults {
	f := &desFaults{plan: p, seed: p.Spec.Seed, mStart: start, mEnd: end}
	f.links.seed(p.FaultEdges, p.LinkFaultIdx, fault.SaltLinkDwell, f.seed, p.Spec.LinkMTBF, p.Spec.LinkMTTR)
	f.nodes.seed(p.FaultNodes, p.NodeFaultIdx, fault.SaltNodeDwell, f.seed, p.Spec.NodeMTBF, p.Spec.NodeMTTR)
	for i, nodes := range p.OutageNodes {
		o := p.Spec.Outages[i]
		if o.Duration <= 0 {
			continue
		}
		w := outageWin{start: o.Start, end: o.Start + o.Duration,
			member: make([]bool, p.NumNodes)}
		for _, v := range nodes {
			w.member[v] = true
		}
		f.outs = append(f.outs, w)
	}
	if len(f.outs) > 0 {
		// Hand each Markov-prone node its merged outage windows, so the
		// Markov integrator can subtract the already-charged overlap (see
		// markovSet.integrate — this is what makes the downtime a union,
		// not a sum, when a node is Markov-down inside an outage).
		wins := make([][]ivl, len(p.FaultNodes))
		any := false
		for i, v := range p.FaultNodes {
			var ws []ivl
			for j := range f.outs {
				if f.outs[j].member[v] {
					ws = append(ws, ivl{a: f.outs[j].start, b: f.outs[j].end})
				}
			}
			if len(ws) > 1 {
				ws = mergeIvls(ws)
			}
			if ws != nil {
				wins[i] = ws
				any = true
			}
		}
		if any {
			f.nodes.wins = wins
		}
	}
	if p.HasLiars() {
		f.transit = make([]uint64, p.NumEdges)
		for _, v := range p.Liars {
			if p.LiarMode[v] == fault.LiarDelay {
				f.edgeExtra = make([]float64, p.NumEdges)
				for e := 0; e < p.NumEdges; e++ {
					if from := p.From[e]; p.LiarMode[from] == fault.LiarDelay {
						f.edgeExtra[e] = float64(p.LiarDelay[from])
					}
				}
				break
			}
		}
	}
	return f
}

// nodeUpAfter returns the first time >= t at which node v is usable: its
// own Markov process up and no covering outage window active. Each
// iteration strictly advances t past an exponential dwell or a fixed
// window, so the fixed point terminates.
func (f *desFaults) nodeUpAfter(v int32, t float64) float64 {
	for {
		t2 := f.nodes.upAfter(v, t, f.mStart, f.mEnd)
		for changed := true; changed; {
			changed = false
			for i := range f.outs {
				o := &f.outs[i]
				if o.member[v] && t2 >= o.start && t2 < o.end {
					t2 = o.end
					changed = true
				}
			}
		}
		if t2 == t {
			return t
		}
		t = t2
	}
}

// availAt returns the first time >= t at which edge is fully usable: its
// link process and both endpoint nodes up simultaneously.
func (f *desFaults) availAt(edge int, t float64) float64 {
	p := f.plan
	for {
		t2 := f.links.upAfter(int32(edge), t, f.mStart, f.mEnd)
		t2 = f.nodeUpAfter(p.From[edge], t2)
		t2 = f.nodeUpAfter(p.To[edge], t2)
		if t2 == t {
			return t
		}
		t = t2
	}
}

// usable reports whether edge can be routed onto at time t. A packet
// routed onto a currently-usable edge that later goes down simply waits
// (availAt defers the service start), matching the slotted engine's
// queue-holding behavior.
func (f *desFaults) usable(edge int32, t float64) bool {
	return f.availAt(int(edge), t) == t
}

// nodeUp reports whether node v is usable at time t (the source-drop
// check in generate).
func (f *desFaults) nodeUp(v int32, t float64) bool {
	return f.nodeUpAfter(v, t) == t
}

// finish closes the downtime integrals at the horizon. Outage downtime is
// added analytically, but per NODE over its MERGED covering windows —
// overlapping outages charge once — and the Markov integrator has already
// subtracted any Markov-down time falling inside a scheduled window, so
// the node downtime is the exact per-entity union of both down processes.
func (f *desFaults) finish(end float64) {
	f.links.finish(end, f.mStart, f.mEnd)
	f.nodes.finish(end, f.mStart, f.mEnd)
	if len(f.outs) == 0 {
		return
	}
	var buf []ivl
	for v := 0; v < f.plan.NumNodes; v++ {
		buf = buf[:0]
		for i := range f.outs {
			if f.outs[i].member[v] {
				buf = append(buf, ivl{a: f.outs[i].start, b: f.outs[i].end})
			}
		}
		if len(buf) == 0 {
			continue
		}
		for _, w := range mergeIvls(buf) {
			f.nodes.downtime += overlapWin(w.a, w.b, f.mStart, f.mEnd)
		}
	}
}

// overlapWin returns |[a,b) ∩ [lo,hi)|.
func overlapWin(a, b, lo, hi float64) float64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b > a {
		return b - a
	}
	return 0
}

// departAtFault returns the completion time of the next service started on
// edge at time t: service begins when the edge is next fully up and takes
// the sampled service time plus the tail node's delay-liar surcharge.
func (e *engine) departAtFault(edge int, t float64) float64 {
	at := e.flt.availAt(edge, t) + e.serviceTime(edge)
	if x := e.flt.edgeExtra; x != nil {
		at += x[edge]
	}
	return at
}

// enqueueFault places packet h at a specific edge's FIFO station (misroute
// and detour targets are not the greedy next hop, so the caller names the
// edge) with a fault-aware departure time.
func (e *engine) enqueueFault(t float64, h int32, edge int) {
	if e.measuring {
		e.edgeCount[edge]++
	}
	if e.fifo[edge].Arrive(h) {
		e.tree.ScheduleIdle(edge, e.departAtFault(edge, t), evPack(evDeparture, edge))
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
}

// settleR removes packet p's outstanding remaining-service charge (it was
// delivered or dropped) and updates the integrals at time t.
func (e *engine) settleR(t float64, p *packet) {
	e.rNow -= float64(p.rem)
	if e.cfg.Saturated != nil {
		e.rsNow -= float64(p.rs)
	}
	if e.measuring {
		e.rInt.Set(t, e.rNow)
		if e.cfg.Saturated != nil {
			e.rsInt.Set(t, e.rsNow)
		}
	}
}

// repriceR re-charges packet p for a non-greedy forward onto edge e2 (a
// misroute or detour): one service on e2 plus the greedy continuation from
// its head. The greedy forward never calls this — its new charge is the
// old one minus the completed service, handled inline in departFIFOFault.
func (e *engine) repriceR(t float64, p *packet, e2 int) {
	head, key, choice := e.tab.EdgeKey[e2], e.tab.NodeKey[p.dst], uint32(p.choice)
	rem := int32(1 + e.tab.Hops(head, key, choice))
	e.rNow += float64(rem - p.rem)
	p.rem = rem
	if e.cfg.Saturated != nil {
		rs := int32(e.countSaturatedWalk(head, key, choice))
		if e.cfg.Saturated[e2] {
			rs++
		}
		e.rsNow += float64(rs - p.rs)
		p.rs = rs
	}
	if e.measuring {
		e.rInt.Set(t, e.rNow)
		if e.cfg.Saturated != nil {
			e.rsInt.Set(t, e.rsNow)
		}
	}
}

// departFIFOFault is departFIFO's fault-mode twin: the same fused
// complete-advance-enqueue frame, plus the adversary decision point and
// the greedy-with-recovery policy at the node the packet just reached.
// The policy is routing.Recover's, inlined over the plan's CSR adjacency
// exactly as the slotted engine's fltAdvance inlines it, so the two
// engines route identically around the same degraded state.
//
// Remaining-service tracking is per packet here, not decrement-per-service
// as on the fault-free path: each packet carries the charge it holds in
// rNow/rsNow (p.rem, p.rs), the common greedy forward pays the completed
// service down exactly like departFIFO, and the rare reroutes — misroute,
// detour — re-price the packet against its new greedy continuation. E[R_s]
// on a degraded network therefore reads "remaining saturated services
// along the packet's current greedy continuation", the natural extension
// of the fault-free definition.
func (e *engine) departFIFOFault(t float64, edge int) {
	f := e.flt
	finished, _, hasNext := e.fifo[edge].Complete()
	if hasNext {
		e.tree.Schedule(edge, e.departAtFault(edge, t), evPack(evDeparture, edge))
	} else {
		e.tree.Clear(edge)
	}
	if e.edgeOcc != nil {
		e.noteOccupancy(t, edge)
	}
	p := e.arena.get(finished)
	p.cur = e.edgeTo[edge]
	if p.cur == p.dst {
		e.bumpN(t, -1)
		e.settleR(t, p)
		e.recordDelivery(t, p.genTime, p.measured)
		e.arena.release(finished)
		return
	}
	pl := f.plan
	pos := p.cur
	m := p.measured && e.measuring
	if mode := pl.LiarMode[pos]; mode != fault.LiarNone {
		// One coin per forwarding decision at a liar: the (edge, transit
		// count) pair identifies the service event deterministically.
		k := f.transit[edge]
		f.transit[edge]++
		switch mode {
		case fault.LiarDrop:
			if fault.Coin(f.seed, fault.SaltDrop, uint64(edge), k, pl.LiarProb[pos]) {
				e.bumpN(t, -1)
				e.settleR(t, p)
				if m {
					f.dropped++
				}
				e.arena.release(finished)
				return
			}
		case fault.LiarMisroute:
			if fault.Coin(f.seed, fault.SaltMisroute, uint64(edge), k, pl.LiarProb[pos]) {
				if e2 := pl.MisrouteEdge(f.seed, int32(edge), k); e2 >= 0 && f.usable(e2, t) {
					if m {
						f.misrouted++
					}
					e.repriceR(t, p, int(e2))
					e.enqueueFault(t, finished, int(e2))
					return
				}
			}
		}
	}
	key, choice := e.tab.NodeKey[p.dst], uint32(p.choice)
	next, _ := e.tab.Next(e.tab.NodeKey[pos], key, choice)
	if f.usable(next, t) {
		// Greedy forward: the completed service is paid down and the rest
		// of the charge carries over, exactly departFIFO's accounting.
		p.rem--
		e.rNow--
		if e.cfg.Saturated != nil && e.cfg.Saturated[edge] {
			p.rs--
			e.rsNow--
		}
		if e.measuring {
			e.rInt.Set(t, e.rNow)
			if e.cfg.Saturated != nil {
				e.rsInt.Set(t, e.rsNow)
			}
		}
		e.enqueueFault(t, finished, int(next))
		return
	}
	// Greedy next hop is down: detour via any live out-edge that strictly
	// reduces the remaining hop count (ascending edge ids, so the choice
	// is a pure function of position, destination and the up/down state).
	rem := e.tab.Hops(e.tab.NodeKey[pos], key, choice)
	lo, hi := pl.OutStart[pos], pl.OutStart[pos+1]
	for _, e2 := range pl.OutEdges[lo:hi] {
		if e2 == next || !f.usable(e2, t) {
			continue
		}
		if e.tab.Hops(e.tab.NodeKey[pl.To[e2]], key, choice) < rem {
			if m {
				f.detourHops++
			}
			e.repriceR(t, p, int(e2))
			e.enqueueFault(t, finished, int(e2))
			return
		}
	}
	// Dead end: no live improving neighbor.
	e.bumpN(t, -1)
	e.settleR(t, p)
	if m {
		f.dropped++
		f.deadEnds++
	}
	e.arena.release(finished)
}
