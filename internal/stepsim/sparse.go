package stepsim

// Sparse slotted execution: per-slot cost proportional to traffic, not
// topology size.
//
// A dense body would pay full price for an idle array: one Poisson batch
// drawn per source per slot (O(N) RNG calls, almost all returning zero
// below saturation) and a scan over every edge's queue length (O(E)
// loads, almost all zero at low load — ~4.2 M per slot on a 1024×1024
// array). The engine's two phases remove both topology-sized terms:
//
//   - Skip-ahead arrivals. A source's per-slot batch sequence is i.i.d.
//     Poisson(λ), so the gap to its next NONZERO batch is geometric with
//     success probability 1−e^(−λ), sampled in one uniform
//     (xrand.PoissonSkip), and the batch on that slot is zero-truncated
//     Poisson (xrand.PoissonPositive). Each source therefore draws only
//     on its arrival slots: [initial skip], then per arrival slot
//     [batch, per-packet (dst, coin), next skip] — a canonical per-node
//     order on its keyed stream xrand.ReseedSplit(Seed, nodeID), so a
//     node's variates depend only on (Seed, nodeID, its own history) and
//     shard-count invariance holds by construction. Due sources are found
//     without scanning the node set via a per-tile timing wheel: each
//     source sits in the bucket chain for (nextSlot & wheelMask) — an
//     intrusive linked list (one bucket head per wheel slot, one link
//     word per source), so filing and refiling never allocate. A slot
//     detaches one chain, processes the entries whose nextSlot matches,
//     and refiles the rest into the same bucket (entries a full wheel
//     revolution away are touched once per revolution — N/wheelSlots
//     spurious touches per slot). Processing order within a slot is
//     immaterial: a first hop always leaves its own source, so no two
//     sources push onto the same queue in phase 1, and all accumulators
//     are associative integers.
//
//   - Active-edge worklists. Each tile tracks its nonempty owned edges in
//     a two-level bitmap (activeSet): bit e of l1 set iff queue e is
//     nonempty, bit w of l2 set iff l1 word w is nonzero. Phase 2
//     iterates set bits in ascending order — exactly the busy edges, in
//     exactly the ascending-edge order the determinism contract's
//     canonical placement merge requires — at O(E/4096 + busy) word
//     reads per slot, so an idle megabyte of queue lengths costs a few
//     hundred summary words instead of a million loads. Membership is
//     maintained at the only transitions that change it: a push onto an
//     empty queue sets the bit, a pop that empties one clears it. Every
//     push and pop of an edge happens on its owning tile (arrivals leave
//     the tile's own sources; placement records are routed to the next
//     edge's owner), so the per-tile bitmaps need no synchronization
//     beyond the existing slot barrier.
//
// BENCH.md's "Sparse engine" tables measured this body against the dense
// one it replaced: never slower, 1.05–1.2× faster even at ρ=0.9.

import (
	"math/bits"

	"repro/internal/routing"
)

const (
	// wheelSlots is the arrival timing wheel size (a power of two).
	// Sources whose next arrival lies a revolution or more ahead are
	// touched once per revolution, so the spurious-touch rate is
	// N/wheelSlots per slot — 0.1% of one draw per source per slot.
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1

	// neverSlot parks a zero-rate source: past any horizon, and far
	// enough from int64 overflow that slot arithmetic stays safe.
	neverSlot = int64(1) << 62
)

// activeSet tracks the nonempty edges a tile owns as a two-level bitmap.
// Iterating set bits ascending visits exactly the busy edges in ascending
// edge order — the canonical service order — and the l2 summary makes an
// idle region cost one word test per 4096 edges. A tile's set holds only
// the edges it owns, so tiles iterate their full [0, numEdges) range
// without masking and never observe each other's bits.
type activeSet struct {
	l1 []uint64 // bit e&63 of word e>>6: queue e nonempty
	l2 []uint64 // bit w&63 of word w>>6: l1[w] nonzero
}

// reset sizes and clears the bitmap for numEdges edges, reusing capacity.
func (a *activeSet) reset(numEdges int) {
	w1 := (numEdges + 63) >> 6
	a.l1 = grow(a.l1, w1)
	a.l2 = grow(a.l2, (w1+63)>>6)
	clear(a.l1)
	clear(a.l2)
}

// add marks edge e busy. Callers invoke it only on the empty→nonempty
// transition, but it is idempotent regardless.
func (a *activeSet) add(e int32) {
	w := e >> 6
	a.l1[w] |= 1 << (uint32(e) & 63)
	a.l2[w>>6] |= 1 << (uint32(w) & 63)
}

// remove marks edge e idle (on the nonempty→empty transition).
func (a *activeSet) remove(e int32) {
	w := e >> 6
	if a.l1[w] &^= 1 << (uint32(e) & 63); a.l1[w] == 0 {
		a.l2[w>>6] &^= 1 << (uint32(w) & 63)
	}
}

// resetSparse prepares one tile's sparse-execution state: the active-edge
// bitmap and the arrival wheel, both reused across runs.
func (t *tile) resetSparse(numEdges int) {
	t.act.reset(numEdges)
	t.wheelHead = grow(t.wheelHead, wheelSlots)
	for i := range t.wheelHead {
		t.wheelHead[i] = -1
	}
	t.wheelLink = grow(t.wheelLink, len(t.sources))
	t.next = grow(t.next, len(t.sources))
}

// file inserts source index i into the wheel chain for slot nxt.
func (t *tile) file(i int32, nxt int64) {
	b := nxt & wheelMask
	t.wheelLink[i] = t.wheelHead[b]
	t.wheelHead[b] = i
}

// seedArrivals seeds the tile's per-node streams and draws each source's
// first arrival slot, filing it into the wheel. Sources whose first
// arrival falls past the horizon (and zero-rate sources) are parked
// outside the wheel entirely.
func (s *Engine) seedArrivals(t *tile, total int) {
	mean := s.cfg.NodeRate
	for i := range t.sources {
		rng := &t.rngs[i]
		rng.ReseedSplit(s.cfg.Seed, uint64(t.sources[i]))
		if mean <= 0 {
			t.next[i] = neverSlot
			continue
		}
		nxt := int64(rng.PoissonSkip(mean))
		t.next[i] = nxt
		if nxt < int64(total) {
			t.file(int32(i), nxt)
		}
	}
}

// arrivals is phase 1 for one tile: detach this slot's wheel chain,
// generate for the sources whose arrival slot is now, and refile each by
// its freshly drawn skip (early entries — a wheel revolution or more
// ahead — go straight back into the same bucket). The batch is
// PoissonPositive (the slot was selected BECAUSE it is nonzero); each
// packet then draws its destination and stepper coin from the source's
// stream and is pushed onto the source's own out-edge (a first hop always
// leaves the source, so arrivals never cross tiles), flipping the edge's
// worklist bit when the queue was empty. It ends with the slot's N
// sample: summed over tiles, generated-minus-delivered counters reproduce
// the global in-system count at the canonical sample point.
func (s *Engine) arrivals(t *tile, slot int, measuring bool, total int) {
	mean := s.cfg.NodeRate
	poissonL := s.poissonL
	dest := s.cfg.Dest
	choose := s.tab.Choose
	nodeKey := s.tab.NodeKey
	qsize := s.rings.qsize
	flt := s.flt
	idx := slot & wheelMask
	i := t.wheelHead[idx]
	t.wheelHead[idx] = -1
	for i >= 0 {
		chain := t.wheelLink[i]
		if t.next[i] != int64(slot) {
			t.file(i, int64(idx))
			i = chain
			continue
		}
		src := int(t.sources[i])
		rng := &t.rngs[i]
		var k int
		if poissonL > 0 {
			k = rng.PoissonPositiveExp(mean, poissonL)
		} else {
			k = rng.PoissonPositive(mean)
		}
		if measuring {
			t.arrivalHits++
			t.genCount += int64(k)
		}
		// A down source offers its batch into the void: every packet is
		// dropped at generation, but the destination and coin draws still
		// happen so the node's variate stream stays aligned with the
		// fault-free sequence.
		srcDown := flt != nil && t.fltNodeDown[src] != 0
		for ; k > 0; k-- {
			dst := dest.Sample(src, rng)
			var choice uint32
			if choose != nil {
				choice = uint32(choose(rng))
			}
			if srcDown {
				if measuring {
					t.dropped++
				}
				continue
			}
			if dst == src {
				// Zero-hop packet: delivered instantly with delay 0,
				// never entering any queue (the paper allows these).
				if measuring {
					t.addDelay(0)
					if t.destCount != nil {
						t.destCount[src]++
					}
				}
				continue
			}
			ent := uint64(nodeKey[dst])<<entKeyShift | uint64(choice)<<entSlotBits | uint64(slot&entSlotMask)
			if measuring {
				ent |= entMeasured
			}
			edge, _ := s.tab.Next(nodeKey[src], nodeKey[dst], choice)
			if qsize[edge] == 0 {
				t.act.add(edge)
			}
			s.rings.push(edge, ent)
			t.live++
		}
		nxt := int64(slot) + 1 + int64(rng.PoissonSkip(mean))
		t.next[i] = nxt
		if nxt < int64(total) {
			t.file(i, nxt)
		}
		i = chain
	}
	if measuring {
		t.liveSum += t.live
	}
}

// service is phase 2 for one tile: serve the head packet of every busy
// owned edge, found by walking the two-level bitmap in ascending edge
// order (clearing a bit when a queue drains). Deliveries accumulate
// locally; survivors go to the local moved list (interior-bound: placed
// before the gate), the movedB list (boundary-bound: merged with handoffs
// after it) or, when the next edge belongs to another tile, to that
// pair's handoff ring slot — all in ascending served-edge order.
// Iteration reads snapshots of each word, so the in-loop remove of the
// edge being served never disturbs it; adds happen only in phases 1 and 3.
func (s *Engine) service(t *tile, slot int, measuring bool, ring int) {
	moved := t.moved[:0]
	movedB := t.movedB[:0]
	multi := s.shards > 1
	myBase := (int(t.id) * s.shards) * s.ringDepth
	if multi {
		for u := 0; u < s.shards; u++ {
			if u != int(t.id) {
				cell := myBase + u*s.ringDepth + ring
				s.handoff[cell] = s.handoff[cell][:0]
			}
		}
	}
	qbuf, qhead, qsize := s.rings.qbuf, s.rings.qhead, s.rings.qsize
	edgeKey := s.tab.EdgeKey
	fast := s.tab.Fast()
	rowOwner, nodeOwner := s.rowOwner, s.nodeOwner
	boundaryRow, boundaryNode := s.boundaryRow, s.boundaryNode
	flt := s.flt
	l1 := t.act.l1
	var busy int64
	for w2i, w2 := range t.act.l2 {
		for w2 != 0 {
			w1i := w2i<<6 + bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			for word := l1[w1i]; word != 0; word &= word - 1 {
				low := bits.TrailingZeros64(word)
				edge := int32(w1i<<6 + low)
				if flt != nil && !s.canServe(t, edge, slot) {
					// Blocked or held edge: the queue stays nonempty, so
					// its worklist bit stays set for next slot.
					continue
				}
				busy++
				buf := qbuf[edge]
				head := qhead[edge]
				ent := buf[head]
				qhead[edge] = (head + 1) & int32(len(buf)-1)
				size := qsize[edge] - 1
				qsize[edge] = size
				if size == 0 {
					// Inline activeSet.remove with the word coordinates
					// already in registers.
					if l1[w1i] &^= 1 << uint(low); l1[w1i] == 0 {
						t.act.l2[w2i] &^= 1 << (uint32(w1i) & 63)
					}
				}
				pos := edgeKey[edge]
				key := int32(ent >> entKeyShift)
				if pos == key {
					if ent&entMeasured != 0 && measuring {
						d := int32((uint32(slot+1) - uint32(ent)) & entSlotMask)
						t.addDelay(d)
						if t.destCount != nil {
							v := s.tab.NodeOf(key)
							t.destCount[v]++
							t.destDelay[v] += uint64(d)
						}
					}
					t.live--
					continue
				}
				choice := uint32(ent>>entSlotBits) & entChoiceMask
				var next int32
				if flt != nil {
					var gone bool
					if next, gone = s.fltAdvance(t, edge, slot, pos, key, choice, ent, measuring); gone {
						continue
					}
				} else {
					next, _ = s.tab.Next(pos, key, choice)
				}
				rec := movedRec{ent: ent, edge: next, src: edge}
				if multi {
					var owner int32
					var bnd bool
					if fast {
						owner = rowOwner[pos>>routing.CoordBits]
						bnd = boundaryRow[pos>>routing.CoordBits]
					} else {
						owner = nodeOwner[pos]
						bnd = boundaryNode[pos]
					}
					if owner != t.id {
						h := &s.handoff[myBase+int(owner)*s.ringDepth+ring]
						*h = append(*h, rec)
						continue
					}
					if bnd {
						movedB = append(movedB, rec)
						continue
					}
				}
				moved = append(moved, rec)
			}
		}
	}
	if measuring {
		t.busySum += busy
	}
	t.moved = moved
	t.movedB = movedB
}
