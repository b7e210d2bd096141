// Package des provides the discrete-event-simulation core used by the
// network simulator: a deterministic event tree and FIFO, Priority and
// Processor-Sharing (PS) stations. The engine is sequential — event
// causality in a single queueing network does not parallelize — and the
// simulator gets its parallelism from running independent replicas on
// separate goroutines (see internal/sim).
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Payload packing limits. A payload is an opaque 24-bit value chosen by the
// caller (the simulator packs an event kind and an edge/source id into it);
// the remaining 40 bits of the tie-break word hold the sequence number.
const (
	// MaxPayload is the largest payload Schedule accepts.
	MaxPayload = 1<<24 - 1
	seqShift   = 24
	// SeqLimit bounds the sequence counter: a tree issues sequence words
	// below it and panics on overflow.
	SeqLimit = 1 << (64 - seqShift)
)

// event16 is one event key: exactly 16 bytes. tbits is math.Float64bits of
// the event time — event times are non-negative, so the IEEE-754 bit
// patterns order exactly like the floats and keys compare as integers.
// meta packs (seq << 24) | payload, so comparing meta alone breaks time
// ties by sequence order. Together (tbits, meta) compare lexicographically
// with two carry-chained integer subtractions and no branches (see before).
type event16 struct {
	tbits uint64
	meta  uint64
}

// before reports whether a orders strictly before b, branch-free: the
// lexicographic (tbits, meta) comparison is the borrow bit of the 128-bit
// subtraction (a.tbits:a.meta) - (b.tbits:b.meta). Event keys are unique
// (meta embeds a distinct sequence number), so strict/non-strict coincide.
func (a event16) before(b event16) bool {
	_, borrow := bits.Sub64(a.meta, b.meta, 0)
	_, borrow = bits.Sub64(a.tbits, b.tbits, borrow)
	return borrow != 0
}

// infKey is the sentinel for an empty slot. Its tbits (all ones, a NaN
// pattern) order after every real time and its meta after every real
// sequence word, so empty slots lose every tournament.
var infKey = event16{tbits: ^uint64(0), meta: ^uint64(0)}

// minKey returns the smaller of two event keys with pure mask arithmetic —
// no data-dependent branch, so tournament replays never mispredict.
func minKey(a, b event16) event16 {
	_, borrow := bits.Sub64(b.meta, a.meta, 0)
	_, borrow = bits.Sub64(b.tbits, a.tbits, borrow)
	m := uint64(0) - borrow // all-ones when b < a
	return event16{
		tbits: b.tbits&m | a.tbits&^m,
		meta:  b.meta&m | a.meta&^m,
	}
}

// EventTree is the simulator's event queue: a tournament (winner) tree
// over a fixed set of event slots, one per scheduling entity. It exploits
// the structural fact that in a queueing network every entity — an edge
// server (FIFO, priority or PS) or a per-node arrival clock — has at most
// ONE pending event at a time:
//
//   - Head (the next event) is a root read: O(1), no sift;
//   - Schedule overwrites a slot and replays one leaf-to-root path of
//     log2(slots) branch-free minKey merges — several times cheaper than a
//     heap pop+push at simulation sizes;
//   - rescheduling an entity (a PS station whose job set changed) replaces
//     its slot in place, so stale events never exist and need no epoch or
//     claim checks.
//
// The tree stores only 16-byte keys: the winner's identity travels inside
// the key itself, because the caller's 24-bit payload (which encodes the
// entity id) is part of the packed meta word.
//
// Events order by (time, seq): Schedule draws from a monotone sequence
// counter, so ties in time break by schedule order and seeded runs are
// reproducible bit for bit — including against an equivalent heap-based
// schedule, because the (Time, Seq) total order fully determines the
// processing sequence. ReserveSeq lets a side-channel stream (the merged
// arrival clock) join that total order; compare its reserved word against
// HeadAfter.
//
// Times must be non-negative and finite; payloads are at most MaxPayload.
//
// The tree is binary: a replay touches one 16-byte sibling per level,
// which measures faster than wider fan-outs (a 4-ary variant re-reads
// whole sibling groups and loses ~40% on the reschedule microbenchmark).
type EventTree struct {
	keys   []event16 // 1-based binary tree; leaves at [leaves, leaves+slots)
	leaves int
	slots  int
	seq    uint64
}

// NewEventTree creates a tree with the given number of slots, all empty.
func NewEventTree(slots int) *EventTree {
	if slots < 1 {
		panic("des: EventTree needs at least one slot")
	}
	leaves := 1
	for leaves < slots {
		leaves *= 2
	}
	t := &EventTree{
		keys:   make([]event16, 2*leaves),
		leaves: leaves,
		slots:  slots,
	}
	for i := range t.keys {
		t.keys[i] = infKey
	}
	return t
}

// Slots returns the slot count.
func (t *EventTree) Slots() int { return t.slots }

// Reset empties the tree, restarts its sequence counter, and resizes it to
// the given slot count, reusing the key array whenever the rounded-up leaf
// count is unchanged. After Reset the tree is indistinguishable from
// NewEventTree(slots); engines that persist across runs (sim.Runner) reset
// their tree instead of reallocating it.
func (t *EventTree) Reset(slots int) {
	if slots < 1 {
		panic("des: EventTree needs at least one slot")
	}
	leaves := 1
	for leaves < slots {
		leaves *= 2
	}
	if leaves != t.leaves {
		t.keys = make([]event16, 2*leaves)
		t.leaves = leaves
	}
	t.slots = slots
	t.seq = 0
	for i := range t.keys {
		t.keys[i] = infKey
	}
}

// nextSeq draws the next tie-break sequence word.
func (t *EventTree) nextSeq() uint64 {
	t.seq++
	if t.seq >= SeqLimit {
		panic("des: EventTree sequence overflow")
	}
	return t.seq << seqShift
}

// ReserveSeq consumes and returns one sequence word without scheduling,
// so a side-channel event stream can participate in the (time, seq) total
// order (see HeadAfter).
func (t *EventTree) ReserveSeq() uint64 { return t.nextSeq() }

// Schedule sets slot's pending event to (at, payload), replacing any
// previous one, and assigns the next sequence word.
func (t *EventTree) Schedule(slot int, at float64, payload uint32) {
	if payload > MaxPayload {
		panic(fmt.Sprintf("des: EventTree payload %d exceeds %d", payload, MaxPayload))
	}
	if !(at >= 0) || math.IsInf(at, 1) {
		panic(fmt.Sprintf("des: EventTree time %v is negative, infinite or NaN", at))
	}
	// at+0 normalizes -0.0, whose bit pattern orders after every positive
	// time under the integer comparison.
	t.replay(slot, event16{tbits: math.Float64bits(at + 0), meta: t.nextSeq() | uint64(payload)})
}

// ScheduleIdle is Schedule for a slot that is likely NOT the current root
// winner (e.g. an idle server starting service while other events are
// imminent): its replay stops at the first ancestor whose stored winner is
// unaffected, which for a far-future event is one or two levels. Semantics
// are identical to Schedule; only the constant factor differs. Do not use
// it for the slot that just fired — that replay changes every ancestor, and
// the early-exit test would be a mispredicted branch at every level.
func (t *EventTree) ScheduleIdle(slot int, at float64, payload uint32) {
	if payload > MaxPayload {
		panic(fmt.Sprintf("des: EventTree payload %d exceeds %d", payload, MaxPayload))
	}
	if !(at >= 0) || math.IsInf(at, 1) {
		panic(fmt.Sprintf("des: EventTree time %v is negative, infinite or NaN", at))
	}
	key := event16{tbits: math.Float64bits(at + 0), meta: t.nextSeq() | uint64(payload)}
	keys := t.keys
	i := t.leaves + slot
	keys[i] = key
	for i > 1 {
		key = minKey(key, keys[i^1])
		i >>= 1
		if keys[i] == key {
			return // subtree winner unchanged; ancestors already correct
		}
		keys[i] = key
	}
}

// Clear empties slot's pending event. It consumes no sequence word,
// matching a heap formulation in which "no next event" pushes nothing.
func (t *EventTree) Clear(slot int) { t.replay(slot, infKey) }

// replay writes key at slot's leaf and replays the path to the root. The
// path is replayed unconditionally: the common replay is for the slot that
// just fired (the previous root winner), whose path changes at every
// level, so an early-exit test would be a mispredicted branch exactly
// where it matters.
func (t *EventTree) replay(slot int, key event16) {
	keys := t.keys
	i := t.leaves + slot
	keys[i] = key
	for i > 1 {
		key = minKey(key, keys[i^1])
		i >>= 1
		keys[i] = key
	}
}

// Head returns the earliest pending event without removing it; ok is false
// when every slot is empty. The caller processes it and then either
// Schedules its slot again or Clears it (the entity id needed for that is
// part of the payload).
func (t *EventTree) Head() (at float64, payload uint32, ok bool) {
	k := t.keys[1]
	if k == infKey {
		return 0, 0, false
	}
	return math.Float64frombits(k.tbits), uint32(k.meta & MaxPayload), true
}

// HeadAfter reports whether the earliest pending event orders strictly
// after the (at, meta) key — vacuously true when the tree is empty.
func (t *EventTree) HeadAfter(at float64, meta uint64) bool {
	return event16{tbits: math.Float64bits(at + 0), meta: meta}.before(t.keys[1])
}

// The four accessors below exist for engine checkpoints (sim.Snapshot):
// a restored tree must reproduce the captured one's (time, seq) total
// order EXACTLY, so slots round-trip as raw key words — re-scheduling
// through Schedule would assign fresh sequence numbers and could reorder
// same-time events across the checkpoint boundary.

// SeqCounter returns the tie-break sequence counter's current value.
func (t *EventTree) SeqCounter() uint64 { return t.seq }

// RestoreSeqCounter sets the sequence counter, so sequence words drawn
// after a restore continue exactly where the captured tree stopped.
func (t *EventTree) RestoreSeqCounter(seq uint64) {
	if seq >= SeqLimit {
		panic("des: RestoreSeqCounter past the sequence limit")
	}
	t.seq = seq
}

// SlotKey exports slot's pending event as its raw key words; ok is false
// for an empty slot.
func (t *EventTree) SlotKey(slot int) (tbits, meta uint64, ok bool) {
	k := t.keys[t.leaves+slot]
	if k == infKey {
		return 0, 0, false
	}
	return k.tbits, k.meta, true
}

// RestoreSlot re-installs a key exported by SlotKey, preserving its
// captured sequence word. It does not advance the sequence counter.
func (t *EventTree) RestoreSlot(slot int, tbits, meta uint64) {
	t.replay(slot, event16{tbits: tbits, meta: meta})
}
