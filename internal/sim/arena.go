package sim

import "fmt"

// packet is one in-flight packet, 32 bytes. A packet is just its routing
// state (current node, destination, stepper choice): the route itself is
// recomputed one edge at a time.
type packet struct {
	genTime  float64
	cur      int32
	dst      int32
	rem      int32 // remaining services charged to rNow (fault runs only)
	rs       int32 // remaining saturated services charged to rsNow (fault runs only)
	gen      uint8
	choice   uint8
	measured bool
}

// Packet handles pack a 24-bit arena index with a 7-bit generation tag. The
// tag is bumped every time a slot is recycled, so a stale handle — one held
// across a release — fails the generation check instead of silently aliasing
// the slot's next occupant.
const (
	arenaIndexBits = 24
	arenaIndexMask = 1<<arenaIndexBits - 1
	arenaGenMask   = 0x7f
)

// arena is an index-based packet pool: packets live in one contiguous slice
// and are addressed by int32 handles. Compared with the seed's
// pointer-freelist it allocates O(log n) times (slice doublings) instead of
// once per distinct in-flight packet, keeps simultaneously live packets
// adjacent in memory, and lets stations queue 4-byte handles instead of
// 8-byte pointers.
//
// The zero value is an empty arena.
type arena struct {
	packets []packet
	free    []int32 // recycled slot indices
}

// reset empties the arena for reuse, keeping the packet and free-list
// capacity. Recycled slots restart at generation 0 exactly as in a fresh
// arena (alloc overwrites each slot with a zero packet as it re-extends the
// slice), so handle sequences are indistinguishable from a fresh arena's.
func (a *arena) reset() {
	a.packets = a.packets[:0]
	a.free = a.free[:0]
}

// alloc returns a handle and pointer to a packet slot whose fault-run
// counters are zeroed. The pointer is valid until the next alloc (which may
// grow the backing slice).
func (a *arena) alloc() (int32, *packet) {
	var idx int32
	if n := len(a.free); n > 0 {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if len(a.packets) > arenaIndexMask {
			panic(fmt.Sprintf("sim: more than %d simultaneously live packets", arenaIndexMask+1))
		}
		a.packets = append(a.packets, packet{})
		idx = int32(len(a.packets) - 1)
	}
	p := &a.packets[idx]
	p.rem, p.rs = 0, 0
	return idx | int32(p.gen)<<arenaIndexBits, p
}

// get resolves a handle, panicking on a generation mismatch (a use of a
// handle whose slot has since been recycled).
func (a *arena) get(h int32) *packet {
	p := &a.packets[h&arenaIndexMask]
	if p.gen != uint8(h>>arenaIndexBits)&arenaGenMask {
		panic(fmt.Sprintf("sim: stale packet handle %#x (generation %d, slot at %d)", h, uint8(h>>arenaIndexBits)&arenaGenMask, p.gen))
	}
	return p
}

// release recycles h's slot, bumping its generation tag.
func (a *arena) release(h int32) {
	idx := h & arenaIndexMask
	p := &a.packets[idx]
	if p.gen != uint8(h>>arenaIndexBits)&arenaGenMask {
		panic(fmt.Sprintf("sim: double release of packet handle %#x", h))
	}
	p.gen = (p.gen + 1) & arenaGenMask
	a.free = append(a.free, idx)
}
