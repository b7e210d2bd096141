package sim

// Steady-state checkpoints for the event-driven engine.
//
// A Snapshot captures the engine's dynamic state at the end of a run — the
// RNG mid-stream, the event tree's pending events as raw (time, seq) key
// words plus its sequence counter, the merged arrival clock's two scalars,
// and every queued packet in FIFO order — and none of its measurement
// state. Unlike the slotted engine, times here are continuous and
// ABSOLUTE: a resumed run continues the captured clock rather than
// restarting at zero (its measurement window is [Time+Warmup,
// Time+Warmup+Horizon]), which sidesteps every floating-point rebasing
// hazard. Restored packets are canonicalized: genTime zeroed and the
// measured flag cleared, exactly the state in-flight warmup packets have
// in an uninterrupted run, so
//
//	X = Run{Warmup: W, Horizon: H₁, Capture: true}
//	Y = Run{Resume: X.Snapshot, Warmup: W₂, Horizon: H₂}
//	U = Run{Warmup: W + H₁ + W₂, Horizon: H₂}
//
// gives math.Float64bits-identical Results for Y and U
// (TestSimSnapshotBitExactContinuation): the RNG stream, the (time, seq)
// event order, and the integer-valued N/R processes all continue exactly.
// The in-system counters are recomputed from the restored packets with
// exact integer arithmetic, so they equal the uninterrupted run's
// incrementally maintained values bit for bit.
//
// Checkpoints cover the engine's fast path: FIFO discipline and the merged
// Poisson, per-node Poisson or slotted arrival models. PS and FurthestFirst
// stations and custom Arrivals processes are rejected at Capture and
// Resume — their in-flight state (remaining PS work, process internals) is
// not serialized here.
//
// Resuming at a different NodeRate warm-starts the next point of a
// ρ-ladder: the merged clock's next arrival is redrawn at the new rate
// (memorylessness makes that the exact conditional law) and slotted-model
// batch sizes are drawn per slot anyway. Per-node clocks would need every
// source's event redrawn, which breaks the captured event order, so a
// rate change under PerNodeArrivals is an error.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/des"
)

// Snapshot is a serializable steady-state checkpoint of an event-driven
// run, produced by Config.Capture and consumed by Config.Resume.
type Snapshot struct {
	// Time is the absolute simulation time of the capture point (the
	// captured run's measurement end); the resumed run continues from it.
	Time float64
	// NodeRate, SlotTau and PerNode record the captured arrival model;
	// TopoName/NumNodes/NumEdges identify the topology. Resume requires
	// the model and topology to match; NodeRate may differ except under
	// PerNode (see the package comment).
	NodeRate float64
	SlotTau  float64
	PerNode  bool
	TopoName string
	NumNodes int
	NumEdges int

	// RNG is the engine stream mid-sequence; Seq the event tree's
	// tie-break counter; NextArrBits/NextArrMeta the merged arrival
	// clock's scalars, verbatim (meta 0 = stream inactive).
	RNG         [4]uint64
	Seq         uint64
	NextArrBits uint64
	NextArrMeta uint64

	// Pending tree events as raw key words (absolute times, captured
	// sequence numbers), one triple per occupied slot.
	EventSlots []int32
	EventTBits []uint64
	EventMeta  []uint64

	// QueueLen[e] is edge e's FIFO length (including in service); the Pkt
	// arrays hold the queued packets edge-major in service order,
	// canonicalized (genTime and measured dropped).
	QueueLen  []int32
	PktCur    []int32
	PktDst    []int32
	PktChoice []uint8
}

// snapshot exports the engine's end-of-run state. The loop has drained
// every event up to the horizon, so all captured state is strictly future.
func (e *engine) snapshot() *Snapshot {
	cfg := e.cfg
	sn := &Snapshot{
		Time:        e.end,
		NodeRate:    cfg.NodeRate,
		SlotTau:     cfg.SlotTau,
		PerNode:     cfg.PerNodeArrivals,
		TopoName:    cfg.Net.Name(),
		NumNodes:    cfg.Net.NumNodes(),
		NumEdges:    cfg.Net.NumEdges(),
		RNG:         e.rng.State(),
		Seq:         e.tree.SeqCounter(),
		NextArrBits: math.Float64bits(e.nextArr),
		NextArrMeta: e.nextArrMeta,
	}
	for slot := 0; slot < e.tree.Slots(); slot++ {
		if tbits, meta, ok := e.tree.SlotKey(slot); ok {
			sn.EventSlots = append(sn.EventSlots, int32(slot))
			sn.EventTBits = append(sn.EventTBits, tbits)
			sn.EventMeta = append(sn.EventMeta, meta)
		}
	}
	sn.QueueLen = make([]int32, sn.NumEdges)
	for ed := range e.fifo {
		st := &e.fifo[ed]
		n := st.Len()
		sn.QueueLen[ed] = int32(n)
		for i := 0; i < n; i++ {
			p := e.arena.get(st.At(i))
			sn.PktCur = append(sn.PktCur, p.cur)
			sn.PktDst = append(sn.PktDst, p.dst)
			sn.PktChoice = append(sn.PktChoice, p.choice)
		}
	}
	return sn
}

// restoreSnapshot fills a freshly prepared engine from sn and shifts its
// measurement window to continue the captured clock. It replaces
// scheduleSources entirely.
func (e *engine) restoreSnapshot(sn *Snapshot) error {
	cfg := e.cfg
	if sn.TopoName != cfg.Net.Name() || sn.NumNodes != cfg.Net.NumNodes() || sn.NumEdges != cfg.Net.NumEdges() {
		return fmt.Errorf("sim: snapshot of %s (%d nodes, %d edges) cannot resume on %s (%d nodes, %d edges)",
			sn.TopoName, sn.NumNodes, sn.NumEdges, cfg.Net.Name(), cfg.Net.NumNodes(), cfg.Net.NumEdges())
	}
	if sn.PerNode != cfg.PerNodeArrivals || sn.SlotTau != cfg.SlotTau {
		return fmt.Errorf("sim: snapshot arrival model (perNode=%v slotTau=%v) does not match the run's (perNode=%v slotTau=%v)",
			sn.PerNode, sn.SlotTau, cfg.PerNodeArrivals, cfg.SlotTau)
	}
	sameRate := cfg.NodeRate == sn.NodeRate
	if !sameRate && cfg.PerNodeArrivals {
		return fmt.Errorf("sim: a NodeRate change under PerNodeArrivals would redraw every source clock; use the merged arrival model for warm-started ladders")
	}
	if len(sn.QueueLen) != sn.NumEdges ||
		len(sn.EventTBits) != len(sn.EventSlots) || len(sn.EventMeta) != len(sn.EventSlots) ||
		len(sn.PktDst) != len(sn.PktCur) || len(sn.PktChoice) != len(sn.PktCur) {
		return fmt.Errorf("sim: snapshot arrays are misaligned")
	}
	var total int
	for _, n := range sn.QueueLen {
		if n < 0 {
			return fmt.Errorf("sim: snapshot has a negative queue length")
		}
		total += int(n)
	}
	if total != len(sn.PktCur) {
		return fmt.Errorf("sim: snapshot queue lengths sum to %d packets but %d are stored", total, len(sn.PktCur))
	}
	// Bounded time keeps the clock able to advance by a service time (a
	// run near 2^53 would stall on rounding); every pending event and the
	// arrival clock must lie at or after the capture time, as a capture's
	// do, or the resumed run would replay the whole past.
	if !(sn.Time >= 0 && sn.Time <= maxSnapshotTime) {
		return fmt.Errorf("sim: snapshot time %v is out of range [0, %v]", sn.Time, float64(maxSnapshotTime))
	}
	if sn.RNG == [4]uint64{} {
		return fmt.Errorf("sim: snapshot RNG state is all zero")
	}
	if sn.Seq >= des.SeqLimit/2 {
		return fmt.Errorf("sim: snapshot sequence counter %d leaves no room for the resumed run", sn.Seq)
	}
	if err := e.checkSnapshotEvents(sn); err != nil {
		return err
	}

	// Continue the captured clock: measurement runs [Time+Warmup,
	// Time+Warmup+Horizon] in the captured run's absolute time.
	e.start = sn.Time + cfg.Warmup
	e.end = e.start + cfg.Horizon
	e.rng.Restore(sn.RNG)
	e.tree.RestoreSeqCounter(sn.Seq)
	for i, slot := range sn.EventSlots {
		e.tree.RestoreSlot(int(slot), sn.EventTBits[i], sn.EventMeta[i])
	}

	// Queued packets, re-allocated canonically (arena handles are opaque;
	// only queue order and per-packet routing state are observable). The
	// in-system counters are rebuilt with exact integer arithmetic, so
	// they match the uninterrupted run's incrementally maintained values
	// bit for bit.
	k := 0
	for ed := 0; ed < sn.NumEdges; ed++ {
		for i := int32(0); i < sn.QueueLen[ed]; i++ {
			cur, dst, choice := sn.PktCur[k], sn.PktDst[k], sn.PktChoice[k]
			k++
			if int(choice) >= len(e.tab.Steppers) {
				return fmt.Errorf("sim: snapshot packet stepper choice %d out of range", choice)
			}
			if cur < 0 || int(cur) >= sn.NumNodes || dst < 0 || int(dst) >= sn.NumNodes {
				return fmt.Errorf("sim: snapshot packet node ids out of range")
			}
			h, p := e.arena.alloc()
			p.genTime = 0
			p.cur = cur
			p.dst = dst
			p.choice = choice
			p.measured = false
			e.fifo[ed].Arrive(h)
			e.nNow++
			pos, key := e.tab.NodeKey[cur], e.tab.NodeKey[dst]
			e.rNow += float64(e.tab.Hops(pos, key, uint32(choice)))
			if cfg.Saturated != nil {
				e.rsNow += float64(e.countSaturatedWalk(pos, key, uint32(choice)))
			}
		}
	}

	// The merged arrival clock. A rate change redraws the next arrival
	// from the restored stream (exponential residuals are memoryless);
	// the slotted clock keeps its next boundary, whose batch sizes are
	// drawn per slot at the new rate anyway.
	e.nextArr = math.Float64frombits(sn.NextArrBits)
	e.nextArrMeta = sn.NextArrMeta
	if cfg.SlotTau == 0 && !cfg.PerNodeArrivals && !sameRate {
		if e.totalRate > 0 {
			e.nextArr = sn.Time + e.rng.Exp(e.totalRate)
			if e.nextArrMeta == 0 {
				e.nextArrMeta = e.tree.ReserveSeq()
			}
		} else {
			e.nextArrMeta = 0
		}
	}
	if e.nextArrMeta != 0 {
		switch {
		case cfg.PerNodeArrivals:
			return fmt.Errorf("sim: snapshot has a merged arrival clock under per-node arrivals")
		case cfg.SlotTau == 0 && e.totalRate <= 0:
			return fmt.Errorf("sim: snapshot has a pending arrival at rate zero")
		case !(e.nextArr >= sn.Time) || math.IsInf(e.nextArr, 1):
			return fmt.Errorf("sim: snapshot arrival clock %v is before the capture time or infinite", e.nextArr)
		}
	}
	return nil
}

// maxSnapshotTime bounds a snapshot's capture time: far beyond any real
// run, yet small enough that float64 time still resolves 1/128 of a unit
// service time.
const maxSnapshotTime = 1 << 45

// checkSnapshotEvents requires every pending tree event to be one the
// engine could have scheduled: a finite time at or after the capture, and
// a payload matching its slot. Edge slots hold the departure of a nonempty
// queue; source slots (per-node arrivals only) hold that source's next
// generation, which needs a positive rate to reschedule.
func (e *engine) checkSnapshotEvents(sn *Snapshot) error {
	numEdges, slots := sn.NumEdges, e.tree.Slots()
	for i, slot := range sn.EventSlots {
		if int(slot) < 0 || int(slot) >= slots {
			return fmt.Errorf("sim: snapshot event slot %d out of range [0, %d)", slot, slots)
		}
		if at := math.Float64frombits(sn.EventTBits[i]); !(at >= sn.Time) || math.IsInf(at, 1) {
			return fmt.Errorf("sim: snapshot event time %v is before the capture time or infinite", at)
		}
		want := evPack(evDeparture, int(slot))
		if int(slot) >= numEdges {
			want = evPack(evNodeArrival, int(slot)-numEdges)
			if !(e.cfg.NodeRate > 0) {
				return fmt.Errorf("sim: snapshot has a per-node arrival at rate zero")
			}
		} else if sn.QueueLen[slot] == 0 {
			return fmt.Errorf("sim: snapshot has a departure from empty edge %d", slot)
		}
		if uint32(sn.EventMeta[i]&des.MaxPayload) != want {
			return fmt.Errorf("sim: snapshot event in slot %d has payload %#x, want %#x", slot, sn.EventMeta[i]&des.MaxPayload, want)
		}
	}
	return nil
}

// Wire format: magic, little-endian fields in struct order, CRC32 (IEEE)
// trailer — the same shape as the slotted engine's.
const simSnapMagic = "EVTSNAP1"

// MarshalBinary encodes the snapshot for on-disk persistence.
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	if len(sn.EventTBits) != len(sn.EventSlots) || len(sn.EventMeta) != len(sn.EventSlots) ||
		len(sn.PktDst) != len(sn.PktCur) || len(sn.PktChoice) != len(sn.PktCur) {
		return nil, fmt.Errorf("sim: snapshot arrays are misaligned")
	}
	buf := make([]byte, 0, 96+len(sn.TopoName)+20*len(sn.EventSlots)+4*len(sn.QueueLen)+9*len(sn.PktCur))
	buf = append(buf, simSnapMagic...)
	var flags byte
	if sn.PerNode {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sn.Time))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sn.NodeRate))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sn.SlotTau))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.TopoName)))
	buf = append(buf, sn.TopoName...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.NumNodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.NumEdges))
	for _, w := range sn.RNG {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = binary.LittleEndian.AppendUint64(buf, sn.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, sn.NextArrBits)
	buf = binary.LittleEndian.AppendUint64(buf, sn.NextArrMeta)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.EventSlots)))
	for i := range sn.EventSlots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.EventSlots[i]))
		buf = binary.LittleEndian.AppendUint64(buf, sn.EventTBits[i])
		buf = binary.LittleEndian.AppendUint64(buf, sn.EventMeta[i])
	}
	if len(sn.QueueLen) != sn.NumEdges {
		return nil, fmt.Errorf("sim: snapshot with %d queue lengths for %d edges", len(sn.QueueLen), sn.NumEdges)
	}
	for _, n := range sn.QueueLen {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.PktCur)))
	for i := range sn.PktCur {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.PktCur[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.PktDst[i]))
		buf = append(buf, sn.PktChoice[i])
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// UnmarshalSnapshot decodes a snapshot produced by MarshalBinary,
// rejecting truncated, oversized or corrupted input.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(simSnapMagic)+4 {
		return nil, fmt.Errorf("sim: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(simSnapMagic)]) != simSnapMagic {
		return nil, fmt.Errorf("sim: not an event-engine snapshot (bad magic)")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("sim: snapshot checksum mismatch (corrupted)")
	}
	d := simSnapDecoder{buf: body, off: len(simSnapMagic)}
	sn := &Snapshot{}
	sn.PerNode = d.u8()&1 != 0
	sn.Time = math.Float64frombits(d.u64())
	sn.NodeRate = math.Float64frombits(d.u64())
	sn.SlotTau = math.Float64frombits(d.u64())
	nameLen := int(d.u32())
	if d.err == nil && (nameLen < 0 || nameLen > len(d.buf)-d.off) {
		return nil, fmt.Errorf("sim: snapshot topology name overruns the payload")
	}
	sn.TopoName = string(d.bytes(nameLen))
	sn.NumNodes = int(d.u32())
	sn.NumEdges = int(d.u32())
	for i := range sn.RNG {
		sn.RNG[i] = d.u64()
	}
	sn.Seq = d.u64()
	sn.NextArrBits = d.u64()
	sn.NextArrMeta = d.u64()
	nEv := int(d.u32())
	if d.err == nil && (nEv < 0 || nEv > (len(d.buf)-d.off)/20) {
		return nil, fmt.Errorf("sim: snapshot event count %d overruns the payload", nEv)
	}
	if d.err == nil && (sn.NumEdges < 0 || sn.NumEdges > len(d.buf)) {
		return nil, fmt.Errorf("sim: snapshot edge count %d overruns the payload", sn.NumEdges)
	}
	if d.err != nil {
		return nil, d.err
	}
	if nEv > 0 {
		sn.EventSlots = make([]int32, nEv)
		sn.EventTBits = make([]uint64, nEv)
		sn.EventMeta = make([]uint64, nEv)
		for i := 0; i < nEv; i++ {
			sn.EventSlots[i] = int32(d.u32())
			sn.EventTBits[i] = d.u64()
			sn.EventMeta[i] = d.u64()
		}
	}
	sn.QueueLen = make([]int32, sn.NumEdges)
	for i := range sn.QueueLen {
		sn.QueueLen[i] = int32(d.u32())
	}
	nPkt := int(d.u32())
	if d.err == nil && (nPkt < 0 || nPkt > (len(d.buf)-d.off)/9) {
		return nil, fmt.Errorf("sim: snapshot packet count %d overruns the payload", nPkt)
	}
	if d.err != nil {
		return nil, d.err
	}
	if nPkt > 0 {
		sn.PktCur = make([]int32, nPkt)
		sn.PktDst = make([]int32, nPkt)
		sn.PktChoice = make([]uint8, nPkt)
		for i := 0; i < nPkt; i++ {
			sn.PktCur[i] = int32(d.u32())
			sn.PktDst[i] = int32(d.u32())
			sn.PktChoice[i] = d.u8()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("sim: snapshot has %d trailing bytes", len(d.buf)-d.off)
	}
	return sn, nil
}

// simSnapDecoder reads little-endian fields with sticky short-read errors.
type simSnapDecoder struct {
	buf []byte
	off int
	err error
}

func (d *simSnapDecoder) short() {
	if d.err == nil {
		d.err = fmt.Errorf("sim: snapshot truncated at byte %d", d.off)
	}
}

func (d *simSnapDecoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.short()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *simSnapDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *simSnapDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *simSnapDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.short()
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}
