package stepsim

// Steady-state checkpoints for the slotted engine.
//
// A Snapshot captures everything the next run's DYNAMICS depend on — ring
// queue contents, each source's keyed RNG stream mid-sequence, and each
// source's pending arrival slot — and nothing the next run's MEASUREMENTS
// depend on: accumulators are excluded, and each stored ring entry is
// canonicalized by zeroing its generation-slot bits and measured flag. Neither is ever read for dynamics (the slot bits feed only
// the modular delay subtraction of measured packets, and restored packets
// are unmeasured by construction), so a resumed run may restart its slot
// counter at zero and still replay, bit for bit, the future of the captured
// run:
//
//	X = Run{WarmupSlots: W, Slots: S₁, Capture: true}
//	Y = Run{Resume: X.Snapshot, WarmupSlots: W₂, Slots: S₂}
//	U = Run{WarmupSlots: W + S₁ + W₂, Slots: S₂}
//
// Y and U produce math.Float64bits-identical Results at every shard count
// (TestSnapshotBitExactContinuation). The equivalence holds because the
// per-node streams continue exactly where they stopped, queue contents and
// order are preserved, and packets in flight at capture time are exactly
// the packets U would still treat as warmup traffic. Resuming at a
// DIFFERENT NodeRate (warm-starting the next point of a ρ-ladder) is not
// bit-exact but is statistically exact: the Poisson arrival process is
// memoryless, so redrawing each source's next arrival from its restored
// stream at the new rate samples the correct conditional law.
//
// The wire format (MarshalBinary / UnmarshalSnapshot) is a little-endian
// binary layout with a magic header and a CRC32 trailer, fit for on-disk
// persistence between sweep processes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Snapshot is a serializable steady-state checkpoint of a slotted run,
// produced by Config.Capture and consumed by Config.Resume. It is
// engine-shape canonical: the same captured state restores onto any shard
// count.
type Snapshot struct {
	// NodeRate and Fast record the captured run's arrival rate and key
	// format; TopoName/NumNodes/NumEdges identify the topology. Resume
	// requires Fast and the topology to match; NodeRate may differ (see
	// the package comment).
	NodeRate float64
	Fast     bool
	TopoName string
	NumNodes int
	NumEdges int

	// Nodes lists the source node ids, ascending. RNG[i] is Nodes[i]'s
	// keyed stream state, mid-sequence. NextDelta[i] is the number of
	// slots from the capture point to Nodes[i]'s next nonzero arrival
	// batch (≥ 0; neverSlot for parked zero-rate sources).
	Nodes     []int32
	RNG       [][4]uint64
	NextDelta []int64

	// QueueLen[e] is edge e's queue length; Entries holds all queued ring
	// entries edge-major in FIFO order, canonicalized (slot bits and
	// measured flag zeroed).
	QueueLen []int32
	Entries  []uint64
}

// capture exports the engine's end-of-run state. Tiles hold disjoint
// source sets, so concatenating and sorting by node id yields the
// canonical shard-independent layout.
func (s *Engine) capture() *Snapshot {
	cfg := s.cfg
	total := int64(cfg.WarmupSlots) + int64(cfg.Slots)
	snap := &Snapshot{
		NodeRate: cfg.NodeRate,
		Fast:     s.tab.Fast(),
		TopoName: cfg.Net.Name(),
		NumNodes: cfg.Net.NumNodes(),
		NumEdges: cfg.Net.NumEdges(),
	}

	type srcState struct {
		node  int32
		rng   [4]uint64
		delta int64
	}
	var all []srcState
	for i := range s.tiles {
		t := &s.tiles[i]
		for j, src := range t.sources {
			// All pending arrival slots sit at or past the horizon: the
			// wheel only ever holds future slots, and the last processed
			// slot was total−1.
			delta := int64(neverSlot)
			if t.next[j] < neverSlot {
				delta = t.next[j] - total
			}
			all = append(all, srcState{node: src, rng: t.rngs[j].State(), delta: delta})
		}
	}
	slices.SortFunc(all, func(a, b srcState) int { return int(a.node) - int(b.node) })
	snap.Nodes = make([]int32, len(all))
	snap.RNG = make([][4]uint64, len(all))
	snap.NextDelta = make([]int64, len(all))
	for i, st := range all {
		snap.Nodes[i] = st.node
		snap.RNG[i] = st.rng
		snap.NextDelta[i] = st.delta
	}

	snap.QueueLen = make([]int32, snap.NumEdges)
	for e := range snap.QueueLen {
		snap.QueueLen[e] = s.rings.qsize[e]
	}
	for e := 0; e < snap.NumEdges; e++ {
		buf := s.rings.qbuf[e]
		head := s.rings.qhead[e]
		mask := int32(len(buf) - 1)
		for i := int32(0); i < s.rings.qsize[e]; i++ {
			ent := buf[(head+i)&mask]
			snap.Entries = append(snap.Entries, ent&^uint64(entMeasured|entSlotMask))
		}
	}
	return snap
}

// restore fills a freshly reset engine from snap. It runs at the end of
// reset: the tile plan, ownership tables and wheel state exist, rings and
// streams are empty, and the workers have not started.
func (s *Engine) restore(snap *Snapshot) error {
	cfg := s.cfg
	if snap.TopoName != cfg.Net.Name() || snap.NumNodes != cfg.Net.NumNodes() || snap.NumEdges != cfg.Net.NumEdges() {
		return fmt.Errorf("stepsim: snapshot of %s (%d nodes, %d edges) cannot resume on %s (%d nodes, %d edges)",
			snap.TopoName, snap.NumNodes, snap.NumEdges, cfg.Net.Name(), cfg.Net.NumNodes(), cfg.Net.NumEdges())
	}
	if snap.Fast != s.tab.Fast() {
		return fmt.Errorf("stepsim: snapshot key format (fast=%v) does not match the run's (fast=%v); destination keys are not translatable", snap.Fast, s.tab.Fast())
	}
	if len(snap.QueueLen) != snap.NumEdges {
		return fmt.Errorf("stepsim: snapshot has %d queue lengths for %d edges", len(snap.QueueLen), snap.NumEdges)
	}
	if len(snap.RNG) != len(snap.Nodes) || len(snap.NextDelta) != len(snap.Nodes) {
		return fmt.Errorf("stepsim: snapshot per-source arrays are misaligned")
	}
	var nSources int
	for i := range s.tiles {
		nSources += len(s.tiles[i].sources)
	}
	if nSources != len(snap.Nodes) {
		return fmt.Errorf("stepsim: snapshot has %d sources, run has %d", len(snap.Nodes), nSources)
	}

	// Refill the rings edge-major in FIFO order and rebuild the busy-edge
	// bitmaps from the nonempty queues. The restored in-system count all
	// lands on tile 0: per-slot MeanN sampling sums every tile's counter,
	// so only the total matters — at any shard count.
	var entTotal int
	for _, n := range snap.QueueLen {
		if n < 0 {
			return fmt.Errorf("stepsim: snapshot has a negative queue length")
		}
		entTotal += int(n)
	}
	if entTotal != len(snap.Entries) {
		return fmt.Errorf("stepsim: snapshot queue lengths sum to %d entries but %d are stored", entTotal, len(snap.Entries))
	}
	// Entries are canonical (slot bits and measured flag zero), and their
	// destination keys and stepper choices index the route-step table.
	for _, ent := range snap.Entries {
		key := int32(ent >> entKeyShift)
		v := s.tab.NodeOf(key)
		switch {
		case ent&(entMeasured|entSlotMask) != 0:
			return fmt.Errorf("stepsim: snapshot entry %#x is not canonical", ent)
		case v < 0 || int(v) >= snap.NumNodes || s.tab.NodeKey[v] != key:
			return fmt.Errorf("stepsim: snapshot entry destination key %d is not a node of %s", key, snap.TopoName)
		case int(ent>>entSlotBits&entChoiceMask) >= len(s.tab.Steppers):
			return fmt.Errorf("stepsim: snapshot entry stepper choice %d out of range", ent>>entSlotBits&entChoiceMask)
		}
	}
	for _, st := range snap.RNG {
		if st == [4]uint64{} {
			return fmt.Errorf("stepsim: snapshot has an all-zero RNG state")
		}
	}
	k := 0
	var live int64
	for e := 0; e < snap.NumEdges; e++ {
		n := snap.QueueLen[e]
		if n == 0 {
			continue
		}
		for i := int32(0); i < n; i++ {
			s.rings.push(int32(e), snap.Entries[k])
			k++
		}
		live += int64(n)
		t := &s.tiles[0]
		if s.shards > 1 {
			t = &s.tiles[s.nodeOwner[cfg.Net.EdgeFrom(e)]]
		}
		t.act.add(int32(e))
	}
	s.tiles[0].live = live

	// Per-source streams and the next-arrival wheel. A rate change redraws
	// the next arrival from the restored stream — the geometric gap to the
	// next nonzero batch is memoryless, so a fresh draw at the new rate is
	// the exact conditional law.
	total := int64(cfg.WarmupSlots) + int64(cfg.Slots)
	sameRate := cfg.NodeRate == snap.NodeRate
	for ti := range s.tiles {
		t := &s.tiles[ti]
		for i, src := range t.sources {
			j, found := slices.BinarySearch(snap.Nodes, src)
			if !found {
				return fmt.Errorf("stepsim: snapshot has no state for source node %d", src)
			}
			t.rngs[i].Restore(snap.RNG[j])
			var nxt int64
			switch {
			case sameRate:
				nxt = snap.NextDelta[j]
				if nxt < 0 {
					return fmt.Errorf("stepsim: snapshot has a negative arrival delta for node %d", src)
				}
			case cfg.NodeRate <= 0:
				nxt = neverSlot
			default:
				nxt = int64(t.rngs[i].PoissonSkip(cfg.NodeRate))
			}
			t.next[i] = nxt
			if nxt < total {
				t.file(int32(i), nxt)
			}
		}
	}
	return nil
}

// Wire format: magic, a flags byte, little-endian fields in struct order,
// CRC32 (IEEE) trailer over everything before it. Flag bit 0 marks a
// sparse-execution capture (the only kind the engine makes; the retired
// dense body wrote it clear and stored no arrival deltas), bit 1 the
// packed-coordinate key format.
const (
	snapMagic      = "SLOTSNP1"
	snapFlagSparse = 1
	snapFlagFast   = 2
)

// MarshalBinary encodes the snapshot for on-disk persistence.
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	size := len(snapMagic) + 1 + 8 + 4 + len(sn.TopoName) + 4 + 4 +
		4 + len(sn.Nodes)*4 + len(sn.RNG)*32 + len(sn.NextDelta)*8 +
		len(sn.QueueLen)*4 + 4 + len(sn.Entries)*8 + 4
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	flags := byte(snapFlagSparse)
	if sn.Fast {
		flags |= snapFlagFast
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sn.NodeRate))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.TopoName)))
	buf = append(buf, sn.TopoName...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.NumNodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sn.NumEdges))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.Nodes)))
	for _, v := range sn.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, st := range sn.RNG {
		for _, w := range st {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	if len(sn.NextDelta) != len(sn.Nodes) {
		return nil, fmt.Errorf("stepsim: snapshot with %d deltas for %d sources", len(sn.NextDelta), len(sn.Nodes))
	}
	for _, d := range sn.NextDelta {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	if len(sn.QueueLen) != sn.NumEdges {
		return nil, fmt.Errorf("stepsim: snapshot with %d queue lengths for %d edges", len(sn.QueueLen), sn.NumEdges)
	}
	for _, n := range sn.QueueLen {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.Entries)))
	for _, e := range sn.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, e)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// UnmarshalSnapshot decodes a snapshot produced by MarshalBinary,
// rejecting truncated, oversized or corrupted input.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("stepsim: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("stepsim: not a slotted-engine snapshot (bad magic)")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("stepsim: snapshot checksum mismatch (corrupted)")
	}
	d := snapDecoder{buf: body, off: len(snapMagic)}
	sn := &Snapshot{}
	flags := d.u8()
	if d.err == nil && flags&snapFlagSparse == 0 {
		return nil, fmt.Errorf("stepsim: snapshot was captured by the retired dense engine body and cannot resume")
	}
	sn.Fast = flags&snapFlagFast != 0
	sn.NodeRate = math.Float64frombits(d.u64())
	nameLen := int(d.u32())
	if d.err == nil && (nameLen < 0 || nameLen > len(d.buf)-d.off) {
		return nil, fmt.Errorf("stepsim: snapshot topology name overruns the payload")
	}
	sn.TopoName = string(d.bytes(nameLen))
	sn.NumNodes = int(d.u32())
	sn.NumEdges = int(d.u32())
	nSrc := int(d.u32())
	if d.err == nil {
		// Bound the per-source and per-edge counts by the remaining
		// payload before allocating.
		if nSrc < 0 || nSrc > (len(d.buf)-d.off)/44 {
			return nil, fmt.Errorf("stepsim: snapshot source count %d overruns the payload", nSrc)
		}
		if sn.NumEdges < 0 || sn.NumEdges > len(d.buf) {
			return nil, fmt.Errorf("stepsim: snapshot edge count %d overruns the payload", sn.NumEdges)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	sn.Nodes = make([]int32, nSrc)
	for i := range sn.Nodes {
		sn.Nodes[i] = int32(d.u32())
	}
	sn.RNG = make([][4]uint64, nSrc)
	for i := range sn.RNG {
		for w := 0; w < 4; w++ {
			sn.RNG[i][w] = d.u64()
		}
	}
	sn.NextDelta = make([]int64, nSrc)
	for i := range sn.NextDelta {
		sn.NextDelta[i] = int64(d.u64())
	}
	sn.QueueLen = make([]int32, sn.NumEdges)
	for i := range sn.QueueLen {
		sn.QueueLen[i] = int32(d.u32())
	}
	nEnt := int(d.u32())
	if d.err == nil && (nEnt < 0 || nEnt > (len(d.buf)-d.off)/8) {
		return nil, fmt.Errorf("stepsim: snapshot entry count %d overruns the payload", nEnt)
	}
	if d.err != nil {
		return nil, d.err
	}
	sn.Entries = make([]uint64, nEnt)
	for i := range sn.Entries {
		sn.Entries[i] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("stepsim: snapshot has %d trailing bytes", len(d.buf)-d.off)
	}
	return sn, nil
}

// snapDecoder reads little-endian fields with sticky short-read errors.
type snapDecoder struct {
	buf []byte
	off int
	err error
}

func (d *snapDecoder) short() {
	if d.err == nil {
		d.err = fmt.Errorf("stepsim: snapshot truncated at byte %d", d.off)
	}
}

func (d *snapDecoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.short()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *snapDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *snapDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *snapDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.short()
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}
