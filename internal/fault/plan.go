package fault

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Liar modes in the Plan's per-node table. 0 means honest.
const (
	LiarNone uint8 = iota
	LiarDelay
	LiarMisroute
	LiarDrop
)

// Plan is a Spec bound to a concrete topology: the immutable, shareable
// lowering both engines consume. All slices are read-only after Bind.
type Plan struct {
	Spec Spec // the spec this plan was bound from (validated copy)

	NumNodes, NumEdges int

	// From/To mirror the topology's edge endpoints as flat arrays so the
	// engines' hot loops avoid interface calls.
	From, To []int32

	// OutStart/OutEdges are the CSR out-edge adjacency: node v's out-edges
	// are OutEdges[OutStart[v]:OutStart[v+1]], ascending by edge id. The
	// recovery scan and the misroute pick both walk this.
	OutStart []int32
	OutEdges []int32

	// FaultEdges/FaultNodes are the ascending entity ids subject to the
	// link/node Markov processes. LinkFaultIdx/NodeFaultIdx map an
	// edge/node id to its index in those lists, or -1: engines keep their
	// per-entity dwell state in arrays parallel to the entity lists.
	FaultEdges   []int32
	FaultNodes   []int32
	LinkFaultIdx []int32
	NodeFaultIdx []int32

	// LiarMode/LiarDelay/LiarProb are per-node adversary tables (LiarNone
	// for honest nodes). Liars lists the misbehaving node ids ascending —
	// the ground truth the verification experiment is scored against.
	LiarMode  []uint8
	LiarDelay []int32
	LiarProb  []float64
	Liars     []int32

	// OutageNodes[i] lists the node ids inside Outages[i]'s rectangle,
	// ascending. Outage windows come from Spec.Outages.
	OutageNodes [][]int32
}

// Bind lowers the spec against net. The returned plan is immutable and safe
// to share across replicas and worker tiles.
func (s *Spec) Bind(net topology.Network) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("fault: Bind on a nil spec")
	}
	p := &Plan{
		Spec:     *s,
		NumNodes: net.NumNodes(),
		NumEdges: net.NumEdges(),
	}

	// Flatten endpoints and build the CSR out-adjacency. Edge ids are
	// visited ascending, so each node's OutEdges run is ascending too —
	// the property the deterministic recovery scan relies on.
	p.From = make([]int32, p.NumEdges)
	p.To = make([]int32, p.NumEdges)
	p.OutStart = make([]int32, p.NumNodes+1)
	for e := 0; e < p.NumEdges; e++ {
		from, to := net.EdgeFrom(e), net.EdgeTo(e)
		p.From[e], p.To[e] = int32(from), int32(to)
		p.OutStart[from+1]++
	}
	for v := 0; v < p.NumNodes; v++ {
		p.OutStart[v+1] += p.OutStart[v]
	}
	p.OutEdges = make([]int32, p.NumEdges)
	fill := make([]int32, p.NumNodes)
	copy(fill, p.OutStart[:p.NumNodes])
	for e := 0; e < p.NumEdges; e++ {
		v := p.From[e]
		p.OutEdges[fill[v]] = int32(e)
		fill[v]++
	}

	// Markov entity selection: a stateless per-entity coin under the
	// fault seed, so the failure-prone set is identical on both engines
	// and at every shard count.
	if s.LinkMTBF > 0 {
		frac := s.LinkFraction
		if frac == 0 {
			frac = 1
		}
		p.FaultEdges = selectFraction(s.Seed, SaltLinkSelect, p.NumEdges, frac)
	}
	if s.NodeMTBF > 0 {
		frac := s.NodeFraction
		if frac == 0 {
			frac = 1
		}
		p.FaultNodes = selectFraction(s.Seed, SaltNodeSelect, p.NumNodes, frac)
	}
	p.LinkFaultIdx = invertIndex(p.NumEdges, p.FaultEdges)
	p.NodeFaultIdx = invertIndex(p.NumNodes, p.FaultNodes)

	// Misbehaving routers: explicit node lists verbatim, counted groups by
	// seeded hash ranking. Later groups do not overwrite earlier ones.
	p.LiarMode = make([]uint8, p.NumNodes)
	p.LiarDelay = make([]int32, p.NumNodes)
	p.LiarProb = make([]float64, p.NumNodes)
	for gi, m := range s.Misbehave {
		var nodes []int32
		if len(m.Nodes) > 0 {
			for _, v := range m.Nodes {
				if v < 0 || v >= p.NumNodes {
					return nil, fmt.Errorf("fault: misbehave %d node %d out of range [0,%d)", gi, v, p.NumNodes)
				}
				nodes = append(nodes, int32(v))
			}
		} else {
			nodes = rankSelect(s.Seed, SaltLiarRank, uint64(gi), p.NumNodes, m.Count)
		}
		mode := LiarDelay
		switch m.Mode {
		case ModeMisroute:
			mode = LiarMisroute
		case ModeDrop:
			mode = LiarDrop
		}
		for _, v := range nodes {
			if p.LiarMode[v] != LiarNone {
				continue
			}
			p.LiarMode[v] = mode
			p.LiarDelay[v] = int32(m.ExtraDelay)
			p.LiarProb[v] = m.Prob
			p.Liars = append(p.Liars, v)
		}
	}
	sort.Slice(p.Liars, func(i, j int) bool { return p.Liars[i] < p.Liars[j] })

	// Outage rectangles need 2-D coordinates.
	if len(s.Outages) > 0 {
		side, nodeAt, ok := coords2D(net)
		if !ok {
			return nil, fmt.Errorf("fault: outages need a 2-D array or torus, got %s", net.Name())
		}
		p.OutageNodes = make([][]int32, len(s.Outages))
		for i, o := range s.Outages {
			if o.Row0 < 0 || o.Col0 < 0 || o.Row1 >= side || o.Col1 >= side {
				return nil, fmt.Errorf("fault: outage %d rectangle exceeds the %dx%d array", i, side, side)
			}
			for r := o.Row0; r <= o.Row1; r++ {
				for c := o.Col0; c <= o.Col1; c++ {
					p.OutageNodes[i] = append(p.OutageNodes[i], int32(nodeAt(r, c)))
				}
			}
		}
	}
	return p, nil
}

// invertIndex builds the id -> list-index map (-1 for absent ids).
func invertIndex(n int, ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ids {
		idx[id] = int32(i)
	}
	return idx
}

// HasLiars reports whether any node misbehaves.
func (p *Plan) HasLiars() bool { return len(p.Liars) > 0 }

// OutEdgeRange returns the CSR bounds of node v's out-edges.
func (p *Plan) OutEdgeRange(v int32) (lo, hi int32) {
	return p.OutStart[v], p.OutStart[v+1]
}

// MisrouteEdge returns the deterministic misroute pick for a packet served
// on edge e at event key k: a uniform choice among the out-edges of e's
// head node, derived from the stateless hash. The event key is bit-flipped
// so the pick decorrelates from the misroute coin, which hashes the same
// (e, k) pair. The caller checks usability and falls back to recovery if
// the pick is blocked.
func (p *Plan) MisrouteEdge(seed uint64, e int32, k uint64) int32 {
	v := p.To[e]
	lo, hi := p.OutStart[v], p.OutStart[v+1]
	if lo == hi {
		return -1
	}
	h := Hash(seed, SaltMisroute, uint64(e), ^k)
	return p.OutEdges[lo+int32(h%uint64(hi-lo))]
}
