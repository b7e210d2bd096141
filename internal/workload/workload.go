// Package workload makes traffic a first-class, composable object. The
// paper's tables assume uniform random destinations and stationary Poisson
// sources, but its bounds (Theorems 6–8, 12) are stated for general
// per-edge arrival rates λ_e — and the interesting regimes are the
// non-uniform ones a production mesh actually sees: hot-spots, structured
// permutations (transpose, bit reversal, bit complement, tornado), local
// and distance-biased demand, and bursty sources.
//
// The package has three layers:
//
//   - Pattern: a named traffic pattern. Bind specializes it to a concrete
//     topology, yielding a Demand that is simultaneously a
//     routing.DestSampler (drives the simulator) and an exact distribution
//     P[dst|src] (drives the analytic pipeline and the simulator's
//     stability check).
//   - Analysis (analysis.go): a Demand plus a router lowered to exact
//     per-edge rates λ_e, utilizations, the bottleneck edge, and the
//     analytic saturation rate λ* — all before a single packet is
//     simulated. The routes toward each destination form an in-forest,
//     and every node's flow is pushed once along it: O(N) per destination
//     under dense demand, never more than walking each route.
//   - Scenario (scenario.go): a declarative spec — topology, router,
//     pattern, arrival process, load points, replicas — that validates and
//     lowers to []sim.Config for sim.StreamSweep. A registry of named
//     scenarios (registry.go) backs cmd/scenario.
//
// Arrival processes (arrivals.go) generalize the engine's merged Poisson
// clock to MMPP/on-off bursty sources and deterministic periodic
// injection via sim.ArrivalProcess.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Pattern is a topology-independent description of where traffic wants to
// go. Bind specializes it to a network or reports that the network lacks
// the structure the pattern needs (e.g. tornado off the torus).
type Pattern interface {
	// Name is the pattern's registry identifier, e.g. "hotspot".
	Name() string
	// Bind specializes the pattern to net.
	Bind(net topology.Network) (*Demand, error)
}

// Demand is a pattern bound to a concrete network: an exact destination
// distribution P[dst|src] plus a sampler drawing from it. It implements
// routing.DestSampler and sim.DemandDist, so one value serves both the
// simulator and the analytic pipeline.
type Demand struct {
	pattern string
	net     topology.Network
	sampler routing.DestSampler
	prob    func(src, dst int) float64
}

// Pattern returns the name of the pattern this demand was bound from.
func (d *Demand) Pattern() string { return d.pattern }

// Network returns the bound topology.
func (d *Demand) Network() topology.Network { return d.net }

// Sample implements routing.DestSampler.
func (d *Demand) Sample(src int, rng *xrand.RNG) int { return d.sampler.Sample(src, rng) }

// Prob implements sim.DemandDist: the probability a packet generated at
// src is destined for dst. Rows sum to 1 over dst for every source.
func (d *Demand) Prob(src, dst int) float64 { return d.prob(src, dst) }

// grid is the common square-coordinate view of Array2D and Torus2D, which
// is all the structure most patterns need.
type grid struct {
	n      int
	torus  bool
	node   func(r, c int) int
	coords func(node int) (r, c int)
}

func gridOf(net topology.Network) (*grid, bool) {
	switch t := net.(type) {
	case *topology.Array2D:
		return &grid{n: t.N(), node: t.Node, coords: t.Coords}, true
	case *topology.Torus2D:
		return &grid{n: t.N(), torus: true, node: t.Node, coords: t.Coords}, true
	}
	return nil, false
}

// distFunc returns the hop-count distance metric of net: the closed form
// for the known topologies, breadth-first search otherwise (bind-time
// only, never on the sampling path).
func distFunc(net topology.Network) func(src, dst int) int {
	switch t := net.(type) {
	case *topology.Array2D:
		return t.Distance
	case *topology.Torus2D:
		n := t.N()
		return func(src, dst int) int {
			r1, c1 := t.Coords(src)
			r2, c2 := t.Coords(dst)
			pr, mr := topology.WrapDist(r1, r2, n)
			pc, mc := topology.WrapDist(c1, c2, n)
			return min(pr, mr) + min(pc, mc)
		}
	case *topology.Linear:
		return func(src, dst int) int { return absInt(src - dst) }
	case *topology.Hypercube:
		return func(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }
	default:
		return bfsDist(net)
	}
}

// bfsDist precomputes all-pairs BFS distances over the directed edges.
func bfsDist(net topology.Network) func(src, dst int) int {
	nn := net.NumNodes()
	adj := make([][]int, nn)
	for e := 0; e < net.NumEdges(); e++ {
		from := net.EdgeFrom(e)
		adj[from] = append(adj[from], net.EdgeTo(e))
	}
	dist := make([]int, nn*nn)
	queue := make([]int, 0, nn)
	for src := 0; src < nn; src++ {
		row := dist[src*nn : (src+1)*nn]
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if row[next] == -1 {
					row[next] = row[cur] + 1
					queue = append(queue, next)
				}
			}
		}
	}
	return func(src, dst int) int { return dist[src*nn+dst] }
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// permDemand wraps a permutation as a Demand.
func permDemand(name string, net topology.Network, perm []int) *Demand {
	p := routing.PermDest{Perm: perm}
	return &Demand{pattern: name, net: net, sampler: p, prob: p.Prob}
}

// Uniform is the paper's standard model: destinations uniform over all
// nodes (a destination may equal the source).
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Bind implements Pattern.
func (Uniform) Bind(net topology.Network) (*Demand, error) {
	nn := net.NumNodes()
	p := 1 / float64(nn)
	return &Demand{
		pattern: "uniform",
		net:     net,
		sampler: routing.UniformDest{NumNodes: nn},
		prob:    func(_, _ int) float64 { return p },
	}, nil
}

// HotSpot sends a fixed fraction of every node's traffic to a small hot
// destination set and spreads the rest uniformly — the classic hot-spot
// pattern of shared-memory and service meshes.
type HotSpot struct {
	// Hot explicitly lists the hot destinations. When empty, the K nodes
	// closest to the network center (ties broken by node id) are used.
	Hot []int
	// K is the hot-set size when Hot is empty; 0 means 1.
	K int
	// Weight in (0, 1] is the fraction of traffic aimed at the hot set,
	// split uniformly among its members; the remaining 1−Weight is
	// uniform over all nodes (so hot nodes receive both components).
	Weight float64
}

// Name implements Pattern.
func (HotSpot) Name() string { return "hotspot" }

// Bind implements Pattern.
func (h HotSpot) Bind(net topology.Network) (*Demand, error) {
	if h.Weight <= 0 || h.Weight > 1 {
		return nil, fmt.Errorf("workload: hotspot weight %v outside (0, 1]", h.Weight)
	}
	nn := net.NumNodes()
	hot := append([]int(nil), h.Hot...)
	if len(hot) == 0 {
		k := h.K
		if k <= 0 {
			k = 1
		}
		if k > nn {
			return nil, fmt.Errorf("workload: hotspot k=%d exceeds %d nodes", k, nn)
		}
		hot = centerNodes(net, k)
	}
	for _, node := range hot {
		if node < 0 || node >= nn {
			return nil, fmt.Errorf("workload: hot node %d outside [0,%d)", node, nn)
		}
	}
	s := hotSpotDest{hot: hot, weight: h.Weight, numNodes: nn}
	return &Demand{pattern: "hotspot", net: net, sampler: s, prob: s.prob}, nil
}

// centerNodes returns the k nodes closest to the network's center,
// deterministically tie-broken by id. On grids the reference point is the
// geometric center ((n−1)/2, (n−1)/2) — which for even n falls between
// nodes, so k = 4 yields the symmetric 2×2 center block rather than one
// node plus an arbitrary subset of its neighbors. Elsewhere the hop
// distance to node N/2 is used.
func centerNodes(net topology.Network, k int) []int {
	var key func(id int) int
	if g, ok := gridOf(net); ok {
		key = func(id int) int {
			r, c := g.coords(id)
			// Doubled coordinates keep the half-integer center exact.
			return absInt(2*r-(g.n-1)) + absInt(2*c-(g.n-1))
		}
	} else {
		center := net.NumNodes() / 2
		dist := distFunc(net)
		key = func(id int) int { return dist(id, center) }
	}
	ids := make([]int, net.NumNodes())
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ka, kb := key(ids[a]), key(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	return ids[:k]
}

type hotSpotDest struct {
	hot      []int
	weight   float64
	numNodes int
}

// Sample implements routing.DestSampler.
func (h hotSpotDest) Sample(_ int, rng *xrand.RNG) int {
	if rng.Bernoulli(h.weight) {
		if len(h.hot) == 1 {
			return h.hot[0]
		}
		return h.hot[rng.Intn(len(h.hot))]
	}
	return rng.Intn(h.numNodes)
}

func (h hotSpotDest) prob(_, dst int) float64 {
	p := (1 - h.weight) / float64(h.numNodes)
	for _, node := range h.hot {
		if node == dst {
			p += h.weight / float64(len(h.hot))
			break
		}
	}
	return p
}

// Transpose is the matrix-transpose permutation on a square grid:
// (r, c) → (c, r). Diagonal nodes talk to themselves.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Bind implements Pattern.
func (Transpose) Bind(net topology.Network) (*Demand, error) {
	g, ok := gridOf(net)
	if !ok {
		return nil, fmt.Errorf("workload: transpose needs a square grid, got %s", net.Name())
	}
	perm := make([]int, net.NumNodes())
	for node := range perm {
		r, c := g.coords(node)
		perm[node] = g.node(c, r)
	}
	return permDemand("transpose", net, perm), nil
}

// BitReversal is the FFT permutation: each coordinate's bits reversed on a
// power-of-two grid, the whole address reversed on the hypercube.
type BitReversal struct{}

// Name implements Pattern.
func (BitReversal) Name() string { return "bitrev" }

// Bind implements Pattern.
func (BitReversal) Bind(net topology.Network) (*Demand, error) {
	if h, ok := net.(*topology.Hypercube); ok {
		perm := make([]int, net.NumNodes())
		for node := range perm {
			perm[node] = reverseBits(node, h.D())
		}
		return permDemand("bitrev", net, perm), nil
	}
	g, ok := gridOf(net)
	if !ok || bits.OnesCount(uint(g.n)) != 1 {
		return nil, fmt.Errorf("workload: bitrev needs a power-of-two grid or hypercube, got %s", net.Name())
	}
	width := bits.TrailingZeros(uint(g.n))
	perm := make([]int, net.NumNodes())
	for node := range perm {
		r, c := g.coords(node)
		perm[node] = g.node(reverseBits(r, width), reverseBits(c, width))
	}
	return permDemand("bitrev", net, perm), nil
}

func reverseBits(v, width int) int {
	out := 0
	for i := 0; i < width; i++ {
		out = out<<1 | (v>>i)&1
	}
	return out
}

// BitComplement mirrors every coordinate across the grid center
// ((r, c) → (n−1−r, n−1−c)), or complements the hypercube address. On the
// array it drives every route through the middle, the worst case the
// paper's saturated-edge analysis (§4.6) is about.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomp" }

// Bind implements Pattern.
func (BitComplement) Bind(net topology.Network) (*Demand, error) {
	if h, ok := net.(*topology.Hypercube); ok {
		mask := h.NumNodes() - 1
		perm := make([]int, net.NumNodes())
		for node := range perm {
			perm[node] = node ^ mask
		}
		return permDemand("bitcomp", net, perm), nil
	}
	g, ok := gridOf(net)
	if !ok {
		return nil, fmt.Errorf("workload: bitcomp needs a square grid or hypercube, got %s", net.Name())
	}
	perm := make([]int, net.NumNodes())
	for node := range perm {
		r, c := g.coords(node)
		perm[node] = g.node(g.n-1-r, g.n-1-c)
	}
	return permDemand("bitcomp", net, perm), nil
}

// Tornado shifts every node ⌈n/2⌉−1 columns around its row ring — the
// adversarial torus pattern that defeats shortest-way locality (every
// packet travels the maximal shorter-way distance in one direction).
type Tornado struct{}

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Bind implements Pattern.
func (Tornado) Bind(net topology.Network) (*Demand, error) {
	g, ok := gridOf(net)
	if !ok || !g.torus {
		return nil, fmt.Errorf("workload: tornado needs a torus, got %s", net.Name())
	}
	shift := (g.n+1)/2 - 1
	perm := make([]int, net.NumNodes())
	for node := range perm {
		r, c := g.coords(node)
		perm[node] = g.node(r, (c+shift)%g.n)
	}
	return permDemand("tornado", net, perm), nil
}

// NearestNeighbor sends every packet to a uniformly chosen out-neighbor of
// its source: maximal locality, one hop per packet.
type NearestNeighbor struct{}

// Name implements Pattern.
func (NearestNeighbor) Name() string { return "neighbor" }

// Bind implements Pattern.
func (NearestNeighbor) Bind(net topology.Network) (*Demand, error) {
	nn := net.NumNodes()
	adj := make([][]int, nn)
	for e := 0; e < net.NumEdges(); e++ {
		from := net.EdgeFrom(e)
		adj[from] = append(adj[from], net.EdgeTo(e))
	}
	for _, src := range topology.Sources(net) {
		if len(adj[src]) == 0 {
			return nil, fmt.Errorf("workload: neighbor pattern: source %d has no out-edges on %s", src, net.Name())
		}
		sort.Ints(adj[src]) // deterministic order independent of edge ids
	}
	s := neighborDest{adj: adj}
	return &Demand{pattern: "neighbor", net: net, sampler: s, prob: s.prob}, nil
}

type neighborDest struct {
	adj [][]int
}

// Sample implements routing.DestSampler.
func (n neighborDest) Sample(src int, rng *xrand.RNG) int {
	nb := n.adj[src]
	return nb[rng.Intn(len(nb))]
}

func (n neighborDest) prob(src, dst int) float64 {
	nb := n.adj[src]
	for _, v := range nb {
		if v == dst {
			return 1 / float64(len(nb))
		}
	}
	return 0
}

// ZipfDistance draws destinations with probability ∝ (1+d(src,dst))^−S,
// where d is the hop-count distance — a tunable locality dial between
// uniform (S = 0) and nearest-neighbor-like (large S) demand. The walk of
// §5.2 is the paper's own instance of this family; this one works on any
// topology with a distance metric.
type ZipfDistance struct {
	// S ≥ 0 is the decay exponent.
	S float64
}

// Name implements Pattern.
func (ZipfDistance) Name() string { return "zipf" }

// Bind implements Pattern.
func (z ZipfDistance) Bind(net topology.Network) (*Demand, error) {
	if z.S < 0 {
		return nil, fmt.Errorf("workload: zipf exponent %v must be >= 0", z.S)
	}
	nn := net.NumNodes()
	dist := distFunc(net)
	pmf := make([]float64, nn*nn)
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			d := dist(src, dst)
			if d < 0 {
				continue // unreachable (e.g. butterfly interior): zero mass
			}
			pmf[src*nn+dst] = math.Pow(1+float64(d), -z.S)
		}
	}
	w, err := routing.NewWeightedDest(nn, pmf)
	if err != nil {
		return nil, err
	}
	return &Demand{pattern: "zipf", net: net, sampler: w, prob: w.Prob}, nil
}

// Patterns lists the built-in patterns with their default parameters, in
// registry order.
func Patterns() []Pattern {
	return []Pattern{
		Uniform{},
		HotSpot{K: 1, Weight: 0.2},
		Transpose{},
		BitReversal{},
		BitComplement{},
		Tornado{},
		NearestNeighbor{},
		ZipfDistance{S: 2},
	}
}
