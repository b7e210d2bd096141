package bounds

import (
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// DestDist gives the probability that a packet generated at src is destined
// for dst. Implementations must sum to 1 over dst for each src.
type DestDist func(src, dst int) float64

// UniformDist returns the uniform destination distribution over all nodes
// of net (the paper's standard model).
func UniformDist(net topology.Network) DestDist {
	p := 1 / float64(net.NumNodes())
	return func(_, _ int) float64 { return p }
}

// UniformOverDist returns the uniform distribution over the given node set
// (e.g. a butterfly's output level).
func UniformOverDist(nodes []int) DestDist {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	p := 1 / float64(len(nodes))
	return func(_, dst int) float64 {
		if in[dst] {
			return p
		}
		return 0
	}
}

// ExactEdgeRates computes the total packet arrival rate on every edge by
// enumerating all (source, destination) pairs under a deterministic router:
// λ_e = Σ_{s,d : e ∈ route(s,d)} nodeRate·P[d|s]. This is the combinatorial
// computation behind Theorem 6, usable for any topology and destination
// distribution, and it cross-validates both the closed forms and the
// table-driven route walk behind workload.Analyze.
//
// dests may be nil to consider every node a possible destination.
func ExactEdgeRates(net topology.Network, r routing.Router, nodeRate float64, dist DestDist, dests []int) []float64 {
	rates := make([]float64, net.NumEdges())
	if dests == nil {
		dests = allNodes(net)
	}
	var buf []int
	// Deterministic routers ignore the RNG; pass one anyway so a mistakenly
	// randomized router fails loudly in tests rather than panicking here.
	rng := xrand.New(0)
	for _, src := range topology.Sources(net) {
		for _, dst := range dests {
			w := nodeRate * dist(src, dst)
			if w == 0 {
				continue
			}
			buf = r.AppendRoute(buf[:0], src, dst, rng)
			for _, e := range buf {
				rates[e] += w
			}
		}
	}
	return rates
}

// MeanRouteLen returns the expected route length under a deterministic
// router and destination distribution (the general n̄).
func MeanRouteLen(net topology.Network, r routing.Router, dist DestDist, dests []int) float64 {
	if dests == nil {
		dests = allNodes(net)
	}
	srcs := topology.Sources(net)
	var buf []int
	rng := xrand.New(0)
	total := 0.0
	for _, src := range srcs {
		for _, dst := range dests {
			w := dist(src, dst)
			if w == 0 {
				continue
			}
			buf = r.AppendRoute(buf[:0], src, dst, rng)
			total += w * float64(len(buf))
		}
	}
	return total / float64(len(srcs))
}

func allNodes(net topology.Network) []int {
	nodes := make([]int, net.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}
