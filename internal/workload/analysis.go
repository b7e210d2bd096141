package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/queueing"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Analysis is the exact traffic view of (demand, router) on a network,
// computed before any packet is simulated. All rate quantities are stored
// at a per-node generation rate of 1 and scale linearly, so one Analysis
// answers every load point of a sweep.
type Analysis struct {
	// EdgeRates[e] is λ_e at per-node rate 1: the demand-weighted flow of
	// every route that crosses e.
	EdgeRates []float64
	// Util[e] is ρ_e = λ_e·s_e at per-node rate 1.
	Util []float64
	// Bottleneck is the edge with the largest utilization and UtilPerRate
	// its utilization at per-node rate 1, so at per-node rate λ the
	// saturating edge runs at λ·UtilPerRate.
	Bottleneck  int
	UtilPerRate float64
	// LambdaStar is the analytic saturation rate λ* = 1/UtilPerRate: the
	// per-node generation rate at which the bottleneck edge reaches
	// utilization 1 (Theorem 6's stability boundary for this demand).
	LambdaStar float64
	// MeanHops is the expected route length n̄ under the demand.
	MeanHops float64

	svcMean    []float64
	numSources int
}

// Analyze lowers a Demand to per-edge rates: every (source, destination)
// route of the router's steppers carries its demand across the edges it
// crosses (randomized choice routers average uniformly, matching
// RandGreedy's fair coin). Routes are not walked pair by pair: for each
// destination and choice they form an in-forest, and buildTraffic pushes
// each node's flow once along it. The analysis is exact and repeated on
// every call (nothing is cached across calls), and its result is
// deterministic bit for bit. svcMean optionally gives per-edge mean
// service times (nil = unit service).
func Analyze(net topology.Network, router routing.Router, demand *Demand, svcMean []float64) (*Analysis, error) {
	steppers, choose := routing.Steppers(router)
	if svcMean != nil && len(svcMean) != net.NumEdges() {
		return nil, fmt.Errorf("workload: svcMean has %d entries, want %d", len(svcMean), net.NumEdges())
	}
	sources := topology.Sources(net)
	var tab routing.Table
	tab.Init(net, steppers, choose, true)
	lambda, meanHops := buildTraffic(net, &tab, demand, sources)
	util, err := queueing.Utilizations(lambda, svcMean)
	if err != nil {
		return nil, err
	}
	bottleneck, maxUtil := queueing.Bottleneck(util)
	a := &Analysis{
		EdgeRates:   lambda,
		Util:        util,
		Bottleneck:  bottleneck,
		UtilPerRate: maxUtil,
		LambdaStar:  math.Inf(1),
		MeanHops:    meanHops,
		svcMean:     svcMean,
		numSources:  len(sources),
	}
	if maxUtil > 0 {
		a.LambdaStar = 1 / maxUtil
	}
	return a, nil
}

// sender is one source of a destination's demand: its node and the weight
// P[dst|src]/#choices it puts on each stepper choice's route.
type sender struct {
	node int32
	w    float64
}

// appendSenders appends the sources with demand for dst to senders, each
// weighted per stepper choice, leaving out dst itself (a zero-hop route
// crosses no edge).
func appendSenders(senders []sender, demand *Demand, sources []int, dst, numChoices int) []sender {
	for _, src := range sources {
		if src == dst {
			continue
		}
		if p := demand.Prob(src, dst); p != 0 {
			senders = append(senders, sender{int32(src), p / float64(numChoices)})
		}
	}
	return senders
}

// buildTraffic returns the flow each edge carries at per-node rate 1,
// λ_e = Σ over (src, dst, choice) routes through e of P[dst|src]/#choices,
// together with the demand's mean route length.
//
// No route is walked per pair. A stepper's next edge depends only on the
// current node and the destination (§1.1), so for one destination d and
// stepper choice c the routes of all sources form an in-forest rooted at
// d. For each (d, c), in that order:
//
//  1. Find the forest: walk from each source that sends to d, through the
//     route-step table tab, until the route meets a node already found
//     (or d). Each node's out edge is looked up once.
//  2. Seed each source's flow with its weight.
//  3. Push the flows toward d, the walks last to first and each walk from
//     its source on. A node's predecessors come before it in its own walk
//     or lie in a later walk (an earlier walk would have taken the node
//     in), so every node's inflow is complete before it moves on; no sort
//     by remaining hops is needed. A push adds the node's flow to its out
//     edge's rate, to the next node's flow and to the forest's total
//     route length.
//
// Dense demand (uniform, hotspot, zipf) so costs O(N) per (d, c) instead
// of O(N · hops), and sparse demand (a permutation) costs the hops of its
// routes, as walking each pair would. The float additions happen in a
// fixed order, so the result is deterministic bit for bit. Summing each
// forest's route length apart before adding it to the total keeps
// MeanHops within a few ulps of exact (TestAnalysisNearExact).
func buildTraffic(net topology.Network, tab *routing.Table, demand *Demand, sources []int) ([]float64, float64) {
	numNodes, numEdges := net.NumNodes(), net.NumEdges()
	rates := make([]float64, numEdges)
	edgeTo := make([]int32, numEdges)
	for e := range edgeTo {
		edgeTo[e] = int32(net.EdgeTo(e))
	}
	// mark[v] == forest once v is found in the current forest; out[v] is
	// then v's out edge and flow[v] the flow it carries.
	mark := make([]int32, numNodes)
	out := make([]int32, numNodes)
	flow := make([]float64, numNodes)
	senders := make([]sender, 0, len(sources))
	found := make([]int32, 0, numNodes) // the forest's nodes, each walk reversed
	keys := tab.NodeKey
	numChoices := len(tab.Steppers)
	forest := int32(0)
	totalHops := 0.0
	for dst := range numNodes {
		senders = appendSenders(senders[:0], demand, sources, dst, numChoices)
		if len(senders) == 0 {
			continue
		}
		key := keys[dst]
		for choice := range uint32(numChoices) {
			forest++
			mark[dst] = forest
			found = found[:0]
			for _, s := range senders {
				start := len(found)
				for v := s.node; mark[v] != forest; v = edgeTo[out[v]] {
					mark[v], flow[v] = forest, 0
					out[v], _ = tab.Next(keys[v], key, choice)
					found = append(found, v)
				}
				if len(found)-start > 1 {
					slices.Reverse(found[start:])
				}
				flow[s.node] += s.w
			}
			// Read backward, found lists the walks last to first, each
			// from its source on. A node's predecessors lie before it in
			// its own walk or in later walks, so its inflow is complete
			// when it pushes.
			hops := 0.0
			for i := len(found) - 1; i >= 0; i-- {
				v := found[i]
				f, e := flow[v], out[v]
				rates[e] += f
				flow[edgeTo[e]] += f
				hops += f
			}
			totalHops += hops
		}
	}
	return rates, totalHops / float64(len(sources))
}

// UtilAt returns the bottleneck utilization at per-node rate perNode.
func (a *Analysis) UtilAt(perNode float64) float64 { return perNode * a.UtilPerRate }

// MD1DelayAt returns the per-queue M/D/1 (or M/G/1 with the configured
// deterministic means) independence estimate of the mean packet delay at
// per-node rate perNode: T = Σ_e L_e / Λ by Little's law, +Inf at or
// beyond saturation. It is the pattern-aware generalization of §4.2's
// estimate, exact per queue but ignoring inter-queue dependence.
func (a *Analysis) MD1DelayAt(perNode float64) float64 {
	if a.UtilAt(perNode) >= 1 {
		return math.Inf(1)
	}
	totalArrival := perNode * float64(a.numSources)
	if totalArrival == 0 {
		return 0
	}
	totalN := 0.0
	for e, rate := range a.EdgeRates {
		s := 1.0
		if a.svcMean != nil {
			s = a.svcMean[e]
		}
		n, err := queueing.MD1Number(rate*perNode, s)
		if err != nil {
			return math.Inf(1)
		}
		totalN += n
	}
	return totalN / totalArrival
}
