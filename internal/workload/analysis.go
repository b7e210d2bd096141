package workload

import (
	"fmt"
	"math"

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
// pair is walked through the router's steppers (randomized choice routers
// average uniformly, matching RandGreedy's fair coin) and each route adds
// its demand to every edge it crosses. The walk is exact and repeated on
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

// buildTraffic walks every route of the demand at per-node rate 1 and
// returns the flow each edge carries, λ_e = Σ over (src, dst, choice)
// routes through e of P[dst|src]/#choices, together with the demand's
// mean route length.
//
// The walk is table-driven. Routes come from tab, the route-step table the
// simulation engines share, one whole path per (src, dst, stepper) into a
// scratch buffer: on 2-D arrays with greedy routers a path is two runs of
// consecutive edge ids computed from packed coordinates, with no interface
// call, division or per-hop table read; elsewhere it is the stepper's
// NextEdge walk. Every rate receives its float additions in (src, dst,
// stepper, hop) order, so the result is fully deterministic.
func buildTraffic(net topology.Network, tab *routing.Table, demand *Demand, sources []int) ([]float64, float64) {
	numNodes := net.NumNodes()
	rates := make([]float64, net.NumEdges())
	path := make([]int32, 0, 64)
	numChoices := len(tab.Steppers)
	totalHops := 0.0
	for _, src := range sources {
		pos := tab.NodeKey[src]
		for dst := range numNodes {
			p := demand.Prob(src, dst)
			if p == 0 {
				continue
			}
			key := tab.NodeKey[dst]
			w := p / float64(numChoices)
			for choice := range uint32(numChoices) {
				path = tab.AppendPath(path[:0], pos, key, choice)
				for _, e := range path {
					totalHops += w
					rates[e] += w
				}
			}
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
