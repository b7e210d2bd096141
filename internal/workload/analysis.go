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
	// EdgeRates[e] is λ_e at per-node rate 1, from the traffic equations.
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

// Analyze lowers a Demand through the demand-matrix → queueing.Traffic
// bridge: every (source, destination) pair is walked through the router's
// steppers (randomized choice routers average uniformly, matching
// RandGreedy's fair coin) into an open-network Traffic whose traffic
// equations λ = a + λP are then solved exactly. The walk is exact and
// repeated on every call (nothing is cached across calls), and its result
// is deterministic bit for bit. svcMean optionally gives per-edge mean
// service times (nil = unit service).
func Analyze(net topology.Network, router routing.Router, demand *Demand, svcMean []float64) (*Analysis, error) {
	steppers, choose, ok := routing.Steppers(router)
	if !ok {
		return nil, fmt.Errorf("workload: router %T exposes no steppers; cannot analyze exactly", router)
	}
	if svcMean != nil && len(svcMean) != net.NumEdges() {
		return nil, fmt.Errorf("workload: svcMean has %d entries, want %d", len(svcMean), net.NumEdges())
	}
	sources := topology.Sources(net)
	var tab routing.Table
	tab.Init(net, steppers, choose, true)
	tr, meanHops := buildTraffic(net, &tab, demand, sources)
	lambda, err := solveTraffic(tr)
	if err != nil {
		return nil, err
	}
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

// buildTraffic constructs the open-network traffic description induced by
// the demand matrix at per-node rate 1: external arrivals enter at each
// route's first edge and the routing chain's transition probabilities are
// flow-weighted over all (src, dst, choice) triples. It also returns the
// demand's mean route length.
//
// The walk is table-driven. Routes come from tab, the route-step table the
// simulation engines share, one whole path per (src, dst, stepper) into a
// scratch buffer: on 2-D arrays with greedy routers a path is two runs of
// consecutive edge ids computed from packed coordinates, with no interface
// call, division or per-hop table read; elsewhere it is the stepper's
// NextEdge walk. Each edge's position among its tail's out-edges is
// tabulated once; the flow from edge e into the next edge, which leaves
// e's head at out-slot s, accumulates in flow[e*maxOut+s].
// Every accumulator receives its float additions in (src, dst, stepper,
// hop) order, and Routes[e] lists e's transitions in ascending out-slot
// order of its head, so the result is fully deterministic.
func buildTraffic(net topology.Network, tab *routing.Table, demand *Demand, sources []int) (*queueing.Traffic, float64) {
	numEdges, numNodes := net.NumEdges(), net.NumNodes()
	edgeTo := make([]int32, numEdges)
	outSlot := make([]int32, numEdges)
	// outStart/outEdge list each node's out-edges (CSR) in out-slot order.
	outStart := make([]int32, numNodes+1)
	for e := range numEdges {
		edgeTo[e] = int32(net.EdgeTo(e))
		from := net.EdgeFrom(e)
		outSlot[e] = outStart[from+1]
		outStart[from+1]++
	}
	maxOut := 0
	for v := range numNodes {
		maxOut = max(maxOut, int(outStart[v+1]))
		outStart[v+1] += outStart[v]
	}
	outEdge := make([]int32, numEdges)
	for e := range numEdges {
		outEdge[outStart[net.EdgeFrom(e)]+outSlot[e]] = int32(e)
	}

	tr := queueing.NewTraffic(numEdges)
	flow := make([]float64, numEdges*maxOut)
	through := make([]float64, numEdges)
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
				if len(path) == 0 {
					continue
				}
				edge := path[0]
				totalHops += w
				through[edge] += w
				tr.External[edge] += w
				for _, next := range path[1:] {
					totalHops += w
					through[next] += w
					flow[int(edge)*maxOut+int(outSlot[next])] += w
					edge = next
				}
			}
		}
	}

	// One backing array for every Routes[e]: count the transitions first.
	n := 0
	for _, f := range flow {
		if f != 0 {
			n++
		}
	}
	trans := make([]queueing.Transition, 0, n)
	for e := range numEdges {
		head := edgeTo[e]
		row := flow[e*maxOut:]
		begin := len(trans)
		for s, to := range outEdge[outStart[head]:outStart[head+1]] {
			if f := row[s]; f != 0 {
				trans = append(trans, queueing.Transition{To: int(to), Prob: f / through[e]})
			}
		}
		tr.Routes[e] = trans[begin:len(trans):len(trans)]
	}
	return tr, totalHops / float64(len(sources))
}

// solveTraffic solves the traffic equations, using the exact dense solver
// for small networks and the fixed-point iteration beyond it.
func solveTraffic(tr *queueing.Traffic) ([]float64, error) {
	if len(tr.External) <= 1024 {
		return tr.SolveDense()
	}
	return tr.SolveIterative(1e-12, 100000)
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
