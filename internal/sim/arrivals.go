package sim

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// ArrivalProcess generalizes the merged Poisson packet source: it is the
// point process of packet-generation instants summed over all source nodes.
// Each firing generates one packet at a uniformly random source, exactly
// like the default merged exponential clock, so swapping the process
// changes only the arrival-time sequence, not the spatial traffic split
// (that is the DestSampler's job).
//
// Implementations live in internal/workload (MMPP/on-off bursty sources,
// deterministic periodic injection); the engine keeps the process in the
// same two out-of-tree scalars as the default clock, so a non-allocating
// Next keeps the steady state allocation-free.
type ArrivalProcess interface {
	// Rate returns the long-run mean arrival rate of the merged stream
	// (packets per unit time summed over all sources). The engine uses it
	// to size measurement batches and the stability check divides it by
	// the source count to recover the effective per-node rate.
	Rate() float64
	// Next returns the absolute time of the first arrival strictly after
	// t, advancing any internal state (burst phase, residual phase clock)
	// using rng. The first call of a run passes t = 0. Returning +Inf
	// ends the stream.
	Next(t float64, rng *xrand.RNG) float64
}

// DemandDist is implemented by destination samplers that can report their
// exact destination distribution (internal/workload demands, and the
// adapters in internal/routing). When a Config's Dest implements it and
// the router is steppable, Run checks the pattern-implied per-edge
// utilizations before simulating and refuses unstable configurations
// unless Config.AllowUnstable is set.
type DemandDist interface {
	// Prob returns P[dst | src], the probability that a packet generated
	// at src is destined for dst. Rows must sum to 1 over dst.
	Prob(src, dst int) float64
}

// perNodeRate returns the effective mean generation rate per source node.
func (c *Config) perNodeRate(arrivals ArrivalProcess, numSources int) float64 {
	if arrivals != nil {
		return arrivals.Rate() / float64(numSources)
	}
	return c.NodeRate
}

// checkStability rejects configurations whose destination distribution and
// router imply a per-edge arrival rate at or above the edge's service
// rate: such a run never reaches steady state and its measured delays are
// horizon artifacts, so failing loudly beats producing garbage. The check
// only fires when the exact demand is knowable — Dest implements
// DemandDist and the router exposes steppers (randomized choice routers
// are averaged uniformly over their steppers, which matches RandGreedy's
// fair coin) — so plain UniformDest configs pay nothing.
func (c *Config) checkStability(arrivals ArrivalProcess) error {
	dist, ok := c.Dest.(DemandDist)
	if !ok {
		return nil
	}
	steppers, choose, ok := routing.Steppers(c.Router)
	if !ok {
		return nil
	}
	sources := topology.Sources(c.Net)
	perNode := c.perNodeRate(arrivals, len(sources))
	if perNode == 0 {
		return nil
	}
	var tab routing.Table
	tab.Init(c.Net, steppers, choose, true)
	rates := impliedEdgeRates(c.Net, &tab, dist, sources, perNode)
	for e, rate := range rates {
		svc := 1.0
		if c.ServiceTime != nil {
			svc = c.ServiceTime[e]
		}
		if util := rate * svc; util >= 1 {
			return fmt.Errorf(
				"sim: unstable config: edge %d (%d->%d) has pattern-implied utilization %.4f >= 1 at per-node rate %.6g; lower the load or set AllowUnstable",
				e, c.Net.EdgeFrom(e), c.Net.EdgeTo(e), util, perNode)
		}
	}
	return nil
}

// impliedEdgeRates walks every (source, destination) pair through the
// route-step table and accumulates λ_e = Σ perNode·P[dst|src] over the
// edges of each route, averaging uniformly over stepper choices.
func impliedEdgeRates(net topology.Network, tab *routing.Table, dist DemandDist, sources []int, perNode float64) []float64 {
	rates := make([]float64, net.NumEdges())
	numChoices := len(tab.Steppers)
	for _, src := range sources {
		for dst := 0; dst < net.NumNodes(); dst++ {
			p := dist.Prob(src, dst)
			if p == 0 {
				continue
			}
			w := perNode * p / float64(numChoices)
			key := tab.NodeKey[dst]
			for choice := range uint32(numChoices) {
				for pos := tab.NodeKey[src]; pos != key; {
					edge, done := tab.Next(pos, key, choice)
					if done {
						break
					}
					rates[edge] += w
					pos = tab.EdgeKey[edge]
				}
			}
		}
	}
	return rates
}
