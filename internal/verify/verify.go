// Package verify implements the misbehaving-router detection experiment:
// flagging lying nodes from end-to-end delay and delivery samples alone,
// without inspecting any router's internal state.
//
// The detector runs one light probe simulation per probe source on the
// degraded network (the same fault.Plan as the run under suspicion — the
// stateless hash selection in internal/fault guarantees the probe runs see
// the identical liar set and failure-prone entities). Each probe run
// restricts packet generation to a single source (topology.Restrict) with
// uniform destinations at a light rate, so queueing delay is near zero and
// the fault-free end-to-end delay of the path source→d is its hop count,
// exactly known from the deterministic stepper. The slotted engine's
// per-destination statistics (stepsim.Config.PerDestStats) then give, for
// every destination, the exact delivered count and mean delay over that
// source's packets.
//
// A path is judged from its per-path likelihood against the honest model:
//
//   - excess = meanDelay − hops. Honest paths at light load have excess
//     near zero (a packet occasionally waits a slot); a path through a
//     delay liar gains the liar's ExtraDelay on every transit, and a path
//     through a misroute liar gains the detour hops. excess > Threshold
//     marks the path bad.
//   - delivered shortfall. A drop liar removes packets without touching
//     delay, so the detector compares each path's delivered count to the
//     exact expectation Rate·Slots/N; a count below half expectation marks
//     the path bad.
//
// Localization uses contradiction pruning over path intersections: a bad
// path implicates every intermediate node (strictly between source and
// destination — a liar damages only packets it forwards, so endpoints are
// never evidence); a clean path (excess ≤ Threshold/2 AND delivered count
// ≥ ¾ of expectation) exonerates its intermediates. A node is a candidate
// suspect when implicated by at least MinBadPaths bad paths and exonerated
// by none. Candidates then pass a parsimony prune (the minimal-hitting-set
// reduction): a candidate whose every bad path also crosses a strictly
// more-implicated candidate is explained by that node and dropped. The
// prune removes the structural false positives of one-sided probing — a
// node whose column segment is reachable only through the liar is
// implicated by exactly the liar's bad paths and can never be exonerated,
// but it also never has evidence of its own. The residual blind spot is
// honest: a liar sitting exactly in another liar's shadow (every one of
// its bad paths through the dominator) is indistinguishable from an
// innocent shadow node; adding probe sources on the far side resolves it.
//
// The false-positive rate is controlled three times over: an honest node
// needs MinBadPaths independently noisy paths through it to be implicated
// at all, on a greedy array every node lies on many probe paths so one
// clean observation clears it, and the parsimony prune discards nodes
// whose evidence is wholly borrowed. Delay liars can never be exonerated
// (every transit adds ExtraDelay > Threshold/2 to the mean), so the
// pruning costs no detection power against them.
//
// # Worked example
//
// The fault-smoke configuration (TestFaultSmoke, `make fault-smoke`): a
// 64×64 array carrying hotspot traffic at ρ = 0.5, degraded by 1% of links
// failing (MTBF 2000, MTTR 40 slots) and 3 seeded delay liars holding
// every forwarded packet 4 extra slots. Probing 6 sources at rate 0.5 for
// 60 000 slots judges tens of thousands of source→destination paths; with
// Threshold 2 every path through a liar shows excess ≥ 4 and is bad, while
// link-failure noise (a ~0.3-hop expected excess per path) stays below
// threshold or is exonerated away, and the report names exactly the 3
// seeded liars.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/topology"
)

// Config describes one detection experiment.
type Config struct {
	// Net and Router are the network and routing policy under test. The
	// router must be a single deterministic stepper (e.g. greedy-xy): the
	// detector must know each probe path exactly to score it.
	Net    topology.Network
	Router routing.Router
	// Plan is the degradation the network runs under, including the liars
	// to be found. The detector reads only what an operator could: the
	// fault spec it probes under. Plan.Liars is touched only by Score.
	Plan *fault.Plan
	// Sources are the probe source nodes; empty picks an evenly spaced
	// spread of up to 8 nodes. On a greedy array every node is an
	// intermediate of some path from any single source, so even a small
	// spread covers the network many times over.
	Sources []int
	// Rate is the per-slot probe injection rate at each probe source
	// (default 0.5 — light enough that queueing is negligible).
	Rate float64
	// Slots is the measured probe length per source (default 40·N, giving
	// every destination ≈ 20 expected samples at the default rate); Warmup
	// is discarded first (default 200).
	Slots  int
	Warmup int
	// Seed drives the probe traffic (default 1). Independent of the fault
	// seed inside Plan.
	Seed uint64
	// Threshold is the excess-delay cutoff τ in slots (default 2): a path
	// whose mean delay exceeds hops + τ is bad, one below hops + τ/2 (with
	// healthy delivery) exonerates its intermediates.
	Threshold float64
	// MinSamples is the minimum delivered count before a path's mean delay
	// is judged at all (default 5).
	MinSamples int
	// MinBadPaths is how many bad paths must implicate a node before it is
	// suspect (default 2).
	MinBadPaths int
	// Shards is passed to the probe runs (0 = serial; probe runs are light,
	// sharding rarely pays).
	Shards int
}

// Path is one judged probe path.
type Path struct {
	Src, Dst int
	// Hops is the fault-free path length, the delay baseline.
	Hops int
	// Samples is the delivered count; MeanDelay its mean delay (0 when
	// Samples is below MinSamples) and Excess = MeanDelay − Hops.
	Samples   int64
	MeanDelay float64
	Excess    float64
	// Shortfall marks a path judged bad on delivered count.
	Shortfall bool
}

// Report is the detection outcome.
type Report struct {
	// Suspects are the flagged node ids, ascending.
	Suspects []int
	// BadPaths are the paths judged bad (the evidence).
	BadPaths []Path
	// PathsJudged counts paths with enough samples to be judged either way.
	PathsJudged int
	// Implicated[v] counts the bad paths through v; Exonerated[v] reports a
	// clean path through v.
	Implicated []int
	Exonerated []bool
}

// Score compares the report against ground-truth liars (fault.Plan.Liars):
// flagged counts suspects that are real liars, falsePositives suspects
// that are not, and missed liars not flagged.
func (r *Report) Score(liars []int32) (flagged, falsePositives, missed int) {
	truth := make(map[int]bool, len(liars))
	for _, v := range liars {
		truth[int(v)] = true
	}
	for _, v := range r.Suspects {
		if truth[v] {
			flagged++
		} else {
			falsePositives++
		}
	}
	missed = len(liars) - flagged
	return
}

// Detect runs the probe experiments and assembles the report.
func Detect(cfg Config) (*Report, error) {
	n := cfg.Net.NumNodes()
	steppers, choose := routing.Steppers(cfg.Router)
	if choose != nil || len(steppers) != 1 {
		return nil, fmt.Errorf("verify: detection needs a single deterministic stepper router (e.g. greedy-xy); %T is not one", cfg.Router)
	}
	var tab routing.Table
	tab.Init(cfg.Net, steppers, nil, true)
	if cfg.Plan == nil {
		return nil, fmt.Errorf("verify: Plan is required (bind the fault spec against Net)")
	}
	rate := cfg.Rate
	if rate == 0 {
		rate = 0.5
	}
	slots := cfg.Slots
	if slots == 0 {
		slots = 40 * n
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 200
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	tau := cfg.Threshold
	if tau == 0 {
		tau = 2
	}
	minSamples := cfg.MinSamples
	if minSamples == 0 {
		minSamples = 5
	}
	minBad := cfg.MinBadPaths
	if minBad == 0 {
		minBad = 2
	}
	sources := cfg.Sources
	if len(sources) == 0 {
		sources = defaultSources(n)
	}

	rep := &Report{
		Implicated: make([]int, n),
		Exonerated: make([]bool, n),
	}
	// badInter[i] is bad path i's intermediate set, kept for the parsimony
	// prune below.
	var badInter [][]int32
	// Expected delivered per destination under uniform probing: the exact
	// Poisson-thinning mean, known in closed form because the probe source
	// and rate are ours.
	expected := rate * float64(slots) / float64(n)
	var eng stepsim.Engine
	var inter []int32
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("verify: probe source %d out of range [0,%d)", s, n)
		}
		res, err := eng.Run(stepsim.Config{
			Net:          topology.Restrict{Network: cfg.Net, Nodes: []int{s}},
			Router:       cfg.Router,
			Dest:         routing.UniformDest{NumNodes: n},
			NodeRate:     rate,
			WarmupSlots:  warmup,
			Slots:        slots,
			Seed:         seed,
			Shards:       cfg.Shards,
			Faults:       cfg.Plan,
			PerDestStats: true,
		})
		if err != nil {
			return nil, fmt.Errorf("verify: probe from %d: %w", s, err)
		}
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			hops := tab.Hops(tab.NodeKey[s], tab.NodeKey[d], 0)
			if hops < 2 {
				continue // no intermediates: nothing to localize
			}
			count := res.DestCount[d]
			var mean, excess float64
			haveDelay := count >= int64(minSamples)
			if haveDelay {
				mean = float64(res.DestDelaySum[d]) / float64(count)
				excess = mean - float64(hops)
			}
			shortfall := expected >= 8 && float64(count) < expected/2
			bad := shortfall || (haveDelay && excess > tau)
			clean := haveDelay && excess <= tau/2 && float64(count) >= expected*0.75
			if !bad && !clean {
				// Mid-zone: too noisy to implicate, too suspicious to
				// exonerate. No evidence either way.
				if haveDelay || shortfall {
					rep.PathsJudged++
				}
				continue
			}
			rep.PathsJudged++
			inter = intermediates(&tab, s, d, inter[:0])
			if bad {
				rep.BadPaths = append(rep.BadPaths, Path{
					Src: s, Dst: d, Hops: hops, Samples: count,
					MeanDelay: mean, Excess: excess, Shortfall: shortfall,
				})
				badInter = append(badInter, append([]int32(nil), inter...))
				for _, v := range inter {
					rep.Implicated[v]++
				}
			} else {
				for _, v := range inter {
					rep.Exonerated[v] = true
				}
			}
		}
	}
	// Candidates: implicated often enough, never exonerated.
	var cand []int
	isCand := make([]bool, n)
	for v := 0; v < n; v++ {
		if rep.Implicated[v] >= minBad && !rep.Exonerated[v] {
			cand = append(cand, v)
			isCand[v] = true
		}
	}
	// Parsimony prune: index each candidate's bad paths (ascending path
	// ids), then drop any candidate strictly dominated by another — every
	// one of its bad paths also crosses a candidate with more bad paths.
	// The dominated node's evidence is wholly borrowed; the dominator
	// explains it. Domination is tested against the original candidate set
	// (a shadow chain is dominated by the liar at its head directly, so no
	// transitive pass is needed), and equal path sets keep both nodes: the
	// evidence genuinely cannot tell them apart.
	pathsThrough := make(map[int][]int, len(cand))
	for i, in := range badInter {
		for _, v := range in {
			if isCand[v] {
				pathsThrough[int(v)] = append(pathsThrough[int(v)], i)
			}
		}
	}
	for _, v := range cand {
		pv := pathsThrough[v]
		dominated := false
		for _, w := range cand {
			if w != v && len(pathsThrough[w]) > len(pv) && subsetInts(pv, pathsThrough[w]) {
				dominated = true
				break
			}
		}
		if !dominated {
			rep.Suspects = append(rep.Suspects, v)
		}
	}
	sort.Ints(rep.Suspects)
	return rep, nil
}

// subsetInts reports a ⊆ b for ascending int slices.
func subsetInts(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// intermediates appends the nodes strictly between src and dst on the
// stepper path (endpoints excluded: a liar damages only packets it
// forwards, so a path's endpoints are never evidence about themselves).
func intermediates(tab *routing.Table, src, dst int, buf []int32) []int32 {
	pos, key := tab.NodeKey[src], tab.NodeKey[dst]
	for {
		edge, done := tab.Next(pos, key, 0)
		if done {
			return buf
		}
		pos = tab.EdgeKey[edge]
		if pos != key {
			buf = append(buf, tab.NodeOf(pos))
		}
	}
}

// defaultSources spreads up to 8 probe sources evenly over the id space,
// at interval midpoints so corners are avoided.
func defaultSources(n int) []int {
	k := 8
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		s := (2*i + 1) * n / (2 * k)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
