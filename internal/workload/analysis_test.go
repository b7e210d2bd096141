package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"os"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// analyzeCase is one (topology, router, pattern) input to Analyze.
type analyzeCase struct {
	name   string
	net    topology.Network
	router routing.Router
	demand *Demand
}

// specCase binds a declarative topology/router/pattern triple.
func specCase(t *testing.T, topo TopologySpec, router string, pat PatternSpec) analyzeCase {
	t.Helper()
	net, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildRouter(router, net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pat.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Bind(net)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s/%s/%s", net.Name(), pat.String(), router)
	return analyzeCase{name: name, net: net, router: r, demand: d}
}

// butterflyCase is the butterfly of §4.5 under uniform output-level
// demand, the one topology no TopologySpec names.
func butterflyCase(d int) analyzeCase {
	b := topology.NewButterfly(d)
	p := 1 / float64(b.Rows())
	demand := &Demand{
		pattern: "butterfly-uniform",
		net:     b,
		sampler: routing.ButterflyUniformDest{B: b},
		prob: func(_, dst int) float64 {
			if level, _ := b.NodeInfo(dst); level == b.D() {
				return p
			}
			return 0
		},
	}
	return analyzeCase{name: b.Name() + "/uniform-out", net: b, router: routing.ButterflyRoute{B: b}, demand: demand}
}

// analyzeGolden pins one Analyze result bit for bit.
type analyzeGolden struct {
	lambdaStar, utilPerRate, meanHops uint64 // math.Float64bits
	bottleneck                        int
	ratesSHA                          string // SHA-256 over EdgeRates' Float64bits
}

func ratesDigest(rates []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range rates {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenInputs spans every topology, the deterministic and randomized
// array routers, several patterns, and a larger array (array(17), 1088
// edges).
func goldenInputs(t *testing.T) []analyzeCase {
	array6 := TopologySpec{Kind: "array", N: 6}
	var cases []analyzeCase
	for _, pat := range []PatternSpec{{Kind: "uniform"}, {Kind: "hotspot"}, {Kind: "transpose"}} {
		for _, router := range []string{"greedy-xy", "rand-greedy"} {
			cases = append(cases, specCase(t, array6, router, pat))
		}
	}
	cases = append(cases,
		specCase(t, TopologySpec{Kind: "array", N: 8}, "greedy-xy", PatternSpec{Kind: "bitrev"}),
		specCase(t, TopologySpec{Kind: "torus", N: 5}, "torus-greedy", PatternSpec{Kind: "uniform"}),
		specCase(t, TopologySpec{Kind: "linear", N: 9}, "linear", PatternSpec{Kind: "uniform"}),
		specCase(t, TopologySpec{Kind: "kd", N: 4, K: 3}, "greedy-kd", PatternSpec{Kind: "uniform"}),
		specCase(t, TopologySpec{Kind: "cube", D: 4}, "cube-greedy", PatternSpec{Kind: "uniform"}),
		butterflyCase(3),
		specCase(t, TopologySpec{Kind: "array", N: 17}, "greedy-xy", PatternSpec{Kind: "hotspot"}),
	)
	return cases
}

// TestAnalyzeGolden pins Analyze's output on goldenInputs Float64bits-exact.
// Regenerate with:
//
//	WORKLOAD_GOLDEN_PRINT=1 go test ./internal/workload -run TestAnalyzeGolden -v
func TestAnalyzeGolden(t *testing.T) {
	golden := map[string]analyzeGolden{
		"array2d(6)/uniform/greedy-xy":               {0x3fe5555555555555, 0x3ff8000000000000, 0x400f1c71c71c71c5, 62, "e6e5ddf895523ddeef827325635ad3f4bc8fbce30ed1f7a74268f8d8a1fa2d2c"},
		"array2d(6)/uniform/rand-greedy":             {0x3fe5555555555553, 0x3ff8000000000003, 0x400f1c71c71c71c9, 2, "92ac1c213659f5ab78957e5343e3cd0ef9d3ec16f55868691e5a1d7059e9edb0"},
		"array2d(6)/hotspot(k=1,w=0.20)/greedy-xy":   {0x3fcaaaaaaaaaaaaa, 0x4013333333333334, 0x400db05b05b05b09, 102, "89da8a42b5a7ca8ded040154be34b160360178ccdea97af8106289cb72666f3d"},
		"array2d(6)/hotspot(k=1,w=0.20)/rand-greedy": {0x3fd364d9364d9364, 0x400a666666666667, 0x400db05b05b05b00, 102, "f70d96e632fe98857de3536714aeb183e7de6415800992d071485bfd9b725323"},
		"array2d(6)/transpose/greedy-xy":             {0x3fc999999999999a, 0x4014000000000000, 0x400f1c71c71c71c7, 29, "bf9cff63cb20d8e07b767b89b142b1f844655fcc7f5c125368d68c2726122c47"},
		"array2d(6)/transpose/rand-greedy":           {0x3fd999999999999a, 0x4004000000000000, 0x400f1c71c71c71c7, 0, "ce903827e3763a81f6a3f7ef13c6ac78d113cfbb65ccbbd6a8f79f2ba794ee04"},
		"array2d(8)/bitrev/greedy-xy":                {0x3fe0000000000000, 0x4000000000000000, 0x4008000000000000, 3, "aa407191d52c5dcdcd37c06e490f924d5a5cd178f8c6f3545c659ddbeb6cae50"},
		"torus2d(5)/uniform/torus-greedy":            {0x3ffaaaaaaaaaaaaa, 0x3fe3333333333334, 0x4003333333333333, 50, "41bd0ddd42f28917750c5b9cbaed9214bc09dc63fbe367ade92a9f458f1acbcb"},
		"linear(9)/uniform/linear":                   {0x3fdccccccccccccc, 0x4001c71c71c71c72, 0x4007b425ed097b43, 3, "666fe048a1289e4731c343a6f62401b110bb602ccce143ee93378b634a69d415"},
		"arraykd[4 4 4]/uniform/greedy-kd":           {0x3ff0000000000000, 0x3ff0000000000000, 0x400e000000000000, 1, "6cc71bd48a9e504f6fcf342ab8a5f4f7b8790d6cfcc32b709c9a82cd8763ff1f"},
		"hypercube(4)/uniform/cube-greedy":           {0x4000000000000000, 0x3fe0000000000000, 0x4000000000000000, 0, "e9c6aa0ac51a207068a6ca0b27702a4248e05aa673189814450b6bb5fef17311"},
		"butterfly(3)/uniform-out":                   {0x4000000000000000, 0x3fe0000000000000, 0x4008000000000000, 0, "53b43150a212ccebe8a309973ec2f9d7db1a49e5321c19dc172c1ead89b23ddd"},
		"array2d(17)/hotspot(k=1,w=0.20)/greedy-xy":  {0x3fa0bd0bd0bd0bd2, 0x403e969696969695, 0x4025757575757578, 952, "7960de7ce07ad5bdf9bf0f5204bc9195b43d3ddd3be7a96c9027b7470bab4716"},
	}
	regen := os.Getenv("WORKLOAD_GOLDEN_PRINT") != ""
	for _, c := range goldenInputs(t) {
		an, err := Analyze(c.net, c.router, c.demand, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := analyzeGolden{
			lambdaStar:  math.Float64bits(an.LambdaStar),
			utilPerRate: math.Float64bits(an.UtilPerRate),
			meanHops:    math.Float64bits(an.MeanHops),
			bottleneck:  an.Bottleneck,
			ratesSHA:    ratesDigest(an.EdgeRates),
		}
		if regen {
			fmt.Printf("\t%q: {%#x, %#x, %#x, %d, %q},\n",
				c.name, got.lambdaStar, got.utilPerRate, got.meanHops, got.bottleneck, got.ratesSHA)
			continue
		}
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden recorded", c.name)
			continue
		}
		if got != want {
			t.Errorf("%s: Analyze drifted\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// checkConservation asserts the invariants of one analysis. The route
// table's generic stepper path must give the same bits as the default
// (possibly closed-form) table, and the same mean route length as the
// Analysis. The forest must match the pair-walk oracle (checkPairWalk).
// The rates must conserve flow, Σ_e λ_e = n̄ · #sources at per-node rate 1
// (every hop of every route lands on exactly one edge), and balance at
// every node (checkNodeBalance).
func checkConservation(tb testing.TB, net topology.Network, router routing.Router, demand *Demand, an *Analysis) {
	tb.Helper()
	steppers, choose := routing.Steppers(router)
	sources := topology.Sources(net)
	var tab, generic routing.Table
	tab.Init(net, steppers, choose, true)
	generic.Init(net, steppers, choose, false)
	rates, meanHops := buildTraffic(net, &tab, demand, sources)
	ratesGeneric, meanHopsGeneric := buildTraffic(net, &generic, demand, sources)
	if math.Float64bits(meanHops) != math.Float64bits(meanHopsGeneric) || !reflect.DeepEqual(rates, ratesGeneric) {
		tb.Fatalf("%s: closed-form and generic route tables gave different rates", net.Name())
	}
	if math.Float64bits(meanHops) != math.Float64bits(an.MeanHops) {
		tb.Fatalf("%s: rebuilt mean hops %v != analysis %v", net.Name(), meanHops, an.MeanHops)
	}
	checkPairWalk(tb, net, &tab, demand, sources, an)
	sum := 0.0
	for _, r := range an.EdgeRates {
		sum += r
	}
	want := an.MeanHops * float64(len(sources))
	if math.Abs(sum-want) > 1e-9*math.Abs(want) {
		tb.Fatalf("%s: sum of edge rates %v != mean hops x sources %v", net.Name(), sum, want)
	}
	checkNodeBalance(tb, net, demand, sources, an.EdgeRates)
}

// appendRoute appends the route from key pos to key dst under stepper
// choice to buf, one Table.Next step at a time.
func appendRoute(buf []int32, tab *routing.Table, pos, dst int32, choice uint32) []int32 {
	for {
		e, done := tab.Next(pos, dst, choice)
		if done {
			return buf
		}
		buf = append(buf, e)
		pos = tab.EdgeKey[e]
	}
}

// pairWalkTraffic is the traffic analysis the forest replaced, kept as its
// test oracle: every (source, destination, choice) route is walked hop by
// hop through tab, adding its weight P[dst|src]/#choices to every edge it
// crosses, in (src, dst, choice, hop) order.
func pairWalkTraffic(net topology.Network, tab *routing.Table, demand *Demand, sources []int) ([]float64, float64) {
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
				path = appendRoute(path[:0], tab, pos, key, choice)
				for _, e := range path {
					totalHops += w
					rates[e] += w
				}
			}
		}
	}
	return rates, totalHops / float64(len(sources))
}

// oracleRateTol and oracleMeanTol are the relative distances allowed
// between the forest and the pair walk, per edge rate and for MeanHops.
// Both add the same positive terms in different orders, so neither
// cancels, and recursive summation of n positive terms is within (n−1)·2⁻⁵³
// of exact. A rate takes at most one term per route crossing it, while the
// pair walk's MeanHops adds every hop of every route into one float: on
// array2d(17) hotspot its MeanHops lies 41 448 ulps (6.9·10⁻¹²) from exact
// where the forest's lies 2, so MeanHops gets the wider bound.
const (
	oracleRateTol = 1e-12
	oracleMeanTol = 1e-9
)

// checkPairWalk compares an analysis with the pair-walk oracle: within
// oracleRateTol and oracleMeanTol in general, and bit for bit when every sum both form is
// exact (dyadicExact), as under uniform demand on a power-of-two node
// count.
func checkPairWalk(tb testing.TB, net topology.Network, tab *routing.Table, demand *Demand, sources []int, an *Analysis) {
	tb.Helper()
	rates, meanHops := pairWalkTraffic(net, tab, demand, sources)
	if dyadicExact(demand, sources, net.NumNodes(), len(tab.Steppers), meanHops*float64(len(sources))) {
		if math.Float64bits(meanHops) != math.Float64bits(an.MeanHops) || !reflect.DeepEqual(rates, an.EdgeRates) {
			tb.Fatalf("%s: forest differs from the pair walk on exact (dyadic) sums", net.Name())
		}
		return
	}
	for e, r := range rates {
		if !withinRel(an.EdgeRates[e], r, oracleRateTol) {
			tb.Fatalf("%s: edge %d forest rate %v, pair walk %v", net.Name(), e, an.EdgeRates[e], r)
		}
	}
	if !withinRel(an.MeanHops, meanHops, oracleMeanTol) {
		tb.Fatalf("%s: forest mean hops %v, pair walk %v", net.Name(), an.MeanHops, meanHops)
	}
}

func withinRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*max(math.Abs(a), math.Abs(b))
}

// dyadicExact reports whether every sum the traffic analysis forms is
// exact in float64, whatever the order: each weight P[dst|src]/#choices is
// an integer multiple of one power of two g, and the largest sum, the
// total route length totalHops, stays below 2⁵²·g (a bit of margin for
// totalHops being itself a float estimate). Every flow and rate is then a
// multiple of g no larger than totalHops.
func dyadicExact(demand *Demand, sources []int, numNodes, numChoices int, totalHops float64) bool {
	g := math.Inf(1)
	for _, src := range sources {
		for dst := range numNodes {
			p := demand.Prob(src, dst)
			if p == 0 || src == dst {
				continue
			}
			frac, exp := math.Frexp(p / float64(numChoices))
			mant := uint64(math.Ldexp(frac, 53))
			g = min(g, math.Ldexp(1, exp-53+bits.TrailingZeros64(mant)))
		}
	}
	return totalHops < math.Ldexp(g, 52)
}

// exactTraffic is pairWalkTraffic summed in 256-bit big.Float, rounded to
// float64 only at the end. The terms are float64 weights spanning far
// fewer than 256 bits of binary range, so every sum is exact.
func exactTraffic(net topology.Network, tab *routing.Table, demand *Demand, sources []int) ([]float64, float64) {
	const prec = 256
	sums := make([]big.Float, net.NumEdges())
	for e := range sums {
		sums[e].SetPrec(prec)
	}
	total := new(big.Float).SetPrec(prec)
	w := new(big.Float).SetPrec(prec)
	numChoices := len(tab.Steppers)
	path := make([]int32, 0, 64)
	for _, src := range sources {
		for dst := range net.NumNodes() {
			p := demand.Prob(src, dst)
			if p == 0 {
				continue
			}
			w.SetFloat64(p / float64(numChoices))
			for choice := range uint32(numChoices) {
				path = appendRoute(path[:0], tab, tab.NodeKey[src], tab.NodeKey[dst], choice)
				for _, e := range path {
					sums[e].Add(&sums[e], w)
					total.Add(total, w)
				}
			}
		}
	}
	rates := make([]float64, len(sums))
	for e := range sums {
		rates[e], _ = sums[e].Float64()
	}
	mean, _ := total.Quo(total, new(big.Float).SetInt64(int64(len(sources)))).Float64()
	return rates, mean
}

// ulpDist is the distance between two non-negative floats in units in the
// last place.
func ulpDist(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	return max(d, -d)
}

// TestAnalysisNearExact bounds how far the forest's rates and MeanHops lie
// from the exact traffic (exactTraffic) on every golden input, and logs
// the pair walk's distance beside it. The forest adds at most N·#choices
// flows into a rate, where the pair walk adds up to one weight per route
// crossing it, so the forest is the closer of the two.
func TestAnalysisNearExact(t *testing.T) {
	const maxRateULP, maxMeanULP = 64, 8
	for _, c := range goldenInputs(t) {
		steppers, choose := routing.Steppers(c.router)
		sources := topology.Sources(c.net)
		var tab routing.Table
		tab.Init(c.net, steppers, choose, true)
		exact, exactMean := exactTraffic(c.net, &tab, c.demand, sources)
		forest, forestMean := buildTraffic(c.net, &tab, c.demand, sources)
		pair, pairMean := pairWalkTraffic(c.net, &tab, c.demand, sources)
		var forestULP, pairULP int64
		for e := range exact {
			forestULP = max(forestULP, ulpDist(forest[e], exact[e]))
			pairULP = max(pairULP, ulpDist(pair[e], exact[e]))
		}
		t.Logf("%s: max rate ulps forest %d, pair walk %d; mean hops ulps forest %d, pair walk %d",
			c.name, forestULP, pairULP, ulpDist(forestMean, exactMean), ulpDist(pairMean, exactMean))
		if forestULP > maxRateULP {
			t.Errorf("%s: a forest rate lies %d ulps from exact, want <= %d", c.name, forestULP, maxRateULP)
		}
		if d := ulpDist(forestMean, exactMean); d > maxMeanULP {
			t.Errorf("%s: forest mean hops lies %d ulps from exact, want <= %d", c.name, d, maxMeanULP)
		}
	}
}

// checkNodeBalance asserts flow balance at every node v at per-node rate 1:
// Σ λ into v − Σ λ out of v equals the demand that ends at v minus the
// demand that starts at v, counting only sources and leaving out
// zero-hop (src == dst) pairs.
func checkNodeBalance(tb testing.TB, net topology.Network, demand *Demand, sources []int, rates []float64) {
	tb.Helper()
	numNodes := net.NumNodes()
	in := make([]float64, numNodes)
	out := make([]float64, numNodes)
	for e, r := range rates {
		in[net.EdgeTo(e)] += r
		out[net.EdgeFrom(e)] += r
	}
	ends := make([]float64, numNodes)
	starts := make([]float64, numNodes)
	for _, src := range sources {
		for dst := range numNodes {
			if dst == src {
				continue
			}
			p := demand.Prob(src, dst)
			ends[dst] += p
			starts[src] += p
		}
	}
	for v := range numNodes {
		got, want := in[v]-out[v], ends[v]-starts[v]
		if math.Abs(got-want) > 1e-9*(in[v]+out[v]+ends[v]+starts[v]) {
			tb.Fatalf("%s: node %d inflow-outflow %v != demand ending-starting %v", net.Name(), v, got, want)
		}
	}
}

// TestAnalysisConservation checks checkConservation, and with it the
// pair-walk oracle, on every registry scenario TestRegistryScenariosBind
// binds and on every golden input.
func TestAnalysisConservation(t *testing.T) {
	for _, s := range Registry() {
		b, err := s.Bind()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		checkConservation(t, b.Net, b.Router, b.Demand, b.Analysis)
	}
	for _, c := range goldenInputs(t) {
		an, err := Analyze(c.net, c.router, c.demand, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkConservation(t, c.net, c.router, c.demand, an)
	}
}
