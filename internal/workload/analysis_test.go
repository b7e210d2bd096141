package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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
		"array2d(6)/uniform/greedy-xy":               {0x3fe555555555555c, 0x3ff7fffffffffff9, 0x400f1c71c71c6df0, 2, "85657935c9ab77b53f173000df8fbdb1486e1dd43ab71cc5199b55ebfe24a7e8"},
		"array2d(6)/uniform/rand-greedy":             {0x3fe5555555555563, 0x3ff7fffffffffff1, 0x400f1c71c71c6bf9, 2, "bbdb1a83f202bd7e0ba0e43f230bb5373ffb654fa329e438771fd593c4b683b2"},
		"array2d(6)/hotspot(k=1,w=0.20)/greedy-xy":   {0x3fcaaaaaaaaaaaab, 0x4013333333333333, 0x400db05b05b05d9b, 102, "cd266d90252af8eae372b710673b4c5c135d0ad83900c3f5aa924f720a15a889"},
		"array2d(6)/hotspot(k=1,w=0.20)/rand-greedy": {0x3fd364d9364d9367, 0x400a666666666663, 0x400db05b05b05774, 102, "564119b43f3993bdea96002846fbf11198d127fa0c3b301fc448b3fddfd2fdf5"},
		"array2d(6)/transpose/greedy-xy":             {0x3fc999999999999a, 0x4014000000000000, 0x400f1c71c71c71c7, 29, "bf9cff63cb20d8e07b767b89b142b1f844655fcc7f5c125368d68c2726122c47"},
		"array2d(6)/transpose/rand-greedy":           {0x3fd999999999999a, 0x4004000000000000, 0x400f1c71c71c71c7, 0, "ce903827e3763a81f6a3f7ef13c6ac78d113cfbb65ccbbd6a8f79f2ba794ee04"},
		"array2d(8)/bitrev/greedy-xy":                {0x3fe0000000000000, 0x4000000000000000, 0x4008000000000000, 3, "aa407191d52c5dcdcd37c06e490f924d5a5cd178f8c6f3545c659ddbeb6cae50"},
		"torus2d(5)/uniform/torus-greedy":            {0x3ffaaaaaaaaaaaab, 0x3fe3333333333333, 0x40033333333332d0, 0, "e911af7bde027fcf0de2019ff1a0948c980594274c9ab77ad18c94fed376bfd3"},
		"linear(9)/uniform/linear":                   {0x3fdccccccccccccb, 0x4001c71c71c71c73, 0x4007b425ed097b2f, 3, "06d809a3037b6b484eb635e225ad65b2cba08919a4a5cc85ba336e2c6b676173"},
		"arraykd[4 4 4]/uniform/greedy-kd":           {0x3ff0000000000000, 0x3ff0000000000000, 0x400e000000000000, 1, "6cc71bd48a9e504f6fcf342ab8a5f4f7b8790d6cfcc32b709c9a82cd8763ff1f"},
		"hypercube(4)/uniform/cube-greedy":           {0x4000000000000000, 0x3fe0000000000000, 0x4000000000000000, 0, "e9c6aa0ac51a207068a6ca0b27702a4248e05aa673189814450b6bb5fef17311"},
		"butterfly(3)/uniform-out":                   {0x4000000000000000, 0x3fe0000000000000, 0x4008000000000000, 0, "53b43150a212ccebe8a309973ec2f9d7db1a49e5321c19dc172c1ead89b23ddd"},
		"array2d(17)/hotspot(k=1,w=0.20)/greedy-xy":  {0x3fa0bd0bd0bd0c45, 0x403e9696969695c3, 0x402575757574d38e, 952, "40a4e8e5954d93ef479a034d658fa86d63433998c2a4d9719923b689e7a53283"},
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
// (possibly closed-form) walk, and the same mean route length as the
// Analysis. The rates must conserve flow, Σ_e λ_e = n̄ · #sources at
// per-node rate 1 (every hop of every route lands on exactly one edge),
// and balance at every node (checkNodeBalance).
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
		tb.Fatalf("%s: closed-form and generic route walks gave different rates", net.Name())
	}
	if math.Float64bits(meanHops) != math.Float64bits(an.MeanHops) {
		tb.Fatalf("%s: rebuilt mean hops %v != analysis %v", net.Name(), meanHops, an.MeanHops)
	}
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

// TestAnalysisConservation checks checkConservation on every registry
// scenario's topology, pattern and router, and on the golden inputs.
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
