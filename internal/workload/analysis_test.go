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
// array routers, several patterns, and both traffic-equation solvers
// (array(17) has 1088 edges, past SolveDense's cutoff).
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
		"array2d(6)/uniform/greedy-xy":               {0x3fe5555555555547, 0x3ff8000000000010, 0x400f1c71c71c6df0, 62, "385731c1e0036440cae322a1bc506c742bb0a615c8f48eeca45bc0acc2f49c61"},
		"array2d(6)/uniform/rand-greedy":             {0x3fe555555555553e, 0x3ff800000000001a, 0x400f1c71c71c6bf9, 102, "3c78fd6391fd497b140c75e1a0e3c0ecdfa9f8b9b76f7ebd298f22e20483050c"},
		"array2d(6)/hotspot(k=1,w=0.20)/greedy-xy":   {0x3fcaaaaaaaaaaaa3, 0x4013333333333339, 0x400db05b05b05d9b, 102, "dfd2a7d60445e9248ccf9653542cc94e459d7fc5f1c7a8707c479d8bda33682b"},
		"array2d(6)/hotspot(k=1,w=0.20)/rand-greedy": {0x3fd364d9364d9355, 0x400a66666666667c, 0x400db05b05b05774, 102, "c6e2a42c4d52a6b31c5896d8432e1661d4a815b2089fc580de9ad4e5f3981b9a"},
		"array2d(6)/transpose/greedy-xy":             {0x3fc999999999999a, 0x4014000000000000, 0x400f1c71c71c71c7, 29, "bf9cff63cb20d8e07b767b89b142b1f844655fcc7f5c125368d68c2726122c47"},
		"array2d(6)/transpose/rand-greedy":           {0x3fd999999999999a, 0x4004000000000000, 0x400f1c71c71c71c7, 0, "ea7c64c6760b392e92f3b45c0123e9db7d1c2e85b0646ed8a34fa21b02efd08c"},
		"array2d(8)/bitrev/greedy-xy":                {0x3fe0000000000000, 0x4000000000000000, 0x4008000000000000, 3, "aa407191d52c5dcdcd37c06e490f924d5a5cd178f8c6f3545c659ddbeb6cae50"},
		"torus2d(5)/uniform/torus-greedy":            {0x3ffaaaaaaaaaaaa8, 0x3fe3333333333335, 0x40033333333332d0, 95, "58dde4bcbb4ae726ca5104b3d855fe3df012f156948bc61c59515ed866e67199"},
		"linear(9)/uniform/linear":                   {0x3fdccccccccccccc, 0x4001c71c71c71c72, 0x4007b425ed097b2f, 3, "eb4557efcf57e4a0490e07e78f1cb496758c954ae043e76a05cd90640dbc338c"},
		"arraykd[4 4 4]/uniform/greedy-kd":           {0x3ff0000000000000, 0x3ff0000000000000, 0x400e000000000000, 1, "6cc71bd48a9e504f6fcf342ab8a5f4f7b8790d6cfcc32b709c9a82cd8763ff1f"},
		"hypercube(4)/uniform/cube-greedy":           {0x4000000000000000, 0x3fe0000000000000, 0x4000000000000000, 0, "e9c6aa0ac51a207068a6ca0b27702a4248e05aa673189814450b6bb5fef17311"},
		"butterfly(3)/uniform-out":                   {0x4000000000000000, 0x3fe0000000000000, 0x4008000000000000, 0, "53b43150a212ccebe8a309973ec2f9d7db1a49e5321c19dc172c1ead89b23ddd"},
		"array2d(17)/hotspot(k=1,w=0.20)/greedy-xy":  {0x3fa0bd0bd0bd0bc9, 0x403e9696969696a4, 0x402575757574d38e, 952, "23b237fce3867f5b11f6a646a504942626ce192cad7704e8246197063274e656"},
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

// checkConservation asserts the invariants of one analysis: the traffic
// buildTraffic emits is a valid routing chain whose transitions out of each
// edge are distinct edges leaving its head, its mean route length is the
// Analysis's, and the solved rates conserve flow, Σ_e λ_e = n̄ · #sources
// at per-node rate 1 (every hop of every route lands on exactly one edge).
// It also rebuilds the traffic on the route table's generic stepper path
// and requires the same bits as the default (possibly closed-form) walk.
func checkConservation(tb testing.TB, net topology.Network, router routing.Router, demand *Demand, an *Analysis) {
	tb.Helper()
	steppers, choose, ok := routing.Steppers(router)
	if !ok {
		tb.Fatalf("%s: router %T has no steppers", net.Name(), router)
	}
	sources := topology.Sources(net)
	var tab, generic routing.Table
	tab.Init(net, steppers, choose, true)
	generic.Init(net, steppers, choose, false)
	tr, meanHops := buildTraffic(net, &tab, demand, sources)
	trGeneric, meanHopsGeneric := buildTraffic(net, &generic, demand, sources)
	if math.Float64bits(meanHops) != math.Float64bits(meanHopsGeneric) || !reflect.DeepEqual(tr, trGeneric) {
		tb.Fatalf("%s: closed-form and generic route walks built different traffic", net.Name())
	}
	if err := tr.Validate(); err != nil {
		tb.Fatalf("%s: built traffic invalid: %v", net.Name(), err)
	}
	if math.Float64bits(meanHops) != math.Float64bits(an.MeanHops) {
		tb.Fatalf("%s: rebuilt mean hops %v != analysis %v", net.Name(), meanHops, an.MeanHops)
	}
	for e, routes := range tr.Routes {
		seen := map[int]bool{}
		for _, tn := range routes {
			if seen[tn.To] {
				tb.Fatalf("%s: edge %d lists transition to %d twice", net.Name(), e, tn.To)
			}
			seen[tn.To] = true
			if net.EdgeFrom(tn.To) != net.EdgeTo(e) {
				tb.Fatalf("%s: transition %d -> %d does not leave edge %d's head", net.Name(), e, tn.To, e)
			}
		}
	}
	sum := 0.0
	for _, r := range an.EdgeRates {
		sum += r
	}
	want := an.MeanHops * float64(len(sources))
	if math.Abs(sum-want) > 1e-9*math.Abs(want) {
		tb.Fatalf("%s: sum of edge rates %v != mean hops x sources %v", net.Name(), sum, want)
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
