package sim

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// goldenCase pins one seeded run. The expected values were recorded from the
// seed engine (materialized-route packets, binary event heap, pointer
// freelist) before the zero-allocation rework landed; the current engine
// (Stepper routing, packet arena, 4-ary packed heap) must reproduce every
// run bit-for-bit. Regenerate with:
//
//	SIM_GOLDEN_PRINT=1 go test ./internal/sim -run TestGoldenDeterminism -v
type goldenCase struct {
	name string
	cfg  func() Config

	meanDelay, meanN, meanR, meanRs uint64 // math.Float64bits
	generated, delivered            int64
}

func goldenArray(n int, rho float64, seed uint64) Config {
	cfg := arrayConfig(n, rho, seed)
	cfg.Warmup, cfg.Horizon = 200, 1500
	return cfg
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:      "array-fifo-det",
			cfg:       func() Config { return goldenArray(5, 0.7, 11) },
			meanDelay: 0x4014d3301841fe41,
			meanN:     0x4053425308f9cead,
			meanR:     0x40691cf2fdb2e45d,
			meanRs:    0x0,
			generated: 22153, delivered: 22057,
		},
		{
			name: "array-ps",
			cfg: func() Config {
				cfg := goldenArray(5, 0.7, 13)
				cfg.Discipline = PS
				return cfg
			},
			meanDelay: 0x4020d24f5fff1cf7,
			meanN:     0x405ebc3a6c329dc9,
			meanR:     0x407355d334758b91,
			meanRs:    0x0,
			generated: 21778, delivered: 21649,
		},
		{
			name: "array-exponential",
			cfg: func() Config {
				cfg := goldenArray(5, 0.7, 17)
				cfg.Service = Exponential
				return cfg
			},
			meanDelay: 0x40223391e64f83fc,
			meanN:     0x40609e8ff6a6e1bf,
			meanR:     0x407573bb1d56682f,
			meanRs:    0x0,
			generated: 21854, delivered: 21741,
		},
		{
			name: "array-furthest-first",
			cfg: func() Config {
				cfg := goldenArray(5, 0.8, 19)
				cfg.Discipline = FurthestFirst
				return cfg
			},
			meanDelay: 0x401bf4f3148331da,
			meanN:     0x405d6379c66667de,
			meanR:     0x406f600b51bb5000,
			meanRs:    0x0,
			generated: 25072, delivered: 24984,
		},
		{
			name: "array-randomized-greedy",
			cfg: func() Config {
				cfg := goldenArray(6, 0.7, 23)
				a := topology.NewArray2D(6)
				cfg.Net = a
				cfg.Router = routing.RandGreedy{A: a}
				cfg.Dest = routing.UniformDest{NumNodes: a.NumNodes()}
				return cfg
			},
			meanDelay: 0x4017cdba6cfce265,
			meanN:     0x405945cdbaa58864,
			meanR:     0x40730cd2e71b6300,
			meanRs:    0x0,
			generated: 25450, delivered: 25331,
		},
		{
			name: "array-per-node-arrivals",
			cfg: func() Config {
				cfg := goldenArray(5, 0.6, 29)
				cfg.PerNodeArrivals = true
				return cfg
			},
			meanDelay: 0x401261a024173125,
			meanN:     0x404d4bc1861f23b1,
			meanR:     0x406306efa8b527b6,
			meanRs:    0x0,
			generated: 19108, delivered: 19060,
		},
		{
			name: "array-slotted",
			cfg: func() Config {
				cfg := goldenArray(5, 0.6, 31)
				cfg.SlotTau = 1
				return cfg
			},
			meanDelay: 0x4011bb89bcd70af7,
			meanN:     0x404bf65b7a328470,
			meanR:     0x4061fe3ab596de8d,
			meanRs:    0x0,
			generated: 18924, delivered: 18876,
		},
		{
			name: "array-saturated-tracked",
			cfg: func() Config {
				cfg := goldenArray(5, 0.8, 37)
				a := cfg.Net.(*topology.Array2D)
				sat := make([]bool, a.NumEdges())
				for e := range sat {
					if r, c, d := a.EdgeInfo(e); d == topology.Right && r == 2 && c >= 1 && c <= 3 {
						sat[e] = true
					}
				}
				cfg.Saturated = sat
				return cfg
			},
			meanDelay: 0x401ab5bd1ae98b0f,
			meanN:     0x405c17ef7a0d197e,
			meanR:     0x4072447169818dcf,
			meanRs:    0x40218a46a107beb8,
			generated: 25203, delivered: 25110,
		},
		{
			name: "torus-greedy",
			cfg: func() Config {
				tor := topology.NewTorus2D(5)
				cfg := goldenArray(5, 0.5, 41)
				cfg.Net = tor
				cfg.Router = routing.TorusGreedy{T: tor}
				cfg.Dest = routing.UniformDest{NumNodes: tor.NumNodes()}
				cfg.NodeRate = 0.4
				return cfg
			},
			meanDelay: 0x4005ca5c77544937,
			meanN:     0x403b31799148e2c6,
			meanR:     0x404a7c52aa9d636d,
			meanRs:    0x0,
			generated: 14957, delivered: 14936,
		},
		{
			name: "hypercube-bit-fixing",
			cfg: func() Config {
				h := topology.NewHypercube(4)
				cfg := goldenArray(5, 0.5, 43)
				cfg.Net = h
				cfg.Router = routing.CubeGreedy{H: h}
				cfg.Dest = routing.UniformDest{NumNodes: h.NumNodes()}
				cfg.NodeRate = 0.3
				return cfg
			},
			meanDelay: 0x40015be1246e7a55,
			meanN:     0x40249710bb64ae1b,
			meanR:     0x40322e8ff0f84b96,
			meanRs:    0x0,
			generated: 7114, delivered: 7111,
		},
		{
			name: "kd-array",
			cfg: func() Config {
				a := topology.NewArrayKD(4, 4, 4)
				cfg := goldenArray(5, 0.5, 47)
				cfg.Net = a
				cfg.Router = routing.GreedyKD{A: a}
				cfg.Dest = routing.UniformDest{NumNodes: a.NumNodes()}
				cfg.NodeRate = 0.2
				return cfg
			},
			meanDelay: 0x401014248c24e07e,
			meanN:     0x4049f125d0abec43,
			meanR:     0x4061e6d4fc0a897a,
			meanRs:    0x0,
			generated: 19356, delivered: 19312,
		},
		{
			name: "tandem-restricted",
			cfg: func() Config {
				cfg := tandemConfig(6, 0.8, Deterministic, 53)
				cfg.Warmup, cfg.Horizon = 200, 2000
				return cfg
			},
			meanDelay: 0x401b2ff50d580565,
			meanN:     0x4015f56f7d78e4e9,
			meanR:     0x40335e4f4b21e24b,
			meanRs:    0x0,
			generated: 1617, delivered: 1612,
		},
	}
}

// materializedRouter routes like the wrapped router but walks the routes
// its steppers' AppendRoute materializes: every step recomputes the whole
// route from the current node and takes its first edge. Its steppers are
// not the closed-form array types, so the route-step table walks them on
// its generic path, node ids as keys.
type materializedRouter struct{ routing.Router }

func (m materializedRouter) Steppers() []routing.Stepper {
	steppers := m.Router.Steppers()
	out := make([]routing.Stepper, len(steppers))
	for i, s := range steppers {
		out[i] = routeStepper{s.(routing.Router)}
	}
	return out
}

// materializedChoiceRouter adds the wrapped router's per-packet choice.
type materializedChoiceRouter struct {
	materializedRouter
	choose func(*xrand.RNG) int
}

func (m materializedChoiceRouter) Choose(rng *xrand.RNG) int { return m.choose(rng) }

// materialize wraps r in the AppendRoute-walking oracle router.
func materialize(r routing.Router) routing.Router {
	if _, choose := routing.Steppers(r); choose != nil {
		return materializedChoiceRouter{materializedRouter{r}, choose}
	}
	return materializedRouter{r}
}

// routeStepper steps along a deterministic router's AppendRoute.
type routeStepper struct{ r routing.Router }

func (s routeStepper) NextEdge(cur, dst int) (int, bool) {
	route := s.r.AppendRoute(nil, cur, dst, nil)
	if len(route) == 0 {
		return 0, true
	}
	return route[0], false
}

func (s routeStepper) RemainingHops(cur, dst int) int {
	return len(s.r.AppendRoute(nil, cur, dst, nil))
}

// TestStepperEngineMatchesMaterialized cross-checks the engine's route walk
// against the reference routes: every golden configuration must produce a
// bit-identical Result whether packets step through the router's own
// steppers or along AppendRoute's materialized routes (materializedRouter).
func TestStepperEngineMatchesMaterialized(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg()
			cfg.TrackEdgeOccupancy = true
			cfg.TrackNDist = true
			stepped, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Router = materialize(cfg.Router)
			materialized, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bitEq := func(field string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: stepper %v != materialized %v", field, a, b)
				}
			}
			bitEq("MeanDelay", stepped.MeanDelay, materialized.MeanDelay)
			bitEq("DelayCI", stepped.DelayCI, materialized.DelayCI)
			bitEq("MeanN", stepped.MeanN, materialized.MeanN)
			bitEq("MeanR", stepped.MeanR, materialized.MeanR)
			bitEq("MeanRs", stepped.MeanRs, materialized.MeanRs)
			bitEq("MaxN", stepped.MaxN, materialized.MaxN)
			if stepped.Generated != materialized.Generated || stepped.Delivered != materialized.Delivered {
				t.Errorf("counts diverge: %d/%d vs %d/%d",
					stepped.Generated, stepped.Delivered, materialized.Generated, materialized.Delivered)
			}
			for e := range stepped.EdgeRates {
				if stepped.EdgeRates[e] != materialized.EdgeRates[e] {
					t.Fatalf("EdgeRates[%d] diverge", e)
				}
				if stepped.EdgeOccupancy[e] != materialized.EdgeOccupancy[e] {
					t.Fatalf("EdgeOccupancy[%d] diverge", e)
				}
			}
			for k := range stepped.NDist {
				if stepped.NDist[k] != materialized.NDist[k] {
					t.Fatalf("NDist[%d] diverges", k)
				}
			}
		})
	}
}

// TestGoldenDeterminism locks the engine to the seed implementation's exact
// event trajectories: any change to RNG call order, event tie-breaking, or
// measurement bookkeeping shows up as a bit-level mismatch here.
func TestGoldenDeterminism(t *testing.T) {
	print := os.Getenv("SIM_GOLDEN_PRINT") != ""
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			res, err := Run(gc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if print {
				fmt.Printf("%s:\n\tmeanDelay: %#x,\n\tmeanN:     %#x,\n\tmeanR:     %#x,\n\tmeanRs:    %#x,\n\tgenerated: %d, delivered: %d,\n",
					gc.name,
					math.Float64bits(res.MeanDelay), math.Float64bits(res.MeanN),
					math.Float64bits(res.MeanR), math.Float64bits(res.MeanRs),
					res.Generated, res.Delivered)
				return
			}
			check := func(field string, got float64, want uint64) {
				if math.Float64bits(got) != want {
					t.Errorf("%s: got %v (%#x), want %#x", field, got, math.Float64bits(got), want)
				}
			}
			check("MeanDelay", res.MeanDelay, gc.meanDelay)
			check("MeanN", res.MeanN, gc.meanN)
			check("MeanR", res.MeanR, gc.meanR)
			check("MeanRs", res.MeanRs, gc.meanRs)
			if res.Generated != gc.generated || res.Delivered != gc.delivered {
				t.Errorf("counts: got %d/%d, want %d/%d", res.Generated, res.Delivered, gc.generated, gc.delivered)
			}
		})
	}
}
