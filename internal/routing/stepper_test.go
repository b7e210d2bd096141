package routing

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// walkStepper follows s from src to dst, checking RemainingHops at every
// intermediate node, and returns the edge sequence.
func walkStepper(t *testing.T, net topology.Network, s Stepper, src, dst int) []int {
	t.Helper()
	var route []int
	cur := src
	for {
		rem := s.RemainingHops(cur, dst)
		edge, done := s.NextEdge(cur, dst)
		if done {
			if rem != 0 {
				t.Fatalf("%s: RemainingHops(%d,%d) = %d at a done node", net.Name(), cur, dst, rem)
			}
			if cur != dst {
				t.Fatalf("%s: walk from %d ended at %d, want %d", net.Name(), src, cur, dst)
			}
			return route
		}
		if rem <= 0 {
			t.Fatalf("%s: RemainingHops(%d,%d) = %d but NextEdge not done", net.Name(), cur, dst, rem)
		}
		next := net.EdgeTo(edge)
		if net.EdgeFrom(edge) != cur {
			t.Fatalf("%s: edge %d leaves %d, walker is at %d", net.Name(), edge, net.EdgeFrom(edge), cur)
		}
		if got := s.RemainingHops(next, dst); got != rem-1 {
			t.Fatalf("%s: RemainingHops %d -> %d across one edge (at node %d)", net.Name(), rem, got, cur)
		}
		route = append(route, edge)
		cur = next
		if len(route) > 10*net.NumEdges()+16 {
			t.Fatalf("%s: walk from %d to %d does not terminate", net.Name(), src, dst)
		}
	}
}

func equalRoutes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStepperMatchesAppendRoute is the cross-check oracle of the
// incremental routing layer: for every deterministic router on every
// topology, the Stepper walk must reproduce AppendRoute's edge sequence
// exactly, for random (src, dst) pairs and for all-pairs on small sizes.
func TestStepperMatchesAppendRoute(t *testing.T) {
	a5 := topology.NewArray2D(5)
	a6 := topology.NewArray2D(6)
	lin := topology.NewLinear(9)
	kd := topology.NewArrayKD(3, 4, 2)
	kd2 := topology.NewArrayKD(5, 5)
	tor5 := topology.NewTorus2D(5)
	tor6 := topology.NewTorus2D(6) // even n: ties go plus
	cube := topology.NewHypercube(5)

	cases := []struct {
		name   string
		net    topology.Network
		router Router
	}{
		{"greedy-xy-5", a5, GreedyXY{A: a5}},
		{"greedy-xy-6", a6, GreedyXY{A: a6}},
		{"greedy-yx-5", a5, GreedyYX{A: a5}},
		{"greedy-yx-6", a6, GreedyYX{A: a6}},
		{"linear", lin, LinearRoute{L: lin}},
		{"kd-3x4x2", kd, GreedyKD{A: kd}},
		{"kd-5x5", kd2, GreedyKD{A: kd2}},
		{"torus-odd", tor5, TorusGreedy{T: tor5}},
		{"torus-even", tor6, TorusGreedy{T: tor6}},
		{"cube", cube, CubeGreedy{H: cube}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, choose := Steppers(tc.router)
			if len(s) != 1 || choose != nil {
				t.Fatalf("Steppers: want one deterministic stepper, got %d (choose=%v)", len(s), choose != nil)
			}
			n := tc.net.NumNodes()
			check := func(src, dst int) {
				walked := walkStepper(t, tc.net, s[0], src, dst)
				want := tc.router.AppendRoute(nil, src, dst, nil)
				if !equalRoutes(walked, want) {
					t.Fatalf("src=%d dst=%d: stepper %v != AppendRoute %v", src, dst, walked, want)
				}
				if err := topology.ValidatePath(tc.net, src, dst, walked); err != nil {
					t.Fatalf("src=%d dst=%d: %v", src, dst, err)
				}
				if got, want := s[0].RemainingHops(src, dst), len(walked); got != want {
					t.Fatalf("src=%d dst=%d: RemainingHops %d, route length %d", src, dst, got, want)
				}
			}
			if n <= 40 {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						check(src, dst)
					}
				}
			} else {
				rng := xrand.New(99)
				for i := 0; i < 2000; i++ {
					check(rng.Intn(n), rng.Intn(n))
				}
			}
		})
	}
}

// TestButterflyStepperMatchesAppendRoute walks the butterfly separately:
// its sources and destinations are restricted to the first and last levels.
func TestButterflyStepperMatchesAppendRoute(t *testing.T) {
	b := topology.NewButterfly(4)
	r := ButterflyRoute{B: b}
	s, choose := Steppers(r)
	if len(s) != 1 || choose != nil {
		t.Fatal("butterfly should expose one deterministic stepper")
	}
	for _, src := range b.SourceNodes() {
		for _, dst := range b.OutputNodes() {
			walked := walkStepper(t, b, s[0], src, dst)
			want := r.AppendRoute(nil, src, dst, nil)
			if !equalRoutes(walked, want) {
				t.Fatalf("src=%d dst=%d: stepper %v != AppendRoute %v", src, dst, walked, want)
			}
		}
	}
}

// TestRandGreedySteppers checks §6's randomized router: its two steppers
// are exactly the row-first and column-first policies, and Choose consumes
// one fair coin exactly as AppendRoute does.
func TestRandGreedySteppers(t *testing.T) {
	a := topology.NewArray2D(6)
	r := RandGreedy{A: a}
	steppers, choose := Steppers(r)
	if len(steppers) != 2 || choose == nil {
		t.Fatalf("RandGreedy: want 2 steppers and a choice func")
	}
	n := a.NumNodes()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			xy := walkStepper(t, a, steppers[0], src, dst)
			yx := walkStepper(t, a, steppers[1], src, dst)
			if !equalRoutes(xy, GreedyXY{A: a}.AppendRoute(nil, src, dst, nil)) {
				t.Fatalf("stepper 0 is not row-first at (%d,%d)", src, dst)
			}
			if !equalRoutes(yx, GreedyYX{A: a}.AppendRoute(nil, src, dst, nil)) {
				t.Fatalf("stepper 1 is not column-first at (%d,%d)", src, dst)
			}
		}
	}
	// Choose and AppendRoute consume the same variate: with equal seeds the
	// chosen stepper reproduces AppendRoute's route.
	rng1 := xrand.New(7)
	rng2 := xrand.New(7)
	for i := 0; i < 500; i++ {
		src, dst := rng1.Intn(n), rng1.Intn(n)
		rng2.Intn(n)
		rng2.Intn(n)
		want := r.AppendRoute(nil, src, dst, rng1)
		got := walkStepper(t, a, steppers[choose(rng2)], src, dst)
		if !equalRoutes(got, want) {
			t.Fatalf("iteration %d: choice path %v != AppendRoute %v", i, got, want)
		}
	}
}
