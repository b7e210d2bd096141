package routing

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestTableMatchesSteppers pins the route-step table against the steppers
// it devirtualizes: for every (cur, dst) pair and stepper choice, the
// table's next edge equals Stepper.NextEdge, on the closed-form array path
// and on the generic fallback alike.
func TestTableMatchesSteppers(t *testing.T) {
	type tc struct {
		name   string
		net    topology.Network
		router Router
		fast   bool
	}
	var cases []tc
	for n := 2; n <= 9; n++ {
		a := topology.NewArray2D(n)
		cases = append(cases,
			tc{fmt.Sprintf("array%d/greedy-xy", n), a, GreedyXY{A: a}, true},
			tc{fmt.Sprintf("array%d/greedy-yx", n), a, GreedyYX{A: a}, true},
			tc{fmt.Sprintf("array%d/rand-greedy", n), a, RandGreedy{A: a}, true},
		)
	}
	tor := topology.NewTorus2D(5)
	cube := topology.NewHypercube(4)
	kd := topology.NewArrayKD(3, 4, 2)
	lin := topology.NewLinear(7)
	bf := topology.NewButterfly(3)
	cases = append(cases,
		tc{"torus", tor, TorusGreedy{T: tor}, false},
		tc{"cube", cube, CubeGreedy{H: cube}, false},
		tc{"kd", kd, GreedyKD{A: kd}, false},
		tc{"linear", lin, LinearRoute{L: lin}, false},
		tc{"butterfly", bf, ButterflyRoute{B: bf}, false},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			steppers, choose, ok := Steppers(c.router)
			if !ok {
				t.Fatalf("%T exposes no steppers", c.router)
			}
			var tab Table
			tab.Init(c.net, steppers, choose, true)
			if tab.Fast() != c.fast {
				t.Fatalf("fast path = %v, want %v", tab.Fast(), c.fast)
			}
			checkTable(t, &tab, c.net, steppers)
		})
	}
}

// checkTable compares every table step, path and hop count with the
// stepper it stands for and checks the key tables' consistency.
func checkTable(t *testing.T, tab *Table, net topology.Network, steppers []Stepper) {
	t.Helper()
	for v := 0; v < net.NumNodes(); v++ {
		if got := tab.NodeOf(tab.NodeKey[v]); int(got) != v {
			t.Fatalf("NodeOf(NodeKey[%d]) = %d", v, got)
		}
	}
	for e := 0; e < net.NumEdges(); e++ {
		if tab.EdgeKey[e] != tab.NodeKey[net.EdgeTo(e)] {
			t.Fatalf("EdgeKey[%d] = %d, want NodeKey of head %d", e, tab.EdgeKey[e], net.EdgeTo(e))
		}
	}
	var path []int32
	for cur := 0; cur < net.NumNodes(); cur++ {
		for dst := 0; dst < net.NumNodes(); dst++ {
			pos, key := tab.NodeKey[cur], tab.NodeKey[dst]
			for choice, st := range steppers {
				path = tab.AppendPath(path[:0], pos, key, uint32(choice))
				if !slices.Equal(path, stepperPath(st, net, cur, dst)) {
					t.Fatalf("choice %d: %d->%d path %v, stepper walks %v", choice, cur, dst, path, stepperPath(st, net, cur, dst))
				}
				if got, want := tab.Hops(pos, key, uint32(choice)), st.RemainingHops(cur, dst); got != want {
					t.Fatalf("choice %d: %d->%d hops %d, stepper says %d", choice, cur, dst, got, want)
				}
				want, wantDone := st.NextEdge(cur, dst)
				got, done := tab.Next(pos, key, uint32(choice))
				if done != wantDone || (!done && int(got) != want) {
					t.Fatalf("choice %d: %d->%d next edge (%d, %v), stepper says (%d, %v)", choice, cur, dst, got, done, want, wantDone)
				}
			}
		}
	}
}

// stepperPath walks st from cur to dst one NextEdge at a time.
func stepperPath(st Stepper, net topology.Network, cur, dst int) []int32 {
	var path []int32
	for {
		e, done := st.NextEdge(cur, dst)
		if done {
			return path
		}
		path = append(path, int32(e))
		cur = net.EdgeTo(e)
	}
}

// TestTableFastPathSelection pins when the closed-form array path must
// stay off: steppers bound to another array instance, more than two
// steppers, allowFast = false, and sides beyond the packed-coordinate
// limit. The generic fallback must still agree with the steppers.
func TestTableFastPathSelection(t *testing.T) {
	a, other := topology.NewArray2D(5), topology.NewArray2D(5)
	xy, yx := GreedyXY{A: a}, GreedyYX{A: a}
	cases := []struct {
		name      string
		steppers  []Stepper
		allowFast bool
	}{
		{"other-array", []Stepper{GreedyXY{A: other}}, true},
		{"mixed-arrays", []Stepper{xy, GreedyYX{A: other}}, true},
		{"three-steppers", []Stepper{xy, yx, xy}, true},
		{"disallowed", []Stepper{xy, yx}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tab Table
			tab.Init(a, c.steppers, nil, c.allowFast)
			if tab.Fast() {
				t.Fatal("fast path enabled")
			}
			checkTable(t, &tab, a, c.steppers)
		})
	}
	// The packed-coordinate limit, tested on the selection predicate alone
	// so no table for an 8192×8192 array is ever allocated.
	for _, n := range []int{MaxPackedSide, MaxPackedSide + 1} {
		big := topology.NewArray2D(n)
		_, ok := fastArray(big, []Stepper{GreedyXY{A: big}, GreedyYX{A: big}})
		if want := n <= MaxPackedSide; ok != want {
			t.Errorf("n=%d: fast path = %v, want %v", n, ok, want)
		}
	}
}
