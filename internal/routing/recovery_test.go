package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// recoverFixture binds an empty-but-enabled fault plan against a 4x4 array
// just for its CSR out-edge adjacency, and returns everything Recover
// needs.
func recoverFixture(t *testing.T) (*topology.Array2D, Stepper, *fault.Plan) {
	t.Helper()
	net := topology.NewArray2D(4)
	spec := &fault.Spec{LinkMTBF: 1e12, LinkMTTR: 1, Seed: 1}
	plan, err := spec.Bind(net)
	if err != nil {
		t.Fatal(err)
	}
	steppers, choose := Steppers(GreedyXY{A: net})
	if choose != nil || len(steppers) != 1 {
		t.Fatal("GreedyXY is not a single deterministic stepper")
	}
	return net, steppers[0], plan
}

func TestRecoverPrimary(t *testing.T) {
	net, st, plan := recoverFixture(t)
	allUp := func(int32) bool { return true }
	edgeTo := func(e int32) int32 { return plan.To[e] }
	cur, dst := net.Node(0, 0), net.Node(3, 3)
	lo, hi := plan.OutEdgeRange(int32(cur))
	edge, out := Recover(st, cur, dst, plan.OutEdges[lo:hi], edgeTo, allUp)
	if out != Primary {
		t.Fatalf("all edges up gave outcome %v, want Primary", out)
	}
	greedy, done := st.NextEdge(cur, dst)
	if done || int32(greedy) != edge {
		t.Fatalf("Primary edge %d != greedy edge %d", edge, greedy)
	}
}

func TestRecoverDetour(t *testing.T) {
	net, st, plan := recoverFixture(t)
	cur, dst := net.Node(0, 0), net.Node(3, 3)
	greedy, _ := st.NextEdge(cur, dst)
	blockGreedy := func(e int32) bool { return e != int32(greedy) }
	edgeTo := func(e int32) int32 { return plan.To[e] }
	lo, hi := plan.OutEdgeRange(int32(cur))
	edge, out := Recover(st, cur, dst, plan.OutEdges[lo:hi], edgeTo, blockGreedy)
	if out != Detour {
		t.Fatalf("blocked greedy edge gave outcome %v, want Detour", out)
	}
	if edge == int32(greedy) || edge < 0 {
		t.Fatalf("detour picked edge %d", edge)
	}
	// Strict monotonicity: the detour must reduce distance by exactly one.
	rem := st.RemainingHops(cur, dst)
	if got := st.RemainingHops(int(plan.To[edge]), dst); got != rem-1 {
		t.Fatalf("detour head at distance %d, want %d", got, rem-1)
	}
}

func TestRecoverDeadEnd(t *testing.T) {
	net, st, plan := recoverFixture(t)
	// Interior node with every improving neighbor blocked: only edges
	// moving away from dst stay usable.
	cur, dst := net.Node(1, 1), net.Node(3, 3)
	rem := st.RemainingHops(cur, dst)
	edgeTo := func(e int32) int32 { return plan.To[e] }
	worseOnly := func(e int32) bool {
		return st.RemainingHops(int(plan.To[e]), dst) >= rem
	}
	lo, hi := plan.OutEdgeRange(int32(cur))
	edge, out := Recover(st, cur, dst, plan.OutEdges[lo:hi], edgeTo, worseOnly)
	if out != DeadEnd || edge != -1 {
		t.Fatalf("got (%d, %v), want (-1, DeadEnd)", edge, out)
	}
}
