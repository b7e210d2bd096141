package routing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// checkAllRoutes validates every (src,dst) route produced by r on net.
func checkAllRoutes(t *testing.T, net topology.Network, r Router, srcs, dsts []int) {
	t.Helper()
	rng := xrand.New(99)
	var buf []int
	for _, s := range srcs {
		for _, d := range dsts {
			buf = r.AppendRoute(buf[:0], s, d, rng)
			if err := topology.ValidatePath(net, s, d, buf); err != nil {
				t.Fatalf("%s: route %d->%d invalid: %v", net.Name(), s, d, err)
			}
		}
	}
}

func allNodes(net topology.Network) []int {
	nodes := make([]int, net.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestGreedyXYRoutesValid(t *testing.T) {
	a := topology.NewArray2D(5)
	checkAllRoutes(t, a, GreedyXY{a}, allNodes(a), allNodes(a))
}

func TestGreedyXYShape(t *testing.T) {
	// Row-first: all horizontal edges precede all vertical edges, and the
	// route length equals the L1 distance.
	a := topology.NewArray2D(6)
	g := GreedyXY{a}
	var buf []int
	for src := 0; src < a.NumNodes(); src++ {
		for dst := 0; dst < a.NumNodes(); dst++ {
			buf = g.AppendRoute(buf[:0], src, dst, nil)
			if len(buf) != a.Distance(src, dst) {
				t.Fatalf("route %d->%d length %d != distance %d", src, dst, len(buf), a.Distance(src, dst))
			}
			seenVertical := false
			for _, e := range buf {
				_, _, d := a.EdgeInfo(e)
				vertical := d == topology.Down || d == topology.Up
				if seenVertical && !vertical {
					t.Fatalf("route %d->%d has a row edge after a column edge", src, dst)
				}
				seenVertical = seenVertical || vertical
			}
		}
	}
}

func TestLayeringMonotoneAlongGreedyRoutes(t *testing.T) {
	// Lemma 2: the layer labels strictly increase along every greedy route.
	for _, n := range []int{3, 4, 7, 12} {
		a := topology.NewArray2D(n)
		g := GreedyXY{a}
		var buf []int
		for src := 0; src < a.NumNodes(); src++ {
			for dst := 0; dst < a.NumNodes(); dst++ {
				buf = g.AppendRoute(buf[:0], src, dst, nil)
				prev := 0
				for _, e := range buf {
					l := a.LayerLabel(e)
					if l <= prev {
						t.Fatalf("n=%d route %d->%d: label %d after %d", n, src, dst, l, prev)
					}
					prev = l
				}
			}
		}
	}
}

func TestMeanRouteLengthMatchesPaper(t *testing.T) {
	// Enumerating all (src,dst) pairs must give the paper's
	// n̄ = (2/3)(n - 1/n) and n̄₂ = 2n/3 (excluding src == dst pairs).
	for _, n := range []int{2, 3, 5, 10, 15} {
		a := topology.NewArray2D(n)
		total := 0
		for src := 0; src < a.NumNodes(); src++ {
			for dst := 0; dst < a.NumNodes(); dst++ {
				total += a.Distance(src, dst)
			}
		}
		nn := float64(n)
		mean := float64(total) / float64(a.NumNodes()*a.NumNodes())
		want := 2.0 / 3.0 * (nn - 1/nn)
		if math.Abs(mean-want) > 1e-9 {
			t.Errorf("n=%d: n̄ = %v, want %v", n, mean, want)
		}
		mean2 := float64(total) / float64(a.NumNodes()*a.NumNodes()-a.NumNodes())
		want2 := 2 * nn / 3
		if math.Abs(mean2-want2) > 1e-9 {
			t.Errorf("n=%d: n̄₂ = %v, want %v", n, mean2, want2)
		}
	}
}

func TestGreedyYXIsMirror(t *testing.T) {
	a := topology.NewArray2D(5)
	gx := GreedyXY{a}
	gy := GreedyYX{a}
	var bx, by []int
	for src := 0; src < a.NumNodes(); src++ {
		for dst := 0; dst < a.NumNodes(); dst++ {
			bx = gx.AppendRoute(bx[:0], src, dst, nil)
			by = gy.AppendRoute(by[:0], src, dst, nil)
			if len(bx) != len(by) {
				t.Fatalf("route lengths differ for %d->%d", src, dst)
			}
			if err := topology.ValidatePath(a, src, dst, by); err != nil {
				t.Fatalf("YX route invalid: %v", err)
			}
			// Column-first: vertical edges precede horizontal ones.
			seenHoriz := false
			for _, e := range by {
				_, _, d := a.EdgeInfo(e)
				horiz := d == topology.Right || d == topology.Left
				if seenHoriz && !horiz {
					t.Fatalf("YX route %d->%d has a column edge after a row edge", src, dst)
				}
				seenHoriz = seenHoriz || horiz
			}
		}
	}
}

func TestRandGreedyMixes(t *testing.T) {
	a := topology.NewArray2D(5)
	g := RandGreedy{a}
	rng := xrand.New(3)
	src, dst := a.Node(0, 0), a.Node(3, 3)
	rowFirst, colFirst := 0, 0
	var buf []int
	for i := 0; i < 1000; i++ {
		buf = g.AppendRoute(buf[:0], src, dst, rng)
		if err := topology.ValidatePath(a, src, dst, buf); err != nil {
			t.Fatal(err)
		}
		_, _, d := a.EdgeInfo(buf[0])
		if d == topology.Right || d == topology.Left {
			rowFirst++
		} else {
			colFirst++
		}
	}
	if rowFirst < 400 || colFirst < 400 {
		t.Errorf("coin flip unbalanced: %d row-first, %d col-first", rowFirst, colFirst)
	}
}

func TestGreedyKDMatchesGreedyXY(t *testing.T) {
	// On a 2-D array, dimension-order greedy with dim 0 = row must visit the
	// same nodes as... note GreedyKD corrects dim 0 (rows) first, which is
	// the column-first (YX) policy on Array2D; lengths must match L1.
	n := 4
	ak := topology.NewArrayKD(n, n)
	g := GreedyKD{ak}
	var buf []int
	for src := 0; src < ak.NumNodes(); src++ {
		for dst := 0; dst < ak.NumNodes(); dst++ {
			buf = g.AppendRoute(buf[:0], src, dst, nil)
			if err := topology.ValidatePath(ak, src, dst, buf); err != nil {
				t.Fatalf("route %d->%d invalid: %v", src, dst, err)
			}
			if len(buf) != ak.Distance(src, dst) {
				t.Fatalf("route %d->%d not shortest", src, dst)
			}
		}
	}
}

func TestGreedyKD3D(t *testing.T) {
	ak := topology.NewArrayKD(3, 4, 2)
	checkAllRoutes(t, ak, GreedyKD{ak}, allNodes(ak), allNodes(ak))
}

func TestTorusGreedyShortestWay(t *testing.T) {
	for _, n := range []int{4, 5} {
		tor := topology.NewTorus2D(n)
		g := TorusGreedy{tor}
		var buf []int
		for src := 0; src < tor.NumNodes(); src++ {
			for dst := 0; dst < tor.NumNodes(); dst++ {
				buf = g.AppendRoute(buf[:0], src, dst, nil)
				if err := topology.ValidatePath(tor, src, dst, buf); err != nil {
					t.Fatalf("n=%d route %d->%d invalid: %v", n, src, dst, err)
				}
				r1, c1 := tor.Coords(src)
				r2, c2 := tor.Coords(dst)
				hp, hm := topology.WrapDist(c1, c2, n)
				vp, vm := topology.WrapDist(r1, r2, n)
				want := min(hp, hm) + min(vp, vm)
				if len(buf) != want {
					t.Fatalf("n=%d route %d->%d length %d, want %d", n, src, dst, len(buf), want)
				}
			}
		}
	}
}

func TestTorusGreedyTieGoesPlus(t *testing.T) {
	tor := topology.NewTorus2D(4)
	g := TorusGreedy{tor}
	// Distance 2 both ways around a 4-ring: must go right (plus).
	buf := g.AppendRoute(nil, tor.Node(0, 0), tor.Node(0, 2), nil)
	if len(buf) != 2 {
		t.Fatalf("route length %d", len(buf))
	}
	_, _, d := tor.EdgeInfo(buf[0])
	if d != topology.Right {
		t.Errorf("tie broke %v, want right", d)
	}
}

func TestCubeGreedyCanonicalOrder(t *testing.T) {
	h := topology.NewHypercube(5)
	g := CubeGreedy{h}
	var buf []int
	rng := xrand.New(1)
	for trial := 0; trial < 2000; trial++ {
		src := rng.Intn(h.NumNodes())
		dst := rng.Intn(h.NumNodes())
		buf = g.AppendRoute(buf[:0], src, dst, nil)
		if err := topology.ValidatePath(h, src, dst, buf); err != nil {
			t.Fatal(err)
		}
		if len(buf) != h.Distance(src, dst) {
			t.Fatalf("route %d->%d not shortest", src, dst)
		}
		prevDim := -1
		for _, e := range buf {
			_, dim := h.EdgeInfo(e)
			if dim <= prevDim {
				t.Fatalf("dimensions not in canonical order: %d after %d", dim, prevDim)
			}
			prevDim = dim
		}
	}
}

func TestButterflyRoute(t *testing.T) {
	b := topology.NewButterfly(4)
	g := ButterflyRoute{b}
	var buf []int
	for _, src := range b.SourceNodes() {
		for _, dst := range b.OutputNodes() {
			buf = g.AppendRoute(buf[:0], src, dst, nil)
			if len(buf) != b.D() {
				t.Fatalf("route %d->%d has %d hops, want %d", src, dst, len(buf), b.D())
			}
			if err := topology.ValidatePath(b, src, dst, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestButterflyRoutePanicsOnBadEndpoints(t *testing.T) {
	b := topology.NewButterfly(3)
	g := ButterflyRoute{b}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-level-0 source")
		}
	}()
	g.AppendRoute(nil, b.Node(1, 0), b.Node(3, 0), nil)
}

func TestMarkovLinearWalkUniform(t *testing.T) {
	// Lemma 3: the stopping position is uniform for every entry point.
	rng := xrand.New(7)
	const n = 8
	const draws = 40000
	for k := 0; k < n; k++ {
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[MarkovLinearWalk(n, k, rng)]++
		}
		want := float64(draws) / n
		for j, c := range counts {
			if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
				t.Errorf("start %d: position %d count %d, want ~%.0f", k, j, c, want)
			}
		}
	}
}

func TestMarkovArrayDestUniform(t *testing.T) {
	a := topology.NewArray2D(4)
	m := MarkovArrayDest{a}
	rng := xrand.New(8)
	counts := make([]int, a.NumNodes())
	const draws = 160000
	src := a.Node(1, 2)
	for i := 0; i < draws; i++ {
		counts[m.Sample(src, rng)]++
	}
	want := float64(draws) / float64(a.NumNodes())
	for node, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d: count %d, want ~%.0f", node, c, want)
		}
	}
}

func TestGeometricStopWalkBiasedNear(t *testing.T) {
	rng := xrand.New(9)
	const n = 16
	const draws = 50000
	counts := make([]int, n)
	k := 8
	for i := 0; i < draws; i++ {
		counts[GeometricStopWalk(n, k, rng)]++
	}
	if counts[k] < counts[k-3] || counts[k] < counts[k+3] {
		t.Errorf("geometric walk not biased toward start: %v", counts)
	}
	// Still reaches both boundaries occasionally.
	if counts[0] == 0 || counts[n-1] == 0 {
		t.Errorf("boundaries unreachable: %v", counts)
	}
}

func TestGeometricAxisDistMatchesWalk(t *testing.T) {
	rng := xrand.New(21)
	for _, n := range []int{2, 3, 8, 9} {
		for k := 0; k < n; k++ {
			want := GeometricAxisDist(n, k)
			sum := 0.0
			for _, p := range want {
				sum += p
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("n=%d k=%d: distribution sums to %v", n, k, sum)
			}
			const draws = 20000
			counts := make([]int, n)
			for i := 0; i < draws; i++ {
				counts[GeometricStopWalk(n, k, rng)]++
			}
			for j := range counts {
				got := float64(counts[j]) / draws
				tol := 5*math.Sqrt(want[j]*(1-want[j])/draws) + 1e-4
				if math.Abs(got-want[j]) > tol {
					t.Errorf("n=%d k=%d pos=%d: empirical %v, exact %v", n, k, j, got, want[j])
				}
			}
		}
	}
}

func TestGeometricStopWalkRange(t *testing.T) {
	rng := xrand.New(10)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%20) + 2
		k := int(rawK) % n
		pos := GeometricStopWalk(n, k, rng)
		return pos >= 0 && pos < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliCubeDestDistance(t *testing.T) {
	h := topology.NewHypercube(10)
	rng := xrand.New(11)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		d := BernoulliCubeDest{h, p}
		const draws = 30000
		sum := 0
		for i := 0; i < draws; i++ {
			sum += h.Distance(3, d.Sample(3, rng))
		}
		mean := float64(sum) / draws
		want := p * float64(h.D())
		if math.Abs(mean-want) > 0.05*float64(h.D()) {
			t.Errorf("p=%v: mean distance %v, want %v", p, mean, want)
		}
	}
}

func TestUniformDestCoversAllNodes(t *testing.T) {
	u := UniformDest{NumNodes: 9}
	rng := xrand.New(12)
	seen := make([]bool, 9)
	for i := 0; i < 1000; i++ {
		seen[u.Sample(0, rng)] = true
	}
	for node, ok := range seen {
		if !ok {
			t.Errorf("node %d never sampled", node)
		}
	}
}

func TestFixedDest(t *testing.T) {
	f := FixedDest{Node: 5}
	if f.Sample(0, nil) != 5 {
		t.Error("FixedDest wrong")
	}
}

func TestButterflyUniformDest(t *testing.T) {
	b := topology.NewButterfly(3)
	d := ButterflyUniformDest{b}
	rng := xrand.New(13)
	for i := 0; i < 100; i++ {
		node := d.Sample(b.Node(0, 0), rng)
		if l, _ := b.NodeInfo(node); l != b.D() {
			t.Fatalf("destination %d not at last level", node)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
