package routing

import (
	"slices"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// CoordBits is the width of one coordinate in a packed array key, so the
// closed-form array path handles sides up to MaxPackedSide.
const (
	CoordBits     = 13
	MaxPackedSide = 1<<CoordBits - 1
)

// Table is the devirtualized route-step state every hop walker shares: the
// traffic analysis (workload), the event-driven engine (sim) and the
// slotted engine (stepsim). Walkers name positions and destinations by
// key. On the closed-form 2-D array path a key packs (row, col) as
// row<<CoordBits | col; everywhere else it is the node id. NodeKey and
// EdgeKey translate node ids and edge heads into keys once per table, so a
// hop costs one EdgeKey read plus Next: a few ALU ops on the array path,
// one Stepper.NextEdge call on the generic fallback. Both paths return
// exactly the stepper's edge (TestTableMatchesSteppers), so a walker's
// results do not depend on which one runs.
//
// A Table is read-only after Init, so one value serves concurrent walkers.
type Table struct {
	// Steppers are the router's deterministic steppers, indexed by the
	// per-packet choice; Choose draws that choice (nil for deterministic
	// routers, whose packets all use Steppers[0]).
	Steppers []Stepper
	Choose   func(*xrand.RNG) int
	// NodeKey[v] is node v's key and EdgeKey[e] the key of edge e's head.
	NodeKey []int32
	EdgeKey []int32

	// fast selects the closed-form array path; n, n1 and h are its
	// constants (side, side−1 and edges per direction) and colFirst maps a
	// stepper choice to column-first routing.
	fast     bool
	n, n1, h int32
	colFirst [2]uint32
}

// Init fills t for steppers on net, reusing t's slice capacity. The
// closed-form path is taken when fastArray accepts the steppers and
// allowFast is set; callers whose position keys must be node ids (the
// fault layers index nodes directly) pass allowFast = false.
func (t *Table) Init(net topology.Network, steppers []Stepper, choose func(*xrand.RNG) int, allowFast bool) {
	t.Steppers, t.Choose = steppers, choose
	colFirst, fast := fastArray(net, steppers)
	t.fast = fast && allowFast
	numNodes, numEdges := net.NumNodes(), net.NumEdges()
	t.NodeKey = slices.Grow(t.NodeKey[:0], numNodes)[:numNodes]
	t.EdgeKey = slices.Grow(t.EdgeKey[:0], numEdges)[:numEdges]
	if t.fast {
		a := net.(*topology.Array2D)
		t.n = int32(a.N())
		t.n1 = t.n - 1
		t.h = t.n * t.n1
		t.colFirst = colFirst
		for v := range numNodes {
			r, c := a.Coords(v)
			t.NodeKey[v] = int32(r<<CoordBits | c)
		}
	} else {
		for v := range numNodes {
			t.NodeKey[v] = int32(v)
		}
	}
	for e := range numEdges {
		t.EdgeKey[e] = t.NodeKey[net.EdgeTo(e)]
	}
}

// fastArray is the closed-form path's selection predicate: net is a 2-D
// array of side at most MaxPackedSide, and there are at most two steppers,
// each GreedyXY or GreedyYX on that same array. colFirst[i] is 1 when
// stepper i moves along its column first (GreedyYX).
func fastArray(net topology.Network, steppers []Stepper) (colFirst [2]uint32, ok bool) {
	a, isArray := net.(*topology.Array2D)
	if !isArray || a.N() > MaxPackedSide || len(steppers) > len(colFirst) {
		return colFirst, false
	}
	for i, st := range steppers {
		switch g := st.(type) {
		case GreedyXY:
			if g.A != a {
				return colFirst, false
			}
		case GreedyYX:
			if g.A != a {
				return colFirst, false
			}
			colFirst[i] = 1
		default:
			return colFirst, false
		}
	}
	return colFirst, true
}

// Fast reports whether keys are packed array coordinates.
func (t *Table) Fast() bool { return t.fast }

// Next is Stepper.NextEdge in key form: the edge a packet at key pos takes
// toward key dst under stepper choice, or done = true when the route has
// ended (pos == dst on the array path). The array path is the closed-form
// greedy step (edge ids as in topology.Array2D): row edges before column
// edges unless the choice's stepper is column-first.
func (t *Table) Next(pos, dst int32, choice uint32) (edge int32, done bool) {
	if !t.fast {
		e, done := t.Steppers[choice].NextEdge(int(pos), int(dst))
		return int32(e), done
	}
	if pos == dst {
		return 0, true
	}
	r, c := pos>>CoordBits, pos&MaxPackedSide
	dr, dc := dst>>CoordBits, dst&MaxPackedSide
	if c != dc && (t.colFirst[choice] == 0 || r == dr) {
		if c < dc {
			return r*t.n1 + c, false // Right
		}
		return t.h + r*t.n1 + c - 1, false // Left
	}
	if r < dr {
		return 2*t.h + c*t.n1 + r, false // Down
	}
	return 3*t.h + c*t.n1 + r - 1, false // Up
}

// AppendPath appends the whole route from key pos to key dst under stepper
// choice to buf: the edges Next would return one by one, in order. Walkers
// that need every hop of a route (the traffic analysis) use it. On the
// array path a greedy route is two straight runs of consecutive edge ids,
// so it is generated arithmetically, with no per-hop table read.
func (t *Table) AppendPath(buf []int32, pos, dst int32, choice uint32) []int32 {
	if t.fast {
		r, c := pos>>CoordBits, pos&MaxPackedSide
		dr, dc := dst>>CoordBits, dst&MaxPackedSide
		if t.colFirst[choice] != 0 {
			buf = t.appendColumn(buf, c, r, dr)
			return t.appendRow(buf, dr, c, dc)
		}
		buf = t.appendRow(buf, r, c, dc)
		return t.appendColumn(buf, dc, r, dr)
	}
	st, edgeKey, d := t.Steppers[choice], t.EdgeKey, int(dst)
	for cur := int(pos); ; {
		e, done := st.NextEdge(cur, d)
		if done {
			return buf
		}
		buf = append(buf, int32(e))
		cur = int(edgeKey[e])
	}
}

// appendRow appends the row-r edges from column c to column dc.
func (t *Table) appendRow(buf []int32, r, c, dc int32) []int32 {
	base := r * t.n1
	for ; c < dc; c++ {
		buf = append(buf, base+c) // Right
	}
	for ; c > dc; c-- {
		buf = append(buf, t.h+base+c-1) // Left
	}
	return buf
}

// appendColumn appends the column-c edges from row r to row dr.
func (t *Table) appendColumn(buf []int32, c, r, dr int32) []int32 {
	base := c * t.n1
	for ; r < dr; r++ {
		buf = append(buf, 2*t.h+base+r) // Down
	}
	for ; r > dr; r-- {
		buf = append(buf, 3*t.h+base+r-1) // Up
	}
	return buf
}

// Hops returns the number of edges left on the route from key pos to key
// dst under stepper choice (zero exactly when pos == dst).
func (t *Table) Hops(pos, dst int32, choice uint32) int {
	if t.fast {
		dr := pos>>CoordBits - dst>>CoordBits
		dc := pos&MaxPackedSide - dst&MaxPackedSide
		return abs(int(dr)) + abs(int(dc))
	}
	return t.Steppers[choice].RemainingHops(int(pos), int(dst))
}

// NodeOf decodes a key back to its node id.
func (t *Table) NodeOf(key int32) int32 {
	if t.fast {
		return (key>>CoordBits)*t.n + key&MaxPackedSide
	}
	return key
}
