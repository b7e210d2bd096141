package topology

import "fmt"

// Torus2D is the n×n toroidal mesh of §6: like Array2D but with wraparound
// edges, so every node has all four outgoing edges. The torus cannot be
// layered (it contains directed rings), so the paper's upper bound does not
// apply; the lower bounds and the simulator do.
//
// Edge ids are dense in [0, 4n²): id = dir*n² + node, with dir ordered
// Right, Left, Down, Up as in Array2D.
type Torus2D struct {
	n    int
	divN fastDiv
}

// NewTorus2D creates an n×n torus. n must be at least 3 so that the two
// neighbors of a node in a ring are distinct.
func NewTorus2D(n int) *Torus2D {
	if n < 3 {
		panic("topology: Torus2D requires n >= 3")
	}
	return &Torus2D{n: n, divN: newFastDiv(n)}
}

// N returns the side length.
func (t *Torus2D) N() int { return t.n }

// Name implements Network.
func (t *Torus2D) Name() string { return fmt.Sprintf("torus2d(%d)", t.n) }

// NumNodes implements Network.
func (t *Torus2D) NumNodes() int { return t.n * t.n }

// NumEdges implements Network.
func (t *Torus2D) NumEdges() int { return 4 * t.n * t.n }

// Node returns the node id of (row, col).
func (t *Torus2D) Node(row, col int) int { return row*t.n + col }

// Coords returns the (row, col) of a node id.
func (t *Torus2D) Coords(node int) (row, col int) { return t.divN.DivMod(node) }

// EdgeIn returns the id of the edge leaving (row, col) in direction d.
// On a torus the edge always exists.
func (t *Torus2D) EdgeIn(row, col int, d Dir) int {
	return int(d)*t.n*t.n + t.Node(row, col)
}

// EdgeInfo decodes edge id e into its direction and source coordinates.
func (t *Torus2D) EdgeInfo(e int) (row, col int, d Dir) {
	nn := t.n * t.n
	if e < 0 || e >= 4*nn {
		panic(fmt.Sprintf("topology: edge %d out of range for %s", e, t.Name()))
	}
	d = Dir(e / nn)
	row, col = t.Coords(e % nn)
	return row, col, d
}

// EdgeFrom implements Network.
func (t *Torus2D) EdgeFrom(e int) int { return e % (t.n * t.n) }

// EdgeTo implements Network.
func (t *Torus2D) EdgeTo(e int) int {
	row, col, d := t.EdgeInfo(e)
	n := t.n
	switch d {
	case Right:
		return t.Node(row, (col+1)%n)
	case Left:
		return t.Node(row, (col+n-1)%n)
	case Down:
		return t.Node((row+1)%n, col)
	default:
		return t.Node((row+n-1)%n, col)
	}
}

// WrapDist returns the directed ring distances (going "plus", i.e. right or
// down, and going "minus") from a to b on a ring of size n; a and b are
// ring positions in [0, n). It runs once or twice per torus routing step,
// so it compares instead of dividing.
func WrapDist(a, b, n int) (plus, minus int) {
	plus = b - a
	if plus < 0 {
		plus += n
	}
	if plus == 0 {
		return 0, 0
	}
	return plus, n - plus
}
