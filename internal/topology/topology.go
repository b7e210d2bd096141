// Package topology defines the directed-graph network models the paper
// analyzes: the n×n array (mesh) at its center, plus the linear array,
// k-dimensional array, 2-D torus, hypercube, and butterfly used by the
// lower-bound comparisons and extensions (§4.5, §5.2, §6).
//
// Every topology exposes a dense edge indexing (edge ids in [0, NumEdges)),
// which the simulator and the analytic packages use for per-edge state
// arrays, and a dense node indexing (node ids in [0, NumNodes)).
package topology

import "fmt"

// Network is the minimal graph view shared by all topologies. Edge ids and
// node ids are dense, starting at 0. Implementations also provide typed
// coordinate helpers; routing code uses those directly.
type Network interface {
	// Name identifies the topology, e.g. "array2d(8)".
	Name() string
	// NumNodes returns the number of nodes.
	NumNodes() int
	// NumEdges returns the number of directed edges.
	NumEdges() int
	// EdgeFrom returns the source node of edge e.
	EdgeFrom(e int) int
	// EdgeTo returns the destination node of edge e.
	EdgeTo(e int) int
}

// SourceSet optionally restricts where external packets enter a network.
// Topologies where every node is a source (array, torus, cube) do not
// implement it; the butterfly restricts entry to its level-0 nodes.
type SourceSet interface {
	// SourceNodes returns the node ids at which packets may be generated.
	SourceNodes() []int
}

// Sources returns the nodes at which external packets enter net: the
// topology's SourceNodes if it implements SourceSet, else all nodes.
func Sources(net Network) []int {
	if ss, ok := net.(SourceSet); ok {
		return ss.SourceNodes()
	}
	nodes := make([]int, net.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// Restrict wraps a network so that external packets enter only at the given
// nodes. It is how single-source scenarios (e.g. the tandem line that shows
// Theorem 10's bound is tight) are expressed without changing the graph.
type Restrict struct {
	Network
	Nodes []int
}

// SourceNodes implements SourceSet.
func (r Restrict) SourceNodes() []int { return r.Nodes }

// FindEdge scans for the directed edge from->to and reports whether it
// exists. It is O(NumEdges) and intended for tests and validation, not the
// simulation fast path.
func FindEdge(net Network, from, to int) (int, bool) {
	for e := 0; e < net.NumEdges(); e++ {
		if net.EdgeFrom(e) == from && net.EdgeTo(e) == to {
			return e, true
		}
	}
	return 0, false
}

// ValidatePath reports an error if edges is not a contiguous directed path
// in net from src to dst. A nil path is valid only when src == dst.
func ValidatePath(net Network, src, dst int, edges []int) error {
	cur := src
	for i, e := range edges {
		if e < 0 || e >= net.NumEdges() {
			return fmt.Errorf("hop %d: edge %d out of range", i, e)
		}
		if net.EdgeFrom(e) != cur {
			return fmt.Errorf("hop %d: edge %d starts at %d, want %d", i, e, net.EdgeFrom(e), cur)
		}
		cur = net.EdgeTo(e)
	}
	if cur != dst {
		return fmt.Errorf("path ends at node %d, want %d", cur, dst)
	}
	return nil
}
