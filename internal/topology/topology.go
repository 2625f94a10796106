// Package topology provides the network-graph substrate for the
// TM-estimation experiments: weighted directed graphs, synthetic
// PoP-level topology generators (ring-with-chords and Waxman), and
// shortest-path machinery (Dijkstra with equal-cost multipath support).
package topology

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrGraph reports invalid graph construction or queries.
var ErrGraph = errors.New("topology: invalid graph")

// Edge is a directed link with an IGP-style additive weight.
type Edge struct {
	ID     int // dense index, assigned by the graph
	From   int
	To     int
	Weight float64
}

// Graph is a directed weighted multigraph over nodes 0..n-1.
// Use NewGraph then AddEdge/AddBiEdge.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // node -> edge IDs leaving it

	// dists caches the graph's shortest-path tables (see Dists); AddEdge
	// drops them.
	dists atomic.Pointer[Dists]
}

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("topology: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Edges returns the edge list (shared backing array; do not mutate).
func (g *Graph) Edges() []Edge { return g.edges }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// validateEdge checks the graph-independent edge invariants shared by
// AddEdge and Delta.Validate: distinct non-negative endpoints and a
// positive finite weight (Dijkstra requirement — zero-weight links are
// rejected here, so they can never reach the shortest-path machinery).
func validateEdge(from, to int, weight float64) error {
	if from < 0 || to < 0 {
		return fmt.Errorf("%w: edge %d->%d with negative endpoint", ErrGraph, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: self-loop at %d", ErrGraph, from)
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("%w: weight %g on %d->%d", ErrGraph, weight, from, to)
	}
	return nil
}

// AddEdge inserts a directed edge and returns its ID. Weights must be
// positive (Dijkstra requirement) and at most MaxFloat64/n: a simple
// path has at most n-1 edges, so no shortest-path sum can overflow to
// +Inf and read as unreachable.
func (g *Graph) AddEdge(from, to int, weight float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("%w: edge %d->%d outside [0,%d)", ErrGraph, from, to, g.n)
	}
	if err := validateEdge(from, to, weight); err != nil {
		return 0, err
	}
	if weight > math.MaxFloat64/float64(g.n) {
		return 0, fmt.Errorf("%w: weight %g on %d->%d exceeds MaxFloat64/%d, so path lengths could overflow", ErrGraph, weight, from, to, g.n)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight})
	g.adj[from] = append(g.adj[from], id)
	g.dists.Store(nil)
	return id, nil
}

// AddBiEdge inserts a symmetric pair of directed edges and returns their
// IDs (forward, reverse).
func (g *Graph) AddBiEdge(a, b int, weight float64) (int, int, error) {
	f, err := g.AddEdge(a, b, weight)
	if err != nil {
		return 0, 0, err
	}
	r, err := g.AddEdge(b, a, weight)
	if err != nil {
		return 0, 0, err
	}
	return f, r, nil
}

// Connected reports whether every node is reachable from node 0
// following directed edges (sufficient for our symmetric generators).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[u] {
			v := g.edges[eid].To
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

// Dijkstra returns the shortest distances from src to every node
// (math.Inf(1) for unreachable nodes).
//
// The queue is a typed binary min-heap, allocated once. Each final
// dist[v] is the minimum over in-edges of dist[u]+w with every dist[u]
// final, so the pop order of equal keys cannot change a value.
func (g *Graph) Dijkstra(src int) ([]float64, error) {
	if src < 0 || src >= g.n {
		return nil, fmt.Errorf("%w: source %d outside [0,%d)", ErrGraph, src, g.n)
	}
	dist, _ := g.sweep(src, false)
	return dist, nil
}

// sweep is Dijkstra from an in-range src. With withOrder set it also
// returns the nodes reachable from src in (distance, ID) order, the
// processing order of the ECMP fraction pass: nodes pop in
// nondecreasing distance, so an insertion pass over the pop order only
// reorders runs of equal distance, in O(n) for the usual short runs.
func (g *Graph) sweep(src int, withOrder bool) (dist []float64, order []int) {
	dist = make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	if withOrder {
		order = make([]int, 0, g.n)
	}
	done := make([]bool, g.n)
	q := append(make([]pqItem, 0, len(g.edges)+1), pqItem{node: src})
	for len(q) > 0 {
		u := q[0].node
		q = popMin(q)
		if done[u] {
			continue
		}
		done[u] = true
		if withOrder {
			order = append(order, u)
		}
		for _, eid := range g.adj[u] {
			e := &g.edges[eid]
			if nd := dist[u] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				q = pushMin(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	sortOrder(order, dist)
	return dist, order
}

// sortOrder insertion-sorts nodes by (dist, ID): O(n) plus the distance
// each node moves, so cheap on a nearly sorted list.
func sortOrder(nodes []int, dist []float64) {
	for k := 1; k < len(nodes); k++ {
		u := nodes[k]
		j := k
		for ; j > 0 && (dist[nodes[j-1]] > dist[u] || dist[nodes[j-1]] == dist[u] && nodes[j-1] > u); j-- {
			nodes[j] = nodes[j-1]
		}
		nodes[j] = u
	}
}

// pushMin appends it to the binary min-heap q and sifts it up.
func pushMin(q []pqItem, it pqItem) []pqItem {
	q = append(q, it)
	for i := len(q) - 1; i > 0 && q[(i-1)/2].dist > q[i].dist; i = (i - 1) / 2 {
		q[(i-1)/2], q[i] = q[i], q[(i-1)/2]
	}
	return q
}

// popMin removes the root of the binary min-heap q.
func popMin(q []pqItem) []pqItem {
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i, m := 0, 1; m < last; i, m = m, 2*m+1 {
		if m+1 < last && q[m+1].dist < q[m].dist {
			m++
		}
		if q[i].dist <= q[m].dist {
			break
		}
		q[i], q[m] = q[m], q[i]
	}
	return q
}

// Reverse returns the graph with every edge direction flipped. Edge IDs
// in the reversed graph match the original edge they came from.
func (g *Graph) Reverse() *Graph {
	r := NewGraph(g.n)
	r.edges = make([]Edge, len(g.edges))
	deg := make([]int, g.n)
	for _, e := range g.edges {
		deg[e.To]++
	}
	r.shareAdj(deg)
	for _, e := range g.edges {
		r.edges[e.ID] = Edge{ID: e.ID, From: e.To, To: e.From, Weight: e.Weight}
		r.adj[e.To] = append(r.adj[e.To], e.ID)
	}
	return r
}

// shareAdj points the empty adjacency lists of g into one backing array
// sized for out-degrees deg, each capped at its own segment so that an
// append past it reallocates instead of overwriting a neighbour's.
func (g *Graph) shareAdj(deg []int) {
	total := 0
	for _, d := range deg {
		total += d
	}
	ids := make([]int, total)
	off := 0
	for u, d := range deg {
		g.adj[u] = ids[off : off : off+d]
		off += d
	}
}
