package topology

import "math"

// Dists are a graph's all-pairs shortest-path tables: From[u] is
// Dijkstra from u (the distances from u) and To[v] is Dijkstra from v on
// the reversed graph (the distances to v). A table row is never mutated
// once built, so tables derived by DistsAfter share every row a delta
// cannot change with the base graph's.
//
// A graph caches the tables of the last SweepDists, Dists or DistsAfter
// call on it for as long as it lives: 2n² floats, n² ints of processing
// order and the reversed graph, ≈250 KB at n=100 and ≈1 MB at n=200,
// less for derived tables that share rows.
type Dists struct {
	From, To [][]float64

	// order[u] lists the nodes reachable from u in (distance, ID)
	// order; see ECMPRouter.
	order [][]int
	// rev is the reversed graph the To rows were swept or repaired on.
	rev *Graph
}

// SweepDists runs the 2n Dijkstra sweeps of g — one from each source,
// one to each destination on one shared reversed graph — caches the
// tables on g and returns them. It never reads the cache: routing.Build
// pays it so that a from-scratch build stays independent of any tables
// derived by DistsAfter.
func (g *Graph) SweepDists() (*Dists, error) {
	d := newDists(g.n)
	d.rev = g.Reverse()
	for u := 0; u < g.n; u++ {
		d.From[u], d.order[u] = g.sweep(u, true)
		var err error
		if d.To[u], err = d.rev.Dijkstra(u); err != nil {
			return nil, err
		}
	}
	g.dists.Store(d)
	return d, nil
}

func newDists(n int) *Dists {
	return &Dists{From: make([][]float64, n), To: make([][]float64, n), order: make([][]int, n)}
}

// Dists returns g's cached shortest-path tables, running SweepDists on a
// miss. The tables are shared and must not be mutated.
func (g *Graph) Dists() (*Dists, error) {
	if d := g.dists.Load(); d != nil {
		return d, nil
	}
	return g.SweepDists()
}

// DistsAfter returns the shortest-path tables of g, which must be
// base.Apply's result with edge remap edgeMap, and caches them on g. It
// starts from base's tables (base.Dists, cached or swept), shares every
// row the delta cannot change and repairs the others in place of a
// fresh sweep.
//
// Write d for a base row and w' for an edge's weight in g; for a To row
// every edge runs backwards. A row changes only when an added or
// lowered edge (u,v) undercuts it, d[u] + w' < d[v], or a removed or
// raised edge was tight, d[u] + w = d[v] under its old weight w with v
// reachable. The repair (Ramalingam–Reps) then marks the nodes whose
// every tight in-edge from a strictly nearer node was lost or comes
// from a marked node, and runs Dijkstra from the unmarked boundary and
// the undercutting edges over the marked and improved nodes only.
//
// Repaired and swept rows agree bit for bit. Both satisfy, over g:
// d[v] ≤ d[u] + w' for every edge (u,v), and every finite d[v] is at
// least the left-to-right rounded length of some path from the source.
// Two rows with those properties are equal: by monotone rounding, each
// row is at most the length of every path, so at most the other row.
func (g *Graph) DistsAfter(base *Graph, edgeMap []int) (*Dists, error) {
	old, err := base.Dists()
	if err != nil {
		return nil, err
	}
	d := newDists(g.n)
	d.rev = g.Reverse()
	fwd := &repair{old: base, oldIn: old.rev, new: g, newIn: d.rev,
		gone: make([]bool, len(base.edges)), marked: make([]bool, g.n), seen: make([]bool, g.n)}
	kept := make([]bool, len(g.edges))
	for _, e := range base.edges {
		k := edgeMap[e.ID]
		if k >= 0 {
			kept[k] = true
		}
		switch {
		case k < 0 || g.edges[k].Weight > e.Weight:
			fwd.gone[e.ID] = true
			fwd.up = append(fwd.up, e.ID)
		case g.edges[k].Weight < e.Weight:
			fwd.down = append(fwd.down, k)
		}
	}
	for _, e := range g.edges {
		if !kept[e.ID] {
			fwd.down = append(fwd.down, e.ID)
		}
	}
	// The To rows are the same repair on the reversed graphs.
	bwd := *fwd
	bwd.old, bwd.oldIn, bwd.new, bwd.newIn = old.rev, base, d.rev, g

	for u := 0; u < g.n; u++ {
		d.From[u], d.order[u] = fwd.row(old.From[u], old.order[u])
		d.To[u], _ = bwd.row(old.To[u], nil)
	}
	g.dists.Store(d)
	return d, nil
}

// repair carries base rows of one direction across a delta: old and
// new are the base and mutated graphs, oldIn and newIn their reverses,
// whose adjacency lists are the in-edges. Edge IDs index old's edges
// for gone and up, new's for down.
type repair struct {
	old, oldIn, new, newIn *Graph

	gone []bool // base edges the delta removed or raised
	up   []int  // those edges
	down []int  // added or lowered edges of the mutated graph

	marked, seen []bool // per node, all false between rows
	q            []pqItem
}

// row returns the mutated graph's row given base row d0 and, when
// order0 is non-nil, the row's (distance, ID) order: d0 and order0
// themselves when the delta cannot change them.
func (r *repair) row(d0 []float64, order0 []int) ([]float64, []int) {
	q := r.q[:0]
	for _, id := range r.up {
		e := &r.old.edges[id]
		if !math.IsInf(d0[e.To], 1) && d0[e.From]+e.Weight <= d0[e.To] {
			q = pushMin(q, pqItem{node: e.To, dist: d0[e.To]})
		}
	}
	undercut := false
	for _, id := range r.down {
		e := &r.new.edges[id]
		undercut = undercut || d0[e.From]+e.Weight < d0[e.To]
	}
	if len(q) == 0 && !undercut {
		r.q = q
		return d0, order0
	}

	// Mark, in increasing base distance, each candidate left without a
	// tight in-edge from a strictly nearer unmarked node over an edge
	// the delta kept; the tight out-neighbours of a marked node become
	// candidates. A node's supporters are strictly nearer, so all are
	// decided before it is.
	var visited, marked []int
	for len(q) > 0 {
		x := q[0].node
		q = popMin(q)
		if r.seen[x] {
			continue
		}
		r.seen[x] = true
		visited = append(visited, x)
		if r.supported(x, d0) {
			continue
		}
		r.marked[x] = true
		marked = append(marked, x)
		for _, id := range r.old.adj[x] {
			e := &r.old.edges[id]
			if !r.seen[e.To] && d0[x]+e.Weight == d0[e.To] {
				q = pushMin(q, pqItem{node: e.To, dist: d0[e.To]})
			}
		}
	}

	// Dijkstra over the mutated graph, seeded at the marked nodes from
	// their unmarked in-neighbours and at the heads of undercutting
	// edges; unmarked nodes keep their base distance unless improved.
	d := append(make([]float64, 0, len(d0)), d0...)
	for _, x := range marked {
		d[x] = math.Inf(1)
	}
	moved := marked
	for _, x := range marked {
		for _, id := range r.newIn.adj[x] {
			e := &r.new.edges[id]
			if nd := d[e.From] + e.Weight; nd < d[x] {
				d[x] = nd
			}
		}
		if !math.IsInf(d[x], 1) {
			q = pushMin(q, pqItem{node: x, dist: d[x]})
		}
	}
	for _, id := range r.down {
		e := &r.new.edges[id]
		if nd := d[e.From] + e.Weight; nd < d[e.To] {
			d[e.To] = nd
			q = pushMin(q, pqItem{node: e.To, dist: nd})
		}
	}
	for len(q) > 0 {
		it := q[0]
		q = popMin(q)
		if it.dist != d[it.node] {
			continue // superseded
		}
		x := it.node
		if !r.marked[x] {
			r.marked[x] = true
			moved = append(moved, x)
		}
		for _, id := range r.new.adj[x] {
			e := &r.new.edges[id]
			if nd := d[x] + e.Weight; nd < d[e.To] {
				d[e.To] = nd
				q = pushMin(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	r.q = q

	var order []int
	if order0 != nil {
		order = make([]int, 0, len(d))
		for _, u := range order0 {
			if !math.IsInf(d[u], 1) {
				order = append(order, u)
			}
		}
		for _, u := range moved {
			if math.IsInf(d0[u], 1) && !math.IsInf(d[u], 1) {
				order = append(order, u)
			}
		}
		sortOrder(order, d)
	}
	for _, x := range visited {
		r.seen[x] = false
	}
	for _, x := range moved {
		r.marked[x] = false
	}
	return d, order
}

// supported reports whether node x keeps, under base row d0, a tight
// in-edge (p,x) the delta kept from an unmarked p with d0[p] < d0[x].
func (r *repair) supported(x int, d0 []float64) bool {
	for _, id := range r.oldIn.adj[x] {
		e := &r.old.edges[id]
		p := e.From
		if !r.gone[id] && !r.marked[p] && d0[p] < d0[x] && d0[p]+e.Weight == d0[x] {
			return true
		}
	}
	return false
}
