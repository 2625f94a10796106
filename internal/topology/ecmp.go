package topology

import (
	"fmt"
	"math"
)

// EdgeFrac is one directed edge's share of an OD pair's demand.
type EdgeFrac struct {
	Edge int     // edge ID
	Frac float64 // fraction of the pair's demand, in (0, 1]
}

// ECMPRouter computes, per OD pair, the fraction of the demand carried
// by each directed edge under equal-cost multipath routing with per-hop
// even splitting: at every node on the shortest-path DAG the incoming
// flow divides equally over the shortest-path next hops.
//
// It is the per-source kernel of routing.Build and routing.Patch: the
// processing order of a source comes with its Dists row, and Fractions
// routes each of that source's destinations on scratch the router
// keeps, so a full build allocates nothing per pair. A router is not
// safe for concurrent use.
type ECMPRouter struct {
	g    *Graph
	d    *Dists
	src  int
	via  []float64  // via[e] = d.From[src][e.From] + e.Weight
	flow []float64  // inflow per node of the pair being routed; all zero between calls
	hops []int      // the shortest-path next hops of the node being split
	out  []EdgeFrac // the result of the last Fractions call
}

// NewECMPRouter returns a router over g and its shortest-path tables d
// (g.Dists, g.SweepDists or g.DistsAfter), with no source set.
func (g *Graph) NewECMPRouter(d *Dists) (*ECMPRouter, error) {
	if len(d.From) != g.n || len(d.To) != g.n || len(d.order) != g.n {
		return nil, fmt.Errorf("%w: distance tables of %d/%d rows for n=%d", ErrGraph, len(d.From), len(d.To), g.n)
	}
	return &ECMPRouter{
		g:    g,
		d:    d,
		src:  -1,
		via:  make([]float64, len(g.edges)),
		flow: make([]float64, g.n),
	}, nil
}

// SetSource makes src the source of the following Fractions calls.
//
// Nodes are processed in increasing distance from src, so all inflow to
// a node is known before its outflow is split. Equal-distance nodes are
// ordered by ID: each node's position is then a function of its own
// (distance, ID) alone, never of other nodes' values — the invariant
// routing.Patch's carry proof relies on (a distance change at a node off
// a pair's DAG must not reorder the flow summation of the unchanged DAG
// nodes).
func (r *ECMPRouter) SetSource(src int) error {
	g := r.g
	if src < 0 || src >= g.n {
		return fmt.Errorf("%w: source %d outside [0,%d)", ErrGraph, src, g.n)
	}
	r.src = src
	from := r.d.From[src]
	for k, e := range g.edges {
		r.via[k] = from[e.From] + e.Weight
	}
	return nil
}

// Fractions routes the pair (src, dst) for the current source.
//
// The result lists each edge on some shortest src-dst path once, in
// processing order; edges off every such path are absent. It is the
// router's scratch, valid until the next call. src == dst yields an
// empty list (intra-PoP traffic never enters the backbone). An
// unreachable destination is an error, and so is a shortest-path DAG
// the (distance, ID) order cannot route: when a link weight falls below
// the float spacing of the distance it is added to, a DAG edge can lead
// to a node that was split already, and its flow would be lost.
//
// Path costs compare with a tolerance relative to the pair's distance:
// an absolute one admits detours and backward edges into the DAG once
// link weights approach it.
func (r *ECMPRouter) Fractions(dst int) ([]EdgeFrac, error) {
	g, src := r.g, r.src
	if src < 0 {
		return nil, fmt.Errorf("%w: no source set", ErrGraph)
	}
	if dst < 0 || dst >= g.n {
		return nil, fmt.Errorf("%w: pair (%d,%d) outside [0,%d)", ErrGraph, src, dst, g.n)
	}
	r.out = r.out[:0]
	if src == dst {
		return r.out, nil
	}
	from, distTo, order := r.d.From[src], r.d.To[dst], r.d.order[src]
	if math.IsInf(from[dst], 1) {
		return nil, fmt.Errorf("%w: %d unreachable from %d", ErrGraph, dst, src)
	}
	const eps = 1e-9
	bound := from[dst] + eps*from[dst]

	// An edge (u,v) lies on a shortest src->dst path iff
	// dist(src,u) + w + dist(v,dst) == dist(src,dst). Only nodes the
	// flow reaches are split, so only their out-edges are tested.
	r.flow[src] = 1
	var err error
	for _, u := range order {
		if u == dst || r.flow[u] == 0 {
			continue
		}
		r.hops = r.hops[:0]
		for _, eid := range g.adj[u] {
			if r.via[eid]+distTo[g.edges[eid].To] <= bound {
				r.hops = append(r.hops, eid)
			}
		}
		if len(r.hops) == 0 {
			continue
		}
		share := r.flow[u] / float64(len(r.hops))
		for _, eid := range r.hops {
			v := g.edges[eid].To
			if v != dst && (from[v] < from[u] || from[v] == from[u] && v < u) {
				err = fmt.Errorf("%w: pair (%d,%d): shortest-path edge %d->%d leads back in distance order (link weights too far apart in scale)", ErrGraph, src, dst, u, v)
				break
			}
			r.out = append(r.out, EdgeFrac{Edge: eid, Frac: share})
			r.flow[v] += share
		}
		if err != nil {
			break
		}
	}
	for _, u := range order {
		r.flow[u] = 0
	}
	if err != nil {
		return nil, err
	}
	return r.out, nil
}
