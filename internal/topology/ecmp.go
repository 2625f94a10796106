package topology

import (
	"fmt"
	"math"
	"sort"
)

// ECMPFractionsDist returns, for the OD pair (src, dst), the fraction of
// the demand carried by each directed edge under equal-cost multipath
// routing with per-hop even splitting: at every node on the shortest-path
// DAG the incoming flow divides equally over the shortest-path next hops.
//
// distFrom must be g.Dijkstra(src), distTo g.Reverse().Dijkstra(dst):
// routing.Build and routing.Patch route all n² pairs off 2n sweeps.
//
// The result maps edge ID -> fraction in (0, 1]; edges off every shortest
// src-dst path are absent. src == dst yields an empty map (intra-PoP
// traffic never enters the backbone). An unreachable destination is an
// error, and so is a shortest-path DAG the (distance, ID) order cannot
// route: when a link weight falls below the float spacing of the
// distance it is added to, a DAG edge can lead to a node that was split
// already, and its flow would be lost.
//
// Path costs compare with a tolerance relative to the pair's distance:
// an absolute one admits detours and backward edges into the DAG once
// link weights approach it.
func (g *Graph) ECMPFractionsDist(src, dst int, distFrom, distTo []float64) (map[int]float64, error) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return nil, fmt.Errorf("%w: pair (%d,%d) outside [0,%d)", ErrGraph, src, dst, g.n)
	}
	if src == dst {
		return map[int]float64{}, nil
	}
	if len(distFrom) != g.n || len(distTo) != g.n {
		return nil, fmt.Errorf("%w: distance vectors of %d/%d for n=%d", ErrGraph, len(distFrom), len(distTo), g.n)
	}
	if math.IsInf(distFrom[dst], 1) {
		return nil, fmt.Errorf("%w: %d unreachable from %d", ErrGraph, dst, src)
	}
	const eps = 1e-9
	bound := distFrom[dst] + eps*distFrom[dst]

	// An edge (u,v) lies on a shortest src->dst path iff
	// dist(src,u) + w + dist(v,dst) == dist(src,dst).
	onDAG := func(e Edge) bool {
		return distFrom[e.From]+e.Weight+distTo[e.To] <= bound
	}

	// Next-hop counts per node (out-degree within the DAG).
	nextHops := make([][]int, g.n)
	for _, e := range g.edges {
		if onDAG(e) {
			nextHops[e.From] = append(nextHops[e.From], e.ID)
		}
	}

	// Process nodes in increasing distance from src so all inflow to a
	// node is known before its outflow is split. Equal-distance nodes
	// are ordered by ID: each node's position is then a function of its
	// own (distance, ID) alone, never of other nodes' values — the
	// invariant routing.Patch's carry proof relies on (a distance change
	// at a node off a pair's DAG must not reorder the flow summation of
	// the unchanged DAG nodes).
	order := make([]int, 0, g.n)
	for u := 0; u < g.n; u++ {
		if !math.IsInf(distFrom[u], 1) {
			order = append(order, u)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := distFrom[order[a]], distFrom[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})

	nodeFlow := make([]float64, g.n)
	nodeFlow[src] = 1
	frac := make(map[int]float64)
	for _, u := range order {
		if u == dst || nodeFlow[u] == 0 || len(nextHops[u]) == 0 {
			continue
		}
		share := nodeFlow[u] / float64(len(nextHops[u]))
		for _, eid := range nextHops[u] {
			v := g.edges[eid].To
			if v != dst && (distFrom[v] < distFrom[u] || distFrom[v] == distFrom[u] && v < u) {
				return nil, fmt.Errorf("%w: pair (%d,%d): shortest-path edge %d->%d leads back in distance order (link weights too far apart in scale)", ErrGraph, src, dst, u, v)
			}
			frac[eid] += share
			nodeFlow[v] += share
		}
	}
	return frac, nil
}
