package routing

import (
	"fmt"
	"math"

	"ictm/internal/linalg"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// Patch applies a topology delta to a built routing matrix, recomputing
// only the OD pairs the delta touches, and returns the patched matrix
// with the mutated graph. m must be the routing matrix of g (as built by
// Build; all pairs routable). The result is bitwise-identical to
// Build(g.Apply(delta)) — same CSR values, same stored order, and the
// same error on the same first pair if the delta disconnects the
// graph — but costs 2n Dijkstra sweeps per side, fraction passes for the
// touched pairs only and an O(nnz) merge, where Build runs a fraction
// pass for every one of the n² pairs.
//
// A pair (i,j) is recomputed when any evidence of change exists:
//
//   - a node whose distance from i or to j changed (bit compare of the
//     Dijkstra tables) lies on the pair's eps-tolerant shortest-path
//     DAG in the old or the new graph, or the pair became unreachable,
//   - a removed or reweighted edge carried part of the pair before (a
//     stored entry in that edge's old row), or
//   - an added or reweighted edge lies on the pair's new shortest-path
//     DAG (it will carry traffic now).
//
// Every other pair's fractions are provably bit-identical under a
// rebuild, so their stored entries are carried, re-rowed through the
// edge-ID remap of Graph.Apply. The first criterion is node-level, not
// vector-level, because a changed node off both DAGs cannot alter the
// pair's flow computation: every endpoint of an eps-DAG edge is itself
// an eps-DAG node (triangle inequality), so no edge-membership test can
// flip; ECMPFractionsDist reads distances only at member endpoints plus
// from[i][j] (and j, i are always eps-DAG nodes, so a changed from[i][j]
// or to[j][i] marks the pair); and its processing order places each node
// by its own (distance, ID) alone.
func Patch(m *Matrix, g *topology.Graph, delta topology.Delta) (*Matrix, *topology.Graph, error) {
	n := g.N()
	if m.N != n || m.L != g.NumEdges() {
		return nil, nil, fmt.Errorf("%w: matrix (n=%d, l=%d) does not describe graph (n=%d, l=%d)",
			ErrInput, m.N, m.L, n, g.NumEdges())
	}
	ng, edgeMap, err := g.Apply(delta)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: apply delta: %w", err)
	}
	oldL, newL := g.NumEdges(), ng.NumEdges()

	oldFrom, oldTo, err := allDists(g)
	if err != nil {
		return nil, nil, err
	}
	newFrom, newTo, err := allDists(ng)
	if err != nil {
		return nil, nil, err
	}
	// Per-node change lists: srcChanged[i] holds the nodes whose
	// distance from i changed bitwise, dstChanged[j] the nodes whose
	// distance to j changed. A delta localized to one region leaves
	// these lists short, and only pairs whose eps-DAG meets a changed
	// node are recomputed.
	srcChanged := make([][]int, n)
	dstChanged := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if math.Float64bits(oldFrom[u][v]) != math.Float64bits(newFrom[u][v]) {
				srcChanged[u] = append(srcChanged[u], v)
			}
			if math.Float64bits(oldTo[u][v]) != math.Float64bits(newTo[u][v]) {
				dstChanged[u] = append(dstChanged[u], v)
			}
		}
	}

	// Row plan for the patched CSR, and the delta's edge sets: old rows
	// that stop being valid (removed/reweighted) and new edges that may
	// start carrying traffic (added/reweighted).
	srcRow := make([]int, newL+2*n)
	for k := range srcRow {
		srcRow[k] = -1
	}
	newEdges := ng.Edges()
	carried := make([]bool, newL)
	var changedOldRows []int
	var changedNew []topology.Edge
	for _, e := range g.Edges() {
		k := edgeMap[e.ID]
		if k < 0 {
			changedOldRows = append(changedOldRows, e.ID)
			continue
		}
		srcRow[k] = e.ID
		carried[k] = true
		if math.Float64bits(newEdges[k].Weight) != math.Float64bits(e.Weight) {
			changedOldRows = append(changedOldRows, e.ID)
			changedNew = append(changedNew, newEdges[k])
		}
	}
	for _, e := range newEdges {
		if !carried[e.ID] {
			changedNew = append(changedNew, e)
		}
	}
	for i := 0; i < n; i++ {
		srcRow[newL+i] = oldL + i       // ingress rows carry whole
		srcRow[newL+n+i] = oldL + n + i // egress rows carry whole
	}

	// Mark the touched pair columns.
	touched := make([]bool, n*n)
	csr := m.CSR()
	for _, eid := range changedOldRows {
		cols, _ := csr.RowEntries(eid)
		for _, c := range cols {
			touched[c] = true
		}
	}
	const eps = 1e-9
	// onPairDAG: node v lies on the eps-tolerant shortest-path DAG of
	// (i,j) under the given distance tables, with ECMPFractionsDist's
	// tolerance (relative to the pair's distance, same float expression).
	onPairDAG := func(from, to []float64, v int, total float64) bool {
		return from[v]+to[v] <= total+eps*total
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			col := tm.PairIndex(n, i, j)
			if math.IsInf(newFrom[i][j], 1) {
				touched[col] = true
				continue
			}
			if touched[col] {
				continue
			}
			for _, v := range srcChanged[i] {
				if onPairDAG(oldFrom[i], oldTo[j], v, oldFrom[i][j]) ||
					onPairDAG(newFrom[i], newTo[j], v, newFrom[i][j]) {
					touched[col] = true
					break
				}
			}
			if !touched[col] {
				for _, v := range dstChanged[j] {
					if onPairDAG(oldFrom[i], oldTo[j], v, oldFrom[i][j]) ||
						onPairDAG(newFrom[i], newTo[j], v, newFrom[i][j]) {
						touched[col] = true
						break
					}
				}
			}
			if touched[col] {
				continue
			}
			for _, e := range changedNew {
				if newFrom[i][e.From]+e.Weight+newTo[j][e.To] <= newFrom[i][j]+eps*newFrom[i][j] {
					touched[col] = true
					break
				}
			}
		}
	}

	// Recompute fractions for the touched pairs off the shared distance
	// tables, in Build's (i,j) order so add columns ascend per row and
	// the first disconnection error matches Build's.
	add := make([][]linalg.Coord, newL+2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !touched[tm.PairIndex(n, i, j)] {
				continue
			}
			col := tm.PairIndex(n, i, j)
			frac, err := ng.ECMPFractionsDist(i, j, newFrom[i], newTo[j])
			if err != nil {
				return nil, nil, fmt.Errorf("routing: pair (%d,%d): %w", i, j, err)
			}
			for eid, f := range frac {
				add[eid] = append(add[eid], linalg.Coord{Row: eid, Col: col, Val: f})
			}
		}
	}
	out, err := csr.PatchRows(newL+2*n, n*n, srcRow, func(src, col int) bool {
		return src < oldL && touched[col]
	}, add)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: assemble patched CSR: %w", err)
	}
	return &Matrix{N: n, L: newL, csr: out}, ng, nil
}
