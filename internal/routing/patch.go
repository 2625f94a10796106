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
// graph — but repairs only the shortest-path rows the delta can change,
// runs fraction passes for the touched pairs only and merges in O(nnz),
// where Build runs 2n Dijkstra sweeps and a fraction pass for every one
// of the n² pairs.
//
// The old side's tables are g's cached ones (Graph.Dists: filled by the
// Build or Patch that produced g; a graph rebuilt from its spec sweeps
// once). The new side's come from Graph.DistsAfter, which shares every
// row whose shortest-path DAG the delta leaves intact and repairs the
// rest, and stay cached on the returned graph for the next Patch.
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
// flip; ECMPRouter reads distances only at member endpoints plus
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

	old, err := g.Dists()
	if err != nil {
		return nil, nil, err
	}
	nd, err := ng.DistsAfter(g, edgeMap)
	if err != nil {
		return nil, nil, err
	}
	oldFrom, oldTo, newFrom, newTo := old.From, old.To, nd.From, nd.To
	// Per-node change lists: srcChanged[i] holds the nodes whose
	// distance from i changed bitwise, dstChanged[j] the nodes whose
	// distance to j changed. A delta localized to one region leaves
	// these lists short, and only pairs whose eps-DAG meets a changed
	// node are recomputed.
	srcChanged := make([][]int, n)
	dstChanged := make([][]int, n)
	for u := 0; u < n; u++ {
		srcChanged[u] = changedNodes(oldFrom[u], newFrom[u])
		dstChanged[u] = changedNodes(oldTo[u], newTo[u])
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
	for i := 0; i < n; i++ {
		of, nf := oldFrom[i], newFrom[i]
		for j := 0; j < n; j++ {
			col := tm.PairIndex(n, i, j)
			if i == j || touched[col] {
				continue
			}
			if math.IsInf(nf[j], 1) {
				touched[col] = true
				continue
			}
			// The pair totals with ECMPRouter's tolerance (relative to
			// the pair's distance, same float expression).
			ob, nb := of[j]+eps*of[j], nf[j]+eps*nf[j]
			ot, nt := oldTo[j], newTo[j]
			if onDAG(srcChanged[i], of, ot, ob, nf, nt, nb) || onDAG(dstChanged[j], of, ot, ob, nf, nt, nb) {
				touched[col] = true
				continue
			}
			for _, e := range changedNew {
				if nf[e.From]+e.Weight+nt[e.To] <= nb {
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
	r, err := ng.NewECMPRouter(nd)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		src := false
		for j := 0; j < n; j++ {
			col := tm.PairIndex(n, i, j)
			if i == j || !touched[col] {
				continue
			}
			if !src {
				if err := r.SetSource(i); err != nil {
					return nil, nil, err
				}
				src = true
			}
			fr, err := r.Fractions(j)
			if err != nil {
				return nil, nil, fmt.Errorf("routing: pair (%d,%d): %w", i, j, err)
			}
			for _, f := range fr {
				add[f.Edge] = append(add[f.Edge], linalg.Coord{Row: f.Edge, Col: col, Val: f.Frac})
			}
		}
	}
	out, err := csr.PatchRows(newL+2*n, n*n, srcRow, func(src int) []bool {
		if src < oldL {
			return touched
		}
		return nil
	}, add)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: assemble patched CSR: %w", err)
	}
	return &Matrix{N: n, L: newL, csr: out}, ng, nil
}

// changedNodes lists the nodes whose distance differs bitwise between a
// row of the old and the new tables; a row DistsAfter shared has none.
func changedNodes(old, new []float64) []int {
	if len(old) == 0 || &old[0] == &new[0] {
		return nil
	}
	var out []int
	for v := range old {
		if math.Float64bits(old[v]) != math.Float64bits(new[v]) {
			out = append(out, v)
		}
	}
	return out
}

// onDAG reports whether some node of vs lies on a pair's eps-tolerant
// shortest-path DAG under the old tables (of, ot, bound ob) or the new
// ones (nf, nt, nb).
func onDAG(vs []int, of, ot []float64, ob float64, nf, nt []float64, nb float64) bool {
	for _, v := range vs {
		if of[v]+ot[v] <= ob || nf[v]+nt[v] <= nb {
			return true
		}
	}
	return false
}
