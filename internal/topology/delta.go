package topology

import "fmt"

// Delta operation names, the wire vocabulary of DeltaOp.Op.
const (
	// OpAdd inserts a directed edge (From, To, Weight).
	OpAdd = "add"
	// OpRemove deletes the directed edge (From, To).
	OpRemove = "remove"
	// OpReweight sets the weight of the directed edge (From, To).
	OpReweight = "reweight"
)

// DeltaOp is one link mutation. Remove and reweight target the directed
// edge (From, To); add inserts a new one. Weight is required for add
// and reweight and ignored for remove.
type DeltaOp struct {
	Op     string  `json:"op"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"w,omitempty"`
}

// Delta is an ordered sequence of link mutations — the unit of live
// topology change (link failure, maintenance, ECMP reweighting). Apply
// it to a graph with Graph.Apply, to a descriptor with Spec.Apply, or
// to a built routing matrix with routing.Patch; its JSON form is the
// body of the estimation service's PATCH /v2/topologies/{key}.
//
// Deltas target graphs without parallel edges (every generator of this
// package produces at most one directed edge per ordered node pair):
// remove and reweight resolve (From, To) to the lowest-ID live match,
// and add refuses to create a parallel edge so that resolution stays
// unambiguous.
type Delta struct {
	Ops []DeltaOp `json:"ops"`
}

// Validate checks the delta's graph-independent invariants: known op
// names, node indices that are non-negative and distinct per op, and a
// positive finite weight wherever one is meaningful. Graph-dependent
// checks (edge existence, node range) happen in Apply.
func (d Delta) Validate() error {
	for i, op := range d.Ops {
		switch op.Op {
		case OpAdd, OpReweight:
			if err := validateEdge(op.From, op.To, op.Weight); err != nil {
				return fmt.Errorf("delta op %d (%s): %w", i, op.Op, err)
			}
		case OpRemove:
			if op.From < 0 || op.To < 0 || op.From == op.To {
				return fmt.Errorf("%w: delta op %d (remove): edge %d->%d", ErrGraph, i, op.From, op.To)
			}
		default:
			return fmt.Errorf("%w: delta op %d: unknown op %q (want add, remove or reweight)", ErrGraph, i, op.Op)
		}
	}
	return nil
}

// Apply returns the graph mutated by the delta, leaving the receiver
// untouched, together with the edge-ID remap: edgeMap[old] is the
// mutated graph's ID of old edge `old`, or -1 if the delta removed it.
//
// Edge IDs are re-assigned exactly as building the mutated edge list
// from scratch would assign them: surviving edges keep their relative
// order (a removal shifts later IDs down), added edges append in op
// order. That makes Apply's result identical — IDs included — to
// Build on GraphSpec of the result, which is what lets routing.Patch
// promise bitwise identity with a from-scratch routing.Build.
func (g *Graph) Apply(d Delta) (*Graph, []int, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	type pendingEdge struct {
		from, to int
		w        float64
		oldID    int // -1 for edges the delta added
	}
	edges := make([]pendingEdge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = pendingEdge{from: e.From, to: e.To, w: e.Weight, oldID: e.ID}
	}
	find := func(from, to int) int {
		for i, e := range edges {
			if e.from == from && e.to == to {
				return i
			}
		}
		return -1
	}
	for i, op := range d.Ops {
		if op.From >= g.n || op.To >= g.n {
			return nil, nil, fmt.Errorf("%w: delta op %d (%s): edge %d->%d outside [0,%d)", ErrGraph, i, op.Op, op.From, op.To, g.n)
		}
		switch op.Op {
		case OpAdd:
			if find(op.From, op.To) >= 0 {
				return nil, nil, fmt.Errorf("%w: delta op %d (add): edge %d->%d already exists", ErrGraph, i, op.From, op.To)
			}
			edges = append(edges, pendingEdge{from: op.From, to: op.To, w: op.Weight, oldID: -1})
		case OpRemove:
			k := find(op.From, op.To)
			if k < 0 {
				return nil, nil, fmt.Errorf("%w: delta op %d (remove): no edge %d->%d", ErrGraph, i, op.From, op.To)
			}
			edges = append(edges[:k], edges[k+1:]...)
		case OpReweight:
			k := find(op.From, op.To)
			if k < 0 {
				return nil, nil, fmt.Errorf("%w: delta op %d (reweight): no edge %d->%d", ErrGraph, i, op.From, op.To)
			}
			edges[k].w = op.Weight
		}
	}
	ng := NewGraph(g.n)
	ng.edges = make([]Edge, 0, len(edges))
	deg := make([]int, g.n)
	for _, pe := range edges {
		deg[pe.from]++
	}
	ng.shareAdj(deg)
	edgeMap := make([]int, len(g.edges))
	for i := range edgeMap {
		edgeMap[i] = -1
	}
	for _, pe := range edges {
		id, err := ng.AddEdge(pe.from, pe.to, pe.w)
		if err != nil {
			// Unreachable: every edge was either validated by the original
			// graph's AddEdge or by Validate above.
			return nil, nil, err
		}
		if pe.oldID >= 0 {
			edgeMap[pe.oldID] = id
		}
	}
	return ng, edgeMap, nil
}
