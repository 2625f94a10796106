package topology

import (
	"encoding/json"
	"fmt"
)

// Spec is a serializable topology descriptor: enough to rebuild a graph
// deterministically on the other side of a wire. The online estimation
// service keys its shared-solver pool by Key(), so two clients naming
// the same generator family with the same parameters share one routing
// factorization.
//
// Families:
//
//	"waxman"        — Waxman(N, Alpha, Beta, Seed); zero Alpha/Beta
//	                  select the evaluation defaults 0.6/0.4 used by the
//	                  geant/totem presets
//	"ring-chords"   — RingChords(N, Chords, Seed)
//	"backbone-stub" — BackboneStub(N, Core, Seed); Core=0 selects the
//	                  default backbone size
//	"explicit"      — N nodes plus the literal directed edge list
type Spec struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed,omitempty"`

	// Alpha, Beta parameterize the "waxman" family.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// Chords parameterizes the "ring-chords" family.
	Chords int `json:"chords,omitempty"`
	// Core parameterizes the "backbone-stub" family.
	Core int `json:"core,omitempty"`
	// Edges carries the "explicit" family's directed edge list.
	Edges []EdgeSpec `json:"edges,omitempty"`
}

// EdgeSpec is one directed edge of an explicit Spec.
type EdgeSpec struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"w"`
}

// Families of Spec, in the order documented on the type.
const (
	FamilyWaxman       = "waxman"
	FamilyRingChords   = "ring-chords"
	FamilyBackboneStub = "backbone-stub"
	FamilyExplicit     = "explicit"
)

// normalized returns the spec with family defaults made explicit and
// irrelevant fields zeroed, so that equivalent descriptors share one
// canonical form (and therefore one Key).
func (s Spec) normalized() Spec {
	out := Spec{Family: s.Family, N: s.N, Seed: s.Seed}
	switch s.Family {
	case FamilyWaxman:
		out.Alpha, out.Beta = s.Alpha, s.Beta
		if out.Alpha == 0 {
			out.Alpha = 0.6
		}
		if out.Beta == 0 {
			out.Beta = 0.4
		}
	case FamilyRingChords:
		out.Chords = s.Chords
	case FamilyBackboneStub:
		out.Core = s.Core
	case FamilyExplicit:
		out.Seed = 0 // a literal edge list has no randomness
		out.Edges = s.Edges
	}
	return out
}

// Key returns the canonical serialized form of the spec: equal keys mean
// Build returns identical graphs. Suitable as a cache key.
func (s Spec) Key() string {
	b, err := json.Marshal(s.normalized())
	if err != nil {
		// Spec has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("topology: marshal spec: %v", err))
	}
	return string(b)
}

// GraphSpec returns the explicit Spec describing g edge for edge:
// Build on the result reconstructs g exactly — same node count, same
// edge IDs, same weights. It is how mutated graphs re-enter the Spec
// world: after Graph.Apply, the explicit spec of the result is the
// canonical derived descriptor of the Spec+delta history, and its
// Key() the derived key. Because the descriptor captures the resulting
// edge list rather than the mutation path, any two delta histories
// reaching the same graph share one derived key.
func GraphSpec(g *Graph) Spec {
	edges := make([]EdgeSpec, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = EdgeSpec{From: e.From, To: e.To, Weight: e.Weight}
	}
	return Spec{Family: FamilyExplicit, N: g.N(), Edges: edges}
}

// Apply builds the spec's graph, applies the delta, and returns the
// canonical derived descriptor (GraphSpec of the mutated graph). The
// derived descriptor's Key is the deterministic re-keying of this
// spec + delta history: equal histories — or different histories with
// equal outcomes — yield equal keys.
//
//iclint:ignore deadexport the routing, serve, estimation, faults and cmd tests derive patched topologies through it; serve patches the Graph directly
func (s Spec) Apply(d Delta) (Spec, error) {
	g, err := s.Build()
	if err != nil {
		return Spec{}, err
	}
	ng, _, err := g.Apply(d)
	if err != nil {
		return Spec{}, err
	}
	return GraphSpec(ng), nil
}

// Build deterministically constructs the described graph.
func (s Spec) Build() (*Graph, error) {
	n := s.normalized()
	switch n.Family {
	case FamilyWaxman:
		return Waxman(n.N, n.Alpha, n.Beta, n.Seed)
	case FamilyRingChords:
		return RingChords(n.N, n.Chords, n.Seed)
	case FamilyBackboneStub:
		return BackboneStub(n.N, n.Core, n.Seed)
	case FamilyExplicit:
		if n.N <= 0 {
			return nil, fmt.Errorf("%w: explicit spec over n=%d nodes", ErrGraph, n.N)
		}
		g := NewGraph(n.N)
		for i, e := range n.Edges {
			if _, err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
				return nil, fmt.Errorf("topology: explicit edge %d: %w", i, err)
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf("%w: unknown topology family %q", ErrGraph, s.Family)
	}
}
