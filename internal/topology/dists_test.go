package topology

import (
	"math"
	"math/rand"
	"testing"
)

// mixedDelta draws a delta of 1-4 ops against g that may remove, add,
// raise and lower links, with weights drawn from palette so that a
// palette of small integers makes equal-cost ties common.
func mixedDelta(rng *rand.Rand, g *Graph, palette []float64) Delta {
	present := map[[2]int]float64{}
	for _, e := range g.Edges() {
		present[[2]int{e.From, e.To}] = e.Weight
	}
	var ops []DeltaOp
	for k := 1 + rng.Intn(4); k > 0; k-- {
		from, to := rng.Intn(g.N()), rng.Intn(g.N())
		if len(g.Edges()) > 0 && rng.Intn(3) > 0 {
			e := g.Edges()[rng.Intn(len(g.Edges()))]
			from, to = e.From, e.To
		}
		w, ok := present[[2]int{from, to}]
		switch {
		case from == to:
			continue
		case !ok:
			w = palette[rng.Intn(len(palette))]
			present[[2]int{from, to}] = w
			ops = append(ops, DeltaOp{Op: OpAdd, From: from, To: to, Weight: w})
		case w < 0:
			continue // removed earlier in this delta
		case rng.Intn(3) == 0:
			present[[2]int{from, to}] = -1
			ops = append(ops, DeltaOp{Op: OpRemove, From: from, To: to})
		case rng.Intn(2) == 0:
			ops = append(ops, DeltaOp{Op: OpReweight, From: from, To: to, Weight: w * 2})
		default:
			nw := palette[rng.Intn(len(palette))]
			if nw >= w {
				nw = w / 2
			}
			ops = append(ops, DeltaOp{Op: OpReweight, From: from, To: to, Weight: nw})
		}
	}
	return Delta{Ops: ops}
}

// sameDists reports the first row where two tables differ bitwise, in
// a distance or in a source's processing order.
func sameDists(t *testing.T, got, want *Dists) {
	t.Helper()
	bits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return false
			}
		}
		return true
	}
	for u := range want.From {
		if !bits(got.From[u], want.From[u]) {
			t.Fatalf("From[%d] = %v, swept %v", u, got.From[u], want.From[u])
		}
		if !bits(got.To[u], want.To[u]) {
			t.Fatalf("To[%d] = %v, swept %v", u, got.To[u], want.To[u])
		}
		if len(got.order[u]) != len(want.order[u]) {
			t.Fatalf("order[%d] = %v, swept %v", u, got.order[u], want.order[u])
		}
		for k := range want.order[u] {
			if got.order[u][k] != want.order[u][k] {
				t.Fatalf("order[%d] = %v, swept %v", u, got.order[u], want.order[u])
			}
		}
	}
}

// unitWeights returns g with every weight set to 1.
func unitWeights(t *testing.T, g *Graph) *Graph {
	t.Helper()
	out := NewGraph(g.N())
	for _, e := range g.Edges() {
		if _, err := out.AddEdge(e.From, e.To, 1); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// DistsAfter's repaired tables equal a fresh sweep of the mutated graph
// rebuilt from its spec, bit for bit and order for order, along chains
// of mixed deltas: integer weights (equal-cost ties everywhere), random
// float weights, and mixed scales where a 1e-17 link vanishes in the
// sums it joins.
func TestDistsAfterMatchesSweep(t *testing.T) {
	ring, err := RingChords(16, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman(14, 0.6, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := BackboneStub(24, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *Graph
		palette []float64
	}{
		{"unit-ring", unitWeights(t, ring), []float64{1, 2, 3}},
		{"waxman", wax, []float64{0.5, 1.25, 3.5}},
		{"backbone-stub", stub, []float64{1, 2.5, 4}},
		{"mixed-scale", unitWeights(t, ring), []float64{1, 1e-17, 0.5}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(101 + ci)))
			g := tc.g
			for step := 0; step < 60; step++ {
				d := mixedDelta(rng, g, tc.palette)
				ng, edgeMap, err := g.Apply(d)
				if err != nil {
					continue
				}
				got, err := ng.DistsAfter(g, edgeMap)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := GraphSpec(ng).Build()
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.SweepDists()
				if err != nil {
					t.Fatal(err)
				}
				sameDists(t, got, want)
				if cached, _ := ng.Dists(); cached != got {
					t.Fatal("DistsAfter did not cache its tables on the mutated graph")
				}
				g = ng
			}
		})
	}
}

// A delta no shortest path notices — a link raised that no row uses
// tightly — shares every base row, and AddEdge drops a stale cache.
func TestDistsAfterSharesUnchangedRows(t *testing.T) {
	g := NewGraph(3)
	for _, e := range []struct {
		a, b int
		w    float64
	}{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		if _, _, err := g.AddBiEdge(e.a, e.b, e.w); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Dists()
	if err != nil {
		t.Fatal(err)
	}
	ng, edgeMap, err := g.Apply(Delta{Ops: []DeltaOp{{Op: OpReweight, From: 0, To: 2, Weight: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ng.DistsAfter(g, edgeMap)
	if err != nil {
		t.Fatal(err)
	}
	for u := range d.From {
		if &d.From[u][0] != &base.From[u][0] || &d.To[u][0] != &base.To[u][0] {
			t.Fatalf("row %d re-derived for a delta no shortest path uses", u)
		}
	}
	if _, err := g.AddEdge(2, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	fresh, err := g.Dists()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == base || fresh.From[2][0] != 0.5 {
		t.Fatalf("after AddEdge: cached tables kept, dist(2,0) = %g", fresh.From[2][0])
	}
}
