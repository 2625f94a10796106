package topology

import (
	"fmt"
	"math"

	"ictm/internal/rng"
)

// RingChords builds a PoP-style backbone: n nodes on a ring (guaranteed
// connectivity and two disjoint paths between any pair) plus `chords`
// random non-adjacent shortcut links. All links are bidirectional with
// mildly randomized weights, which makes equal-cost ties rare but
// possible — exercising the ECMP machinery without dominating it.
func RingChords(n, chords int, seed uint64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs >= 3 nodes, got %d", ErrGraph, n)
	}
	g := NewGraph(n)
	r := rng.New(seed).Derive("topology/ringchords")
	for i := 0; i < n; i++ {
		w := 1 + 0.2*r.Float64()
		if _, _, err := g.AddBiEdge(i, (i+1)%n, w); err != nil {
			return nil, err
		}
	}
	type pair struct{ a, b int }
	used := make(map[pair]bool)
	for added := 0; added < chords; {
		a := r.Intn(n)
		b := r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		// Skip ring-adjacent and duplicate pairs.
		if b-a == 1 || (a == 0 && b == n-1) || used[pair{a, b}] {
			continue
		}
		used[pair{a, b}] = true
		w := 1.5 + r.Float64()
		if _, _, err := g.AddBiEdge(a, b, w); err != nil {
			return nil, err
		}
		added++
	}
	return g, nil
}

// Waxman builds a Waxman random geometric topology: nodes at uniform
// positions in the unit square; a spanning tree guarantees connectivity;
// additional bidirectional links appear with the classic probability
// alpha * exp(-d / (beta * L)) where d is Euclidean distance and L the
// diameter of the point set. Link weights are proportional to distance
// (propagation-delay-style IGP weights).
func Waxman(n int, alpha, beta float64, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: Waxman needs >= 2 nodes, got %d", ErrGraph, n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("%w: Waxman alpha=%g beta=%g", ErrGraph, alpha, beta)
	}
	r := rng.New(seed).Derive("topology/waxman")
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	dist := func(a, b int) float64 {
		return math.Hypot(xs[a]-xs[b], ys[a]-ys[b])
	}
	var maxD float64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if d := dist(a, b); d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		maxD = 1 // degenerate coincident points; still build a valid graph
	}

	g := NewGraph(n)
	linked := make(map[[2]int]bool)
	addLink := func(a, b int) error {
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if linked[key] {
			return nil
		}
		linked[key] = true
		w := 0.1 + dist(a, b) // floor keeps weights positive for coincident points
		_, _, err := g.AddBiEdge(a, b, w)
		return err
	}

	// Spanning tree by Prim's algorithm on Euclidean distance.
	inTree := make([]bool, n)
	inTree[0] = true
	type cand struct {
		d    float64
		a, b int
	}
	for count := 1; count < n; count++ {
		best := cand{d: math.Inf(1)}
		for a := 0; a < n; a++ {
			if !inTree[a] {
				continue
			}
			for b := 0; b < n; b++ {
				if inTree[b] {
					continue
				}
				if d := dist(a, b); d < best.d {
					best = cand{d: d, a: a, b: b}
				}
			}
		}
		inTree[best.b] = true
		if err := addLink(best.a, best.b); err != nil {
			return nil, err
		}
	}

	// Waxman extra links.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := alpha * math.Exp(-dist(a, b)/(beta*maxD))
			if r.Float64() < p {
				if err := addLink(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// BackboneStub builds an ISP-like two-tier PoP topology at arbitrary
// scale: a well-meshed backbone core — ring plus chords, guaranteeing
// two disjoint paths between any pair of core nodes — with the remaining
// n − core nodes attached as stub PoPs, each homed to one core node and
// dual-homed to a second with moderate probability (the resilience
// pattern of real access PoPs). This is the topology family behind the
// synth.ISPLike(n) scenarios: it generalizes the ~22-node Geant/Totem
// evaluation networks to hundreds of nodes while keeping their
// structural character (small dense core, sparse periphery, rare
// equal-cost ties that exercise ECMP without dominating it).
//
// core <= 0 selects the default backbone size max(3, n/8). All links are
// bidirectional with mildly randomized weights; stub homing links are
// heavier than core links, as access circuits are in IGP practice.
func BackboneStub(n, core int, seed uint64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: backbone-stub needs >= 3 nodes, got %d", ErrGraph, n)
	}
	if core <= 0 {
		core = n / 8
		if core < 3 {
			core = 3
		}
	}
	if core < 3 || core > n {
		return nil, fmt.Errorf("%w: backbone of %d nodes for n=%d", ErrGraph, core, n)
	}
	g := NewGraph(n)
	r := rng.New(seed).Derive("topology/backbonestub")
	// Backbone ring over nodes [0, core).
	for i := 0; i < core; i++ {
		w := 1 + 0.2*r.Float64()
		if _, _, err := g.AddBiEdge(i, (i+1)%core, w); err != nil {
			return nil, err
		}
	}
	// Backbone chords (skipping ring-adjacent and duplicate pairs). A
	// core-cycle has core·(core−3)/2 non-adjacent pairs, which bounds how
	// many chords can exist at all (zero for core=3).
	chords := core / 2
	if max := core * (core - 3) / 2; chords > max {
		chords = max
	}
	type pair struct{ a, b int }
	used := make(map[pair]bool)
	for added := 0; added < chords; {
		a := r.Intn(core)
		b := r.Intn(core)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if b-a == 1 || (a == 0 && b == core-1) || used[pair{a, b}] {
			continue
		}
		used[pair{a, b}] = true
		w := 1.5 + r.Float64()
		if _, _, err := g.AddBiEdge(a, b, w); err != nil {
			return nil, err
		}
		added++
	}
	// Stub PoPs: primary homing link always, secondary with probability
	// 0.4 to a different core node.
	for s := core; s < n; s++ {
		h1 := r.Intn(core)
		if _, _, err := g.AddBiEdge(s, h1, 2+r.Float64()); err != nil {
			return nil, err
		}
		if core > 1 && r.Float64() < 0.4 {
			h2 := r.Intn(core - 1)
			if h2 >= h1 {
				h2++
			}
			if _, _, err := g.AddBiEdge(s, h2, 2+r.Float64()); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
