package topology

import (
	"errors"
	"math"
	"testing"
)

// diamond returns the classic ECMP test graph:
//
//	0 -> 1 -> 3 and 0 -> 2 -> 3, all weights 1.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if _, _, err := g.AddBiEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	if _, err := g.AddEdge(0, 3, 1); !errors.Is(err, ErrGraph) {
		t.Error("out-of-range node must fail")
	}
	if _, err := g.AddEdge(0, 0, 1); !errors.Is(err, ErrGraph) {
		t.Error("self-loop must fail")
	}
	if _, err := g.AddEdge(0, 1, 0); !errors.Is(err, ErrGraph) {
		t.Error("zero weight must fail")
	}
	if _, err := g.AddEdge(0, 1, math.Inf(1)); !errors.Is(err, ErrGraph) {
		t.Error("infinite weight must fail")
	}
	if _, err := g.AddEdge(0, 1, 1e308); !errors.Is(err, ErrGraph) {
		t.Error("weight above MaxFloat64/n must fail")
	}
	if _, err := g.AddEdge(0, 1, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

// TestAddEdgeRejectsOverflowingWeight: on the 3-node line with both
// links at 1e308, dist(0,2) would overflow to +Inf and routing would
// report node 2 unreachable. AddEdge caps weights at MaxFloat64/n
// (TestAddEdgeValidation), so no simple path can sum past MaxFloat64:
// at the cap every distance stays finite. Explicit specs and deltas add
// edges through AddEdge, so the cap covers them too.
func TestAddEdgeRejectsOverflowingWeight(t *testing.T) {
	g := NewGraph(3)
	capw := math.MaxFloat64 / 3
	if _, _, err := g.AddBiEdge(0, 1, capw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.AddBiEdge(1, 2, capw); err != nil {
		t.Fatal(err)
	}
	dist, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(dist[2], 1) {
		t.Fatalf("dist(0,2) = %g at the weight cap, want finite", dist[2])
	}
	spec := Spec{Family: FamilyExplicit, N: 3, Edges: []EdgeSpec{{From: 0, To: 1, Weight: 1e308}, {From: 1, To: 0, Weight: 1}}}
	if _, err := spec.Build(); !errors.Is(err, ErrGraph) {
		t.Errorf("explicit spec with weight 1e308: err = %v, want ErrGraph", err)
	}
	huge := Delta{Ops: []DeltaOp{{Op: OpReweight, From: 0, To: 1, Weight: 1e308}}}
	if _, _, err := g.Apply(huge); !errors.Is(err, ErrGraph) {
		t.Errorf("reweight to 1e308: err = %v, want ErrGraph", err)
	}
}

func TestDijkstraHandChecked(t *testing.T) {
	// 0 -1-> 1 -1-> 2, plus direct 0 -5-> 2: shortest 0->2 is 2.
	g := NewGraph(3)
	_, _ = g.AddEdge(0, 1, 1)
	_, _ = g.AddEdge(1, 2, 1)
	_, _ = g.AddEdge(0, 2, 5)
	dist, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %g, want %g", i, dist[i], w)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(3)
	_, _ = g.AddEdge(0, 1, 1)
	dist, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[2], 1) {
		t.Errorf("dist to unreachable = %g, want +Inf", dist[2])
	}
	if _, err := g.Dijkstra(7); !errors.Is(err, ErrGraph) {
		t.Error("bad source must fail")
	}
}

// Differential test: Dijkstra agrees with Bellman-Ford on random graphs,
// and every distance it returns is exactly the relaxation fixpoint: for
// v != src, dist[v] is bit-equal to the minimum over in-edges (u,v) of
// dist[u]+w (+Inf when v is unreachable). The routing digests depend on
// these bits, so a tolerance alone would not pin them.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	graphs := []*Graph{}
	for seed := uint64(0); seed < 10; seed++ {
		g, err := RingChords(15, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	island := NewGraph(6) // nodes 4 and 5 unreachable from 0..3
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 5}} {
		if _, _, err := island.AddBiEdge(e[0], e[1], float64(1+e[0])); err != nil {
			t.Fatal(err)
		}
	}
	graphs = append(graphs, island)
	for gi, g := range graphs {
		for src := 0; src < g.N(); src += 3 {
			d1, err := g.Dijkstra(src)
			if err != nil {
				t.Fatal(err)
			}
			d2 := bellmanFord(g, src)
			for v := range d1 {
				if math.Abs(d1[v]-d2[v]) > 1e-9 {
					t.Fatalf("graph %d src %d node %d: dijkstra %g vs bellman-ford %g",
						gi, src, v, d1[v], d2[v])
				}
			}
			best := make([]float64, g.N())
			for v := range best {
				best[v] = math.Inf(1)
			}
			for _, e := range g.Edges() {
				if nd := d1[e.From] + e.Weight; nd < best[e.To] {
					best[e.To] = nd
				}
			}
			for v := range d1 {
				if v != src && math.Float64bits(d1[v]) != math.Float64bits(best[v]) {
					t.Fatalf("graph %d src %d node %d: dist %x, in-edge minimum %x",
						gi, src, v, math.Float64bits(d1[v]), math.Float64bits(best[v]))
				}
			}
		}
	}
}

// Triangle inequality property of shortest distances.
func TestShortestDistanceTriangleInequality(t *testing.T) {
	g, err := Waxman(20, 0.6, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		d, err := g.Dijkstra(i)
		if err != nil {
			t.Fatal(err)
		}
		dist[i] = d
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				if dist[a][b] > dist[a][c]+dist[c][b]+1e-9 {
					t.Fatalf("triangle violated: d(%d,%d)=%g > %g+%g", a, b,
						dist[a][b], dist[a][c], dist[c][b])
				}
			}
		}
	}
}

func TestReverse(t *testing.T) {
	g := NewGraph(3)
	id, _ := g.AddEdge(0, 1, 2)
	r := g.Reverse()
	e := r.Edges()[id]
	if e.From != 1 || e.To != 0 || e.Weight != 2 {
		t.Errorf("reversed edge = %+v", e)
	}
}

func TestRingChordsConnectedDeterministic(t *testing.T) {
	g1, err := RingChords(22, 14, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Connected() {
		t.Error("ring+chords must be connected")
	}
	// Ring gives 2n directed edges; chords add 2*chords more.
	if got := g1.NumEdges(); got != 2*22+2*14 {
		t.Errorf("edges = %d, want %d", got, 2*22+2*14)
	}
	g2, err := RingChords(22, 14, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g1.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("same seed must give identical topology")
		}
	}
}

func TestRingChordsRejectsTiny(t *testing.T) {
	if _, err := RingChords(2, 0, 1); !errors.Is(err, ErrGraph) {
		t.Error("n=2 ring must fail")
	}
}

func TestWaxmanConnected(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g, err := Waxman(23, 0.5, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: Waxman graph disconnected", seed)
		}
		// Spanning tree alone is n-1 undirected links = 2(n-1) directed.
		if g.NumEdges() < 2*(23-1) {
			t.Fatalf("seed %d: too few edges (%d)", seed, g.NumEdges())
		}
	}
}

func TestWaxmanParamValidation(t *testing.T) {
	if _, err := Waxman(1, 0.5, 0.3, 1); !errors.Is(err, ErrGraph) {
		t.Error("n=1 must fail")
	}
	if _, err := Waxman(5, 0, 0.3, 1); !errors.Is(err, ErrGraph) {
		t.Error("alpha=0 must fail")
	}
	if _, err := Waxman(5, 0.5, -1, 1); !errors.Is(err, ErrGraph) {
		t.Error("beta<0 must fail")
	}
}

func TestECMPDiamondSplitsEvenly(t *testing.T) {
	g := diamond(t)
	frac, err := ecmpFractions(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two equal-cost paths: each of the 4 on-path edges carries 1/2.
	onPath := 0
	for _, e := range g.Edges() {
		f := frac[e.ID]
		if f == 0 {
			continue
		}
		onPath++
		if math.Abs(f-0.5) > 1e-12 {
			t.Errorf("edge %d->%d fraction = %g, want 0.5", e.From, e.To, f)
		}
	}
	if onPath != 4 {
		t.Errorf("on-path edges = %d, want 4", onPath)
	}
}

// tinyRing is a 4-ring with a 0-2 chord of cost 3w, every link
// weight a multiple of w. At w near the ECMP tolerance an absolute
// comparison admits detours and backward edges into the DAG.
func tinyRing(t *testing.T, w float64) *Graph {
	t.Helper()
	g := NewGraph(4)
	for _, e := range []struct {
		a, b int
		w    float64
	}{{0, 1, w}, {1, 2, w}, {2, 3, w}, {3, 0, w}, {0, 2, 3 * w}} {
		if _, _, err := g.AddBiEdge(e.a, e.b, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Flow conservation property of ECMP fractions: net outflow is +1 at the
// source, -1 at the destination, 0 elsewhere — at any weight scale.
func TestECMPFlowConservation(t *testing.T) {
	var graphs []*Graph
	for seed := uint64(0); seed < 5; seed++ {
		g, err := Waxman(18, 0.6, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, w := range []float64{1e-10, 1e-12, 1e-200} {
		graphs = append(graphs, tinyRing(t, w))
	}
	// Mixed scales: the 1e-17 link vanishes in dist(0,1) = 1 + 1e-17 = 1,
	// so the (distance, ID) order splits node 1 before node 2 sends it
	// pair (0,3)'s flow. Such pairs must fail rather than lose demand;
	// every pair that routes must still conserve flow.
	mixed := NewGraph(4)
	for _, e := range []struct {
		a, b int
		w    float64
	}{{0, 2, 1}, {2, 1, 1e-17}, {1, 3, 1}} {
		if _, _, err := mixed.AddBiEdge(e.a, e.b, e.w); err != nil {
			t.Fatal(err)
		}
	}
	graphs = append(graphs, mixed)
	for gi, g := range graphs {
		for src := 0; src < g.N(); src++ {
			for dst := 0; dst < g.N(); dst++ {
				if src == dst {
					continue
				}
				frac, err := ecmpFractions(g, src, dst)
				if g == mixed && src == 0 && dst == 3 && !errors.Is(err, ErrGraph) {
					t.Fatalf("mixed-scale pair (0,3): err = %v, fractions %v; want ErrGraph", err, frac)
				}
				if g == mixed && errors.Is(err, ErrGraph) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				net := make([]float64, g.N())
				for eid, f := range frac {
					if f < 0 || f > 1+1e-9 {
						t.Fatalf("fraction out of range: %g", f)
					}
					e := g.Edges()[eid]
					net[e.From] += f
					net[e.To] -= f
				}
				for u := 0; u < g.N(); u++ {
					want := 0.0
					if u == src {
						want = 1
					} else if u == dst {
						want = -1
					}
					if math.Abs(net[u]-want) > 1e-9 {
						t.Fatalf("graph %d pair (%d,%d): net flow at %d = %g, want %g",
							gi, src, dst, u, net[u], want)
					}
				}
			}
		}
	}
}

func TestECMPSelfPairEmpty(t *testing.T) {
	g := diamond(t)
	frac, err := ecmpFractions(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frac) != 0 {
		t.Errorf("self pair fractions = %v, want empty", frac)
	}
}

func TestECMPUnreachable(t *testing.T) {
	g := NewGraph(3)
	_, _ = g.AddEdge(0, 1, 1)
	if _, err := ecmpFractions(g, 0, 2); !errors.Is(err, ErrGraph) {
		t.Error("unreachable destination must fail")
	}
}

func TestConnectedEmptyAndSingle(t *testing.T) {
	if !NewGraph(0).Connected() {
		t.Error("empty graph is vacuously connected")
	}
	if !NewGraph(1).Connected() {
		t.Error("single-node graph is connected")
	}
	if NewGraph(2).Connected() {
		t.Error("two isolated nodes are not connected")
	}
}

// --- BackboneStub (the ISP-like two-tier generator) ---

func TestBackboneStubConnectedAndShaped(t *testing.T) {
	for _, tc := range []struct{ n, core int }{
		{3, 3}, {10, 0}, {22, 5}, {50, 0}, {100, 0}, {200, 0},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := BackboneStub(tc.n, tc.core, seed)
			if err != nil {
				t.Fatalf("n=%d core=%d seed=%d: %v", tc.n, tc.core, seed, err)
			}
			if g.N() != tc.n {
				t.Fatalf("n=%d: graph has %d nodes", tc.n, g.N())
			}
			if !g.Connected() {
				t.Fatalf("n=%d core=%d seed=%d: not connected", tc.n, tc.core, seed)
			}
			if !g.Reverse().Connected() {
				t.Fatalf("n=%d core=%d seed=%d: reverse not connected", tc.n, tc.core, seed)
			}
		}
	}
}

// Stub PoPs must stay peripheral: degree 1 or 2 (single- or dual-homed),
// with every homing link landing in the core.
func TestBackboneStubStubDegrees(t *testing.T) {
	const n, core = 40, 5
	g, err := BackboneStub(n, core, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := core; s < n; s++ {
		out := g.adj[s]
		if len(out) < 1 || len(out) > 2 {
			t.Errorf("stub %d has degree %d, want 1 or 2", s, len(out))
		}
		for _, eid := range out {
			if to := g.Edges()[eid].To; to >= core {
				t.Errorf("stub %d homed to non-core node %d", s, to)
			}
		}
	}
}

func TestBackboneStubDeterministic(t *testing.T) {
	a, err := BackboneStub(30, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BackboneStub(30, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e, b.Edges()[i])
		}
	}
}

func TestBackboneStubErrors(t *testing.T) {
	if _, err := BackboneStub(2, 0, 1); !errors.Is(err, ErrGraph) {
		t.Error("n < 3 must fail")
	}
	if _, err := BackboneStub(10, 11, 1); !errors.Is(err, ErrGraph) {
		t.Error("core > n must fail")
	}
	if _, err := BackboneStub(10, 2, 1); !errors.Is(err, ErrGraph) {
		t.Error("core < 3 must fail")
	}
}

// bellmanFord returns shortest distances from src by edge relaxation,
// the slow oracle Dijkstra is checked against. Weights are positive, so
// no negative-cycle handling is needed.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for round := 0; round < g.n; round++ {
		changed := false
		for _, e := range g.edges {
			if dist[e.From]+e.Weight < dist[e.To] {
				dist[e.To] = dist[e.From] + e.Weight
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
