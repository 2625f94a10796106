package topology

import (
	"errors"
	"testing"
)

// twoIslands builds a graph with two components: a triangle {0,1,2} and
// a disconnected pair {3,4}.
func twoIslands(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}} {
		if _, _, err := g.AddBiEdge(e[0], e[1], 1); err != nil {
			t.Fatalf("AddBiEdge(%v): %v", e, err)
		}
	}
	return g
}

// ecmpFractions routes one pair from two fresh sweeps: the per-pair
// form of what routing.Build computes off shared distance tables.
func ecmpFractions(g *Graph, src, dst int) (map[int]float64, error) {
	distFrom, err := g.Dijkstra(src)
	if err != nil {
		return nil, err
	}
	distTo, err := g.Reverse().Dijkstra(dst)
	if err != nil {
		return nil, err
	}
	return g.ECMPFractionsDist(src, dst, distFrom, distTo)
}

func TestECMPFractionsDisconnected(t *testing.T) {
	g := twoIslands(t)
	for _, pair := range [][2]int{{0, 3}, {3, 0}, {2, 4}, {4, 1}} {
		if _, err := ecmpFractions(g, pair[0], pair[1]); !errors.Is(err, ErrGraph) {
			t.Errorf("ecmpFractions(%d,%d): err = %v, want ErrGraph", pair[0], pair[1], err)
		}
	}
	// Within a component the pair still resolves.
	if frac, err := ecmpFractions(g, 3, 4); err != nil || len(frac) != 1 {
		t.Errorf("ecmpFractions(3,4) = %v, %v; want single-edge path", frac, err)
	}
}

func TestECMPFractionsRange(t *testing.T) {
	g := twoIslands(t)
	for _, pair := range [][2]int{{-1, 0}, {0, 5}, {7, -2}} {
		if _, err := ecmpFractions(g, pair[0], pair[1]); !errors.Is(err, ErrGraph) {
			t.Errorf("ecmpFractions(%d,%d): err = %v, want ErrGraph", pair[0], pair[1], err)
		}
	}
}

// Zero-weight links are rejected at every door into the graph, so the
// shortest-path machinery never sees one: Dijkstra's positive-weight
// precondition is enforced structurally rather than per-query.
func TestZeroWeightLinksRejectedEverywhere(t *testing.T) {
	g := NewGraph(3)
	if _, err := g.AddEdge(0, 1, 0); !errors.Is(err, ErrGraph) {
		t.Errorf("AddEdge weight 0: err = %v, want ErrGraph", err)
	}
	if _, _, err := g.AddBiEdge(0, 1, 0); !errors.Is(err, ErrGraph) {
		t.Errorf("AddBiEdge weight 0: err = %v, want ErrGraph", err)
	}
	if _, _, err := g.AddBiEdge(0, 1, 1); err != nil {
		t.Fatalf("AddBiEdge: %v", err)
	}
	// Reweighting an existing link to zero through a delta is refused too.
	d := Delta{Ops: []DeltaOp{{Op: OpReweight, From: 0, To: 1, Weight: 0}}}
	if _, _, err := g.Apply(d); !errors.Is(err, ErrGraph) {
		t.Errorf("Apply reweight-to-0: err = %v, want ErrGraph", err)
	}
	// And adding a zero-weight link through a delta.
	d = Delta{Ops: []DeltaOp{{Op: OpAdd, From: 1, To: 2, Weight: 0}}}
	if _, _, err := g.Apply(d); !errors.Is(err, ErrGraph) {
		t.Errorf("Apply add-weight-0: err = %v, want ErrGraph", err)
	}
}

func TestECMPFractionsDistValidation(t *testing.T) {
	g := twoIslands(t)
	distFrom, _ := g.Dijkstra(0)
	distTo, _ := g.Reverse().Dijkstra(1)
	if _, err := g.ECMPFractionsDist(0, 1, distFrom[:2], distTo); !errors.Is(err, ErrGraph) {
		t.Errorf("short distFrom: err = %v, want ErrGraph", err)
	}
	if _, err := g.ECMPFractionsDist(0, 1, distFrom, distTo[:1]); !errors.Is(err, ErrGraph) {
		t.Errorf("short distTo: err = %v, want ErrGraph", err)
	}
	if _, err := g.ECMPFractionsDist(0, 9, distFrom, distTo); !errors.Is(err, ErrGraph) {
		t.Errorf("range: err = %v, want ErrGraph", err)
	}
	// Unreachable destination reported through the dist vector.
	distTo3, _ := g.Reverse().Dijkstra(3)
	distFrom0, _ := g.Dijkstra(0)
	if _, err := g.ECMPFractionsDist(0, 3, distFrom0, distTo3); !errors.Is(err, ErrGraph) {
		t.Errorf("unreachable: err = %v, want ErrGraph", err)
	}
}
