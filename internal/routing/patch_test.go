package routing

import (
	"errors"
	"math/rand"
	"testing"

	"ictm/internal/topology"
)

// randomDelta draws a small delta against g: removals and reweights of
// existing edges plus adds of absent ordered pairs.
func randomDelta(rng *rand.Rand, g *topology.Graph) topology.Delta {
	present := map[[2]int]bool{}
	for _, e := range g.Edges() {
		present[[2]int{e.From, e.To}] = true
	}
	var ops []topology.DeltaOp
	nops := 1 + rng.Intn(3)
	for k := 0; k < nops; k++ {
		switch rng.Intn(3) {
		case 0: // remove a random present edge
			es := g.Edges()
			e := es[rng.Intn(len(es))]
			if !present[[2]int{e.From, e.To}] {
				continue // already removed this round
			}
			present[[2]int{e.From, e.To}] = false
			ops = append(ops, topology.DeltaOp{Op: topology.OpRemove, From: e.From, To: e.To})
		case 1: // reweight a present edge
			es := g.Edges()
			e := es[rng.Intn(len(es))]
			if !present[[2]int{e.From, e.To}] {
				continue
			}
			w := 1 + float64(rng.Intn(5))
			ops = append(ops, topology.DeltaOp{Op: topology.OpReweight, From: e.From, To: e.To, Weight: w})
		case 2: // add an absent pair
			n := g.N()
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to || present[[2]int{from, to}] {
				continue
			}
			present[[2]int{from, to}] = true
			w := 1 + float64(rng.Intn(5))
			ops = append(ops, topology.DeltaOp{Op: topology.OpAdd, From: from, To: to, Weight: w})
		}
	}
	return topology.Delta{Ops: ops}
}

// TestPatchMatchesRebuild is the load-bearing invariant of the PR:
// arbitrary delta sequences, applied incrementally via Patch, produce a
// routing matrix bitwise-identical to Build on the equivalently mutated
// graph — CSR values, stored order, layout metadata and derived keys all
// equal — and when the delta disconnects the graph, Patch errors exactly
// where Build does.
func TestPatchMatchesRebuild(t *testing.T) {
	graphs := []struct {
		name  string
		make  func() (*topology.Graph, error)
		scale float64 // multiplies every link weight, the graph's and the deltas'
	}{
		{"backbone-stub-12", func() (*topology.Graph, error) { return topology.BackboneStub(12, 0, 7) }, 1},
		{"backbone-stub-20", func() (*topology.Graph, error) { return topology.BackboneStub(20, 5, 11) }, 1},
		{"waxman-14", func() (*topology.Graph, error) { return topology.Waxman(14, 0.6, 0.4, 3) }, 1},
		{"backbone-stub-12/x1e-10", func() (*topology.Graph, error) { return topology.BackboneStub(12, 0, 7) }, 1e-10},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.make()
			if err != nil {
				t.Fatalf("make graph: %v", err)
			}
			if g, err = withWeights(g, func(w float64) float64 { return w * tc.scale }); err != nil {
				t.Fatalf("scale weights: %v", err)
			}
			m, err := Build(g)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rng := rand.New(rand.NewSource(20061114))
			steps := 0
			for steps < 12 {
				d := randomDelta(rng, g)
				if len(d.Ops) == 0 {
					continue
				}
				for k := range d.Ops {
					d.Ops[k].Weight *= tc.scale
				}
				pm, ng, perr := Patch(m, g, d)

				mg, _, aerr := g.Apply(d)
				if aerr != nil {
					if perr == nil {
						t.Fatalf("step %d: Apply failed (%v) but Patch did not", steps, aerr)
					}
					continue // invalid delta; try another
				}
				rm, berr := Build(mg)
				if berr != nil {
					// The delta disconnected the graph: Patch must fail with
					// the identical first-pair error.
					if perr == nil {
						t.Fatalf("step %d: Build failed (%v) but Patch succeeded", steps, berr)
					}
					if perr.Error() != berr.Error() {
						t.Fatalf("step %d: Patch error %q, Build error %q", steps, perr, berr)
					}
					continue
				}
				if perr != nil {
					t.Fatalf("step %d: Build succeeded but Patch failed: %v", steps, perr)
				}
				if pm.N != rm.N || pm.L != rm.L {
					t.Fatalf("step %d: layout (n=%d,l=%d) vs rebuilt (n=%d,l=%d)", steps, pm.N, pm.L, rm.N, rm.L)
				}
				if !pm.CSR().Equal(rm.CSR()) {
					t.Fatalf("step %d: patched CSR differs from rebuilt CSR (delta %+v)", steps, d)
				}
				if topology.GraphSpec(ng).Key() != topology.GraphSpec(mg).Key() {
					t.Fatalf("step %d: derived keys differ", steps)
				}
				// Chain: continue mutating from the patched state.
				g, m = ng, pm
				steps++
			}
		})
	}
}

func TestPatchValidation(t *testing.T) {
	g, err := topology.BackboneStub(12, 0, 7)
	if err != nil {
		t.Fatalf("BackboneStub: %v", err)
	}
	m, err := Build(g)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Mismatched graph: different edge count.
	g2, _ := topology.BackboneStub(12, 0, 8)
	if g2.NumEdges() != g.NumEdges() {
		if _, _, err := Patch(m, g2, topology.Delta{}); !errors.Is(err, ErrInput) {
			t.Fatalf("mismatched graph: err = %v, want ErrInput", err)
		}
	}
	g3, _ := topology.BackboneStub(16, 0, 7)
	if _, _, err := Patch(m, g3, topology.Delta{}); !errors.Is(err, ErrInput) {
		t.Fatalf("mismatched n: err = %v, want ErrInput", err)
	}
	// Invalid delta surfaces the topology error.
	bad := topology.Delta{Ops: []topology.DeltaOp{{Op: "flip", From: 0, To: 1}}}
	if _, _, err := Patch(m, g, bad); !errors.Is(err, topology.ErrGraph) {
		t.Fatalf("bad delta: err = %v, want ErrGraph", err)
	}
	// Empty delta is the identity.
	pm, ng, err := Patch(m, g, topology.Delta{})
	if err != nil {
		t.Fatalf("empty delta: %v", err)
	}
	if !pm.CSR().Equal(m.CSR()) || ng.NumEdges() != g.NumEdges() {
		t.Fatal("empty delta is not the identity")
	}
}
