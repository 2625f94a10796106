package routing

import (
	"errors"
	"math/rand"
	"sync"
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

// patchMatchesBuild patches (m, g) by d and requires the result to be
// bitwise Build(g.Apply(d)) — the CSR, the layout and, when the delta
// disconnects the graph, Build's error text. It returns the patched
// pair, or nils when both sides failed.
func patchMatchesBuild(t *testing.T, m *Matrix, g *topology.Graph, d topology.Delta) (*Matrix, *topology.Graph) {
	t.Helper()
	pm, ng, perr := Patch(m, g, d)
	mg, _, err := g.Apply(d)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", d, err)
	}
	rm, berr := Build(mg)
	if berr != nil {
		if perr == nil || perr.Error() != berr.Error() {
			t.Fatalf("delta %+v: Patch error %v, Build error %v", d, perr, berr)
		}
		return nil, nil
	}
	if perr != nil {
		t.Fatalf("delta %+v: Build succeeded but Patch failed: %v", d, perr)
	}
	if pm.N != rm.N || pm.L != rm.L || !pm.CSR().Equal(rm.CSR()) {
		t.Fatalf("delta %+v: patched matrix differs from the rebuilt one", d)
	}
	return pm, ng
}

// mixedDelta draws 2-4 ops that remove, add, raise and lower links of
// g, with new weights from palette.
func mixedDelta(rng *rand.Rand, g *topology.Graph, palette []float64) topology.Delta {
	used := map[[2]int]bool{}
	present := map[[2]int]float64{}
	for _, e := range g.Edges() {
		present[[2]int{e.From, e.To}] = e.Weight
	}
	var ops []topology.DeltaOp
	for len(ops) < 2+rng.Intn(3) {
		es := g.Edges()
		e := es[rng.Intn(len(es))]
		key := [2]int{e.From, e.To}
		kind := rng.Intn(4)
		if kind == 3 {
			key = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			if _, ok := present[key]; ok || key[0] == key[1] {
				continue
			}
		}
		if used[key] {
			continue
		}
		used[key] = true
		w := present[key]
		switch kind {
		case 0:
			ops = append(ops, topology.DeltaOp{Op: topology.OpRemove, From: key[0], To: key[1]})
		case 1:
			ops = append(ops, topology.DeltaOp{Op: topology.OpReweight, From: key[0], To: key[1], Weight: w + palette[rng.Intn(len(palette))]})
		case 2:
			ops = append(ops, topology.DeltaOp{Op: topology.OpReweight, From: key[0], To: key[1], Weight: w / 2})
		case 3:
			ops = append(ops, topology.DeltaOp{Op: topology.OpAdd, From: key[0], To: key[1], Weight: palette[rng.Intn(len(palette))]})
		}
	}
	return topology.Delta{Ops: ops}
}

// TestPatchCorpusMatchesRebuild aims a seeded corpus at the cached and
// repaired shortest-path tables Patch runs on. Every case must be
// bitwise Build(g.Apply(delta)).
func TestPatchCorpusMatchesRebuild(t *testing.T) {
	stub, err := topology.BackboneStub(20, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := unitRingChords(18, 6, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Chains of multi-op deltas mixing remove, add, raise and lower,
	// each patching the previous patch. Unit weights make ties common.
	t.Run("mixed-chains", func(t *testing.T) {
		for gi, g := range []*topology.Graph{stub, unit} {
			m, err := Build(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(7 + gi)))
			for steps := 0; steps < 25; {
				d := mixedDelta(rng, g, []float64{1, 2, 3})
				if _, _, err := g.Apply(d); err != nil {
					continue
				}
				steps++
				if pm, ng := patchMatchesBuild(t, m, g, d); pm != nil {
					m, g = pm, ng
				}
			}
		}
	})

	// A reweight that creates an ECMP tie: on the square 0-1-2 / 0-3-2,
	// lowering 3->2 from 2 to 1 splits pair (0,2) evenly.
	t.Run("tie", func(t *testing.T) {
		g := topology.NewGraph(4)
		for _, e := range []struct {
			a, b int
			w    float64
		}{{0, 1, 1}, {1, 2, 1}, {0, 3, 1}, {3, 2, 2}} {
			if _, _, err := g.AddBiEdge(e.a, e.b, e.w); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		pm, _ := patchMatchesBuild(t, m, g, topology.Delta{Ops: []topology.DeltaOp{{Op: topology.OpReweight, From: 3, To: 2, Weight: 1}}})
		if f := pm.CSR().Dense().At(0, 2); f != 0.5 { // edge 0->1, pair (0,2)
			t.Fatalf("edge 0->1 carries %g of pair (0,2), want 0.5", f)
		}
	})

	// A delta that changes no distance: a link no shortest path uses,
	// raised further, leaves the matrix as it was.
	t.Run("no-distance-change", func(t *testing.T) {
		g := topology.NewGraph(3)
		for _, e := range []struct {
			a, b int
			w    float64
		}{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
			if _, _, err := g.AddBiEdge(e.a, e.b, e.w); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		pm, _ := patchMatchesBuild(t, m, g, topology.Delta{Ops: []topology.DeltaOp{{Op: topology.OpReweight, From: 0, To: 2, Weight: 9}}})
		if !pm.CSR().Equal(m.CSR()) {
			t.Fatal("an unused link's reweight changed the matrix")
		}
	})

	// A disconnecting delta fails with Build's error text.
	t.Run("disconnect", func(t *testing.T) {
		m, err := Build(stub)
		if err != nil {
			t.Fatal(err)
		}
		var ops []topology.DeltaOp
		for _, e := range stub.Edges() {
			if e.From == 19 || e.To == 19 {
				ops = append(ops, topology.DeltaOp{Op: topology.OpRemove, From: e.From, To: e.To})
			}
		}
		if pm, _ := patchMatchesBuild(t, m, stub, topology.Delta{Ops: ops}); pm != nil {
			t.Fatal("isolating node 19 did not fail")
		}
	})

	// A base restored the way a store restores it: the matrix through
	// AppendBinary/DecodeMatrix, the graph rebuilt from its spec, so its
	// tables are swept once by the first Patch.
	t.Run("restored-base", func(t *testing.T) {
		m, err := Build(stub)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := DecodeMatrix(m.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		rg, err := topology.GraphSpec(stub).Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for steps := 0; steps < 5; {
			d := mixedDelta(rng, rg, []float64{1, 2, 3})
			if _, _, err := rg.Apply(d); err != nil {
				continue
			}
			steps++
			patchMatchesBuild(t, dm, rg, d)
		}
	})

	// Two graphs with one R but different distances: all weights x2
	// routes identically, and each graph patches off its own tables,
	// even given the other graph's (equal) matrix.
	t.Run("weights-x2", func(t *testing.T) {
		g2, err := withWeights(stub, func(w float64) float64 { return 2 * w })
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(stub)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Build(g2)
		if err != nil {
			t.Fatal(err)
		}
		if !m.CSR().Equal(m2.CSR()) {
			t.Fatal("doubling every weight changed the routing")
		}
		rng := rand.New(rand.NewSource(9))
		for steps := 0; steps < 8; {
			d := mixedDelta(rng, stub, []float64{1, 2, 3})
			if _, _, err := stub.Apply(d); err != nil {
				continue
			}
			steps++
			d2 := topology.Delta{Ops: append([]topology.DeltaOp(nil), d.Ops...)}
			for k := range d2.Ops {
				d2.Ops[k].Weight *= 2
			}
			patchMatchesBuild(t, m, stub, d)
			patchMatchesBuild(t, m, g2, d2)
			patchMatchesBuild(t, m2, stub, d)
		}
	})
}

// Concurrent patches of one base share its cached tables: every
// goroutine gets the same matrix, and the base's first Dists call may
// race with the others (run under -race).
func TestPatchConcurrentSharedBase(t *testing.T) {
	g, err := topology.BackboneStub(20, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	// A base rebuilt from its spec has no tables yet.
	rg, err := topology.GraphSpec(g).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[3]
	d := topology.Delta{Ops: []topology.DeltaOp{
		{Op: topology.OpRemove, From: e.From, To: e.To},
		{Op: topology.OpRemove, From: e.To, To: e.From},
	}}
	want, _ := patchMatchesBuild(t, m, g, d)
	if want == nil {
		t.Fatal("flap disconnected the graph")
	}
	var wg sync.WaitGroup
	got := make([]*Matrix, 8)
	errs := make([]error, len(got))
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], _, errs[k] = Patch(m, rg, d)
		}(k)
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil || !got[k].CSR().Equal(want.CSR()) {
			t.Fatalf("goroutine %d: err %v or a different matrix", k, errs[k])
		}
	}
}
