package estimation

import (
	"sync"
	"testing"

	"ictm/internal/tm"
)

// TestSolverSharedAcrossGoroutinesBitIdentical extends the workers=1≡8
// determinism contract down into the new solver internals: many
// goroutines hammering one shared Solver — the iterative Project and the
// lazily-factored ProjectDense concurrently, so the sync.Once dense
// factorization races with iterative solves — must produce output
// bit-identical to the sequential run. Run under -race in CI.
func TestSolverSharedAcrossGoroutinesBitIdentical(t *testing.T) {
	const bins = 24
	rm, truth, _ := fixture(t, 10, bins, 0.2, 71)
	solver := mustSolver(t, rm)

	// Priors are cloned per projection so concurrent calls never alias
	// each other's input matrix.
	type binInput struct {
		y     []float64
		prior *tm.TrafficMatrix
	}
	inputs := make([]binInput, bins)
	for tb := 0; tb < bins; tb++ {
		x := truth.At(tb)
		y, err := rm.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
		if err != nil {
			t.Fatal(err)
		}
		inputs[tb] = binInput{y: y, prior: p}
	}

	// Sequential reference, on a fresh solver so the parallel run below
	// exercises its own lazy factorization from scratch.
	seqFast := make([][]float64, bins)
	seqDense := make([][]float64, bins)
	refSolver := mustSolver(t, rm)
	for tb, in := range inputs {
		fast, _, err := refSolver.Project(in.prior.Clone(), in.y, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		seqFast[tb] = fast.Vec()
		dense, err := refSolver.ProjectDense(in.prior.Clone(), in.y, false)
		if err != nil {
			t.Fatal(err)
		}
		seqDense[tb] = dense.Vec()
	}

	const goroutines = 16
	parFast := make([][]float64, bins)
	parDense := make([][]float64, bins)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			// Round-robin over bins: each bin's two slots are written by
			// exactly one goroutine; every goroutine mixes both paths so
			// the lazy SVD Once is contended from the first iteration.
			for tb := gr; tb < bins; tb += goroutines {
				in := inputs[tb]
				fast, _, err := solver.Project(in.prior.Clone(), in.y, nil, false)
				if err != nil {
					errs[gr] = err
					return
				}
				parFast[tb] = fast.Vec()
				dense, err := solver.ProjectDense(in.prior.Clone(), in.y, false)
				if err != nil {
					errs[gr] = err
					return
				}
				parDense[tb] = dense.Vec()
			}
		}(gr)
	}
	wg.Wait()
	for gr, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gr, err)
		}
	}

	for tb := 0; tb < bins; tb++ {
		for k := range seqFast[tb] {
			if parFast[tb][k] != seqFast[tb][k] {
				t.Fatalf("Project bin %d entry %d differs from sequential: %g vs %g",
					tb, k, parFast[tb][k], seqFast[tb][k])
			}
			if parDense[tb][k] != seqDense[tb][k] {
				t.Fatalf("ProjectDense bin %d entry %d differs from sequential: %g vs %g",
					tb, k, parDense[tb][k], seqDense[tb][k])
			}
		}
	}
}
