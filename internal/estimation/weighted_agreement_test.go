package estimation

import (
	"math"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/topology"
)

// weightedScenario generates a reduced Geant/Totem-like week plus its
// scenario-sized routing matrix, mirroring how cmd/icest sets up the
// paper's estimation sweeps.
func weightedScenario(t *testing.T, sc synth.Scenario, binsPerWeek int) (*routing.Matrix, *synth.Dataset) {
	t.Helper()
	sc.BinsPerWeek = binsPerWeek
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Waxman(sc.N, 0.6, 0.4, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return rm, d
}

// TestProjectWeightedLSQRMatchesDense is the weighted agreement
// contract: on Geant-like and Totem-like scenarios the weighted LSQR
// projection must match the weighted dense reference (a fresh SVD per
// bin) within 1e-6 relative error on every bin's estimate.
func TestProjectWeightedLSQRMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   synth.Scenario
	}{
		{"geant-like", synth.GeantLike()},
		{"totem-like", synth.TotemLike()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("short mode: the dense reference solves cost seconds per bin (minutes under -race)")
			}
			// Few bins: each dense reference solve is a fresh Jacobi SVD
			// and costs seconds — exactly the cost the fast path removes.
			rm, d := weightedScenario(t, tc.sc, 5)
			solver, err := NewSolver(rm)
			if err != nil {
				t.Fatal(err)
			}
			ref := &denseRef{s: solver}
			for tb := 0; tb < d.Series.Len(); tb++ {
				x := d.Series.At(tb)
				y, err := rm.LinkLoads(x)
				if err != nil {
					t.Fatal(err)
				}
				prior, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
				if err != nil {
					t.Fatal(err)
				}
				fast, pr, err := solver.Project(prior.Clone(), y, nil, true)
				if err != nil {
					t.Fatalf("bin %d: lsqr: %v", tb, err)
				}
				if pr.Iterations <= 0 {
					t.Fatalf("bin %d: reported %d LSQR iterations", tb, pr.Iterations)
				}
				if pr.Stalled {
					// The agreement below is about converged solves.
					t.Fatalf("bin %d: LSQR stalled", tb)
				}
				dense, err := ref.project(prior.Clone(), y, true)
				if err != nil {
					t.Fatalf("bin %d: dense: %v", tb, err)
				}
				diff := make([]float64, len(fast.Vec()))
				for k := range diff {
					diff[k] = fast.Vec()[k] - dense.Vec()[k]
				}
				rel := linalg.Norm2(diff) / math.Max(linalg.Norm2(dense.Vec()), 1e-30)
				if rel > 1e-6 {
					t.Fatalf("bin %d: fast vs dense relative diff %g > 1e-6", tb, rel)
				}
			}
		})
	}
}

// TestWeightedDenseOptionEndToEnd checks the weighted pipeline end to
// end against the weighted dense reference projection followed by the
// same clamp and IPF: per-bin estimates and errors agree to 1e-6.
func TestWeightedDenseOptionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the weighted dense reference end to end")
	}
	rm, d := weightedScenario(t, synth.GeantLike(), 3)
	fast := estimateSeries(t, rm, d.Series, GravityPrior{}, WithWeighted(true))
	estDense, errsDense := denseSeries(t, rm, d.Series, GravityPrior{}, true)
	for i, e := range fast.Errors {
		if math.Abs(e-errsDense[i]) > 1e-6*(1+errsDense[i]) {
			t.Errorf("bin %d: fast err %g vs dense err %g", i, e, errsDense[i])
		}
		if rel := relVecDiff(fast.Estimates.At(i).Vec(), estDense[i].Vec()); rel > 1e-6 {
			t.Errorf("bin %d: estimates differ by %g relative > 1e-6", i, rel)
		}
	}
}
