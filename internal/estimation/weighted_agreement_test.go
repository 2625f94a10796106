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

// TestProjectWeightedLSQRMatchesDense is the PR's agreement contract:
// on Geant-like and Totem-like scenarios the weighted LSQR fast path must
// match the weighted dense reference (a fresh SVD per bin) within 1e-6 relative error on every
// bin's estimate.
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
					// A fallback would make the agreement below vacuous
					// (dense vs dense) — the fast path must actually run.
					t.Fatalf("bin %d: LSQR stalled and fell back to the dense path", tb)
				}
				dense, err := solver.ProjectDense(prior.Clone(), y, true)
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

// TestWeightedDenseOptionEndToEnd checks that the weighted dense
// reference is selectable as WithWeighted + WithDense and that the two
// pipelines produce near-identical per-bin errors end to end.
func TestWeightedDenseOptionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the dense reference pipeline end to end")
	}
	rm, d := weightedScenario(t, synth.GeantLike(), 3)
	errsFast := estimateSeries(t, rm, d.Series, GravityPrior{}, WithWeighted(true)).Errors
	errsDense := estimateSeries(t, rm, d.Series, GravityPrior{}, WithWeighted(true), WithDense(true)).Errors
	for i := range errsFast {
		if math.Abs(errsFast[i]-errsDense[i]) > 1e-6*(1+errsDense[i]) {
			t.Errorf("bin %d: fast err %g vs dense err %g", i, errsFast[i], errsDense[i])
		}
	}
}
