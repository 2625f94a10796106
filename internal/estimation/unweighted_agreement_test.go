package estimation

import (
	"math"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// relVecDiff returns ‖a − b‖ / max(‖b‖, 1e-30).
func relVecDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return linalg.Norm2(d) / math.Max(linalg.Norm2(b), 1e-30)
}

// TestProjectLSQRMatchesDenseRandomized is the PR's property-based
// agreement contract for the unweighted path: across many randomized
// routing systems — both topology families, many seeds, consistent and
// noisy observations, good and deliberately bad priors — the iterative
// Project must reproduce the dense-SVD reference (denseRef) estimate to
// 1e-8 relative, without ever stalling.
func TestProjectLSQRMatchesDenseRandomized(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 6 + int(seed%5)
		var (
			g   *topology.Graph
			err error
		)
		if seed%2 == 0 {
			g, err = topology.Waxman(n, 0.6, 0.4, seed)
		} else {
			g, err = topology.RingChords(n, n/2, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		rm, err := routing.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := NewSolver(rm)
		if err != nil {
			t.Fatal(err)
		}
		ref := &denseRef{s: solver}
		for tb := 0; tb < 2; tb++ {
			x := tm.New(n)
			p := tm.New(n)
			// Deterministic per-seed entries: lognormal-ish truth, a prior
			// that is wrong but positive.
			v := floatStream(seed*31 + uint64(tb))
			for k := range x.Vec() {
				x.Vec()[k] = math.Exp(2 * v())
				p.Vec()[k] = math.Exp(1.5 * v())
			}
			y, err := rm.LinkLoads(x)
			if err != nil {
				t.Fatal(err)
			}
			if tb == 1 {
				// Perturb y so the system is inconsistent and the
				// projection runs in the least-squares sense.
				for i := range y {
					y[i] *= 1 + 0.05*v()
				}
			}
			fast, pr, err := solver.Project(p.Clone(), y, nil, false)
			if err != nil {
				t.Fatalf("seed %d bin %d: lsqr: %v", seed, tb, err)
			}
			if pr.Iterations <= 0 {
				t.Fatalf("seed %d bin %d: reported %d LSQR iterations", seed, tb, pr.Iterations)
			}
			if pr.Stalled {
				// The agreement below is about converged solves.
				t.Fatalf("seed %d bin %d: LSQR stalled", seed, tb)
			}
			dense, err := ref.project(p.Clone(), y, false)
			if err != nil {
				t.Fatalf("seed %d bin %d: dense: %v", seed, tb, err)
			}
			if rel := relVecDiff(fast.Vec(), dense.Vec()); rel > 1e-8 {
				t.Fatalf("seed %d bin %d: fast vs dense relative diff %g > 1e-8", seed, tb, rel)
			}
		}
	}
}

// floatStream returns a tiny deterministic float stream in [-1, 1)
// (xorshift). Test-local so the property trials do not disturb the
// package fixtures.
func floatStream(seed uint64) func() float64 {
	s := seed*2862933555777941757 + 3037000493
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s>>11))/float64(1<<52) - 1
	}
}

// TestUnweightedDenseOptionEndToEnd mirrors the weighted agreement
// contract for the unweighted path: on Geant-like and Totem-like
// scenarios the default pipeline and the dense reference projection
// followed by the same clamp and IPF must agree on every bin's estimate
// and error to 1e-6.
func TestUnweightedDenseOptionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the dense reference pays the one-time Jacobi SVD at scenario scale")
	}
	for _, tc := range []struct {
		name string
		sc   synth.Scenario
	}{
		{"geant-like", synth.GeantLike()},
		{"totem-like", synth.TotemLike()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.BinsPerWeek = 7
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
			fast := estimateSeries(t, rm, d.Series, GravityPrior{})
			estFast, errsFast := fast.Estimates, fast.Errors
			estDense, errsDense := denseSeries(t, rm, d.Series, GravityPrior{}, false)
			for i := range errsFast {
				if math.Abs(errsFast[i]-errsDense[i]) > 1e-6*(1+errsDense[i]) {
					t.Errorf("bin %d: fast err %g vs dense err %g", i, errsFast[i], errsDense[i])
				}
				if rel := relVecDiff(estFast.At(i).Vec(), estDense[i].Vec()); rel > 1e-6 {
					t.Errorf("bin %d: estimates differ by %g relative > 1e-6", i, rel)
				}
			}
		})
	}
}

// TestISPLike200EstimationCompletes is the scale acceptance criterion:
// a full unweighted estimation run over an ISPLike(200) scenario —
// 40 000 OD flows, infeasible under the seed's eager dense SVD — must
// complete through the sparse-first path. Guarded by -short because it
// still costs real seconds (generation + routing + LSQR over 8 bins).
func TestISPLike200EstimationCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: n=200 end-to-end run costs seconds")
	}
	sc := synth.ISPLike(200)
	sc.BinsPerWeek = 7
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.BackboneStub(sc.N, 0, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	r := estimateSeries(t, rm, d.Series, GravityPrior{})
	errs, stats := r.Errors, r.Stats
	if stats.ProjectStalls != 0 {
		t.Errorf("%d/%d bins stalled at n=200", stats.ProjectStalls, stats.Bins)
	}
	for i, e := range errs {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("bin %d: non-finite error %g", i, e)
		}
	}
}

func mustSolver(t *testing.T, rm *routing.Matrix) *Solver {
	t.Helper()
	s, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
