package estimation

import (
	"math"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// stallInputs returns a solver over g's routing matrix whose LSQR budget
// is one iteration — too few for any of these systems to converge — plus
// one bin's observation and a deliberately wrong (gravity) prior.
func stallInputs(t *testing.T, g *topology.Graph) (*Solver, *tm.TrafficMatrix, []float64) {
	t.Helper()
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, rm)
	s.maxIter = 1
	x := tm.New(rm.N)
	v := floatStream(uint64(rm.N))
	for k := range x.Vec() {
		x.Vec()[k] = math.Exp(2 * v())
	}
	y, err := rm.LinkLoads(x)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := GravityPrior{}.PriorFor(0, x.Ingress(), x.Egress())
	if err != nil {
		t.Fatal(err)
	}
	return s, prior, y
}

// denseAffordable reports whether the solver's system is within the
// stall fallback's size cap.
func denseAffordable(s *Solver) bool {
	csr := s.rm.CSR()
	rows := float64(csr.Rows())
	return rows*rows*float64(csr.Cols()) <= denseFallbackMaxFlops
}

// stallSolver builds the stall fixture: a paper-scale n=10 system within
// the dense fallback's size cap, or (large) an n=50 system above it,
// where a stall must never pay the SVD.
func stallSolver(t *testing.T, large bool) (*Solver, *tm.TrafficMatrix, []float64) {
	t.Helper()
	g, err := topology.Waxman(10, 0.6, 0.4, 3)
	if large {
		g, err = topology.BackboneStub(50, 0, 3)
	}
	if err != nil {
		t.Fatal(err)
	}
	s, prior, y := stallInputs(t, g)
	if denseAffordable(s) == large {
		t.Fatalf("n=%d fixture: dense affordable = %v", s.rm.N, !large)
	}
	return s, prior, y
}

// iterate is the estimate a stalled solve keeps: prior + W^{1/2}·z for
// LSQR's one-iteration correction z of the (masked, scaled) system,
// recomputed here without the Solver.
func iterate(t *testing.T, s *Solver, prior *tm.TrafficMatrix, y []float64, keep []bool, weighted bool) *tm.TrafficMatrix {
	t.Helper()
	res, err := s.residual(nil, prior, y, keep)
	if err != nil {
		t.Fatal(err)
	}
	var op linalg.Op = s.rm.CSR()
	var sqrtw []float64
	if weighted {
		sqrtw = sqrtWeights(nil, prior)
		op = linalg.NewColScaled(op, sqrtw)
	}
	if keep != nil {
		op = linalg.NewRowMasked(op, keep)
	}
	z, rep, err := linalg.LSQR(op, res, linalg.LSQROptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Fatal("one LSQR iteration converged; the stall test exercises nothing")
	}
	return addCorrection(prior, z, sqrtw)
}

func requireBitwise(t *testing.T, got, want *tm.TrafficMatrix, label string) {
	t.Helper()
	a, b := got.Vec(), want.Vec()
	for k := range b {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("%s: flow %d = %g, want %g", label, k, a[k], b[k])
		}
	}
}

// TestStallPolicy pins every branch of the one stall policy shared by
// all iterative solves: a stalled, fully observed solve within the size
// cap escalates to the dense reference for either objective; above the
// cap, or on a masked system, it keeps LSQR's iterate and never pays an
// SVD.
func TestStallPolicy(t *testing.T) {
	for _, tc := range []struct {
		name            string
		large, masked   bool
		weighted, dense bool
	}{
		{"unweighted-within-cap", false, false, false, true},
		{"weighted-within-cap", false, false, true, true},
		{"unweighted-masked", false, true, false, false},
		{"weighted-masked", false, true, true, false},
		{"unweighted-above-cap", true, false, false, false},
		{"weighted-above-cap", true, false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, prior, y := stallSolver(t, tc.large)
			var keep []bool
			if tc.masked {
				keep = make([]bool, len(y))
				for i := range keep {
					keep[i] = i != 0
				}
			}
			got, pr, err := s.Project(prior, y, keep, tc.weighted)
			if err != nil {
				t.Fatal(err)
			}
			if !pr.Stalled || pr.DenseFallback != tc.dense || pr.Iterations != 1 {
				t.Fatalf("projection %+v, want Stalled, DenseFallback=%v, 1 iteration", pr, tc.dense)
			}
			if tc.dense {
				want, err := s.ProjectDense(prior, y, tc.weighted)
				if err != nil {
					t.Fatal(err)
				}
				requireBitwise(t, got, want, "dense fallback")
				return
			}
			if s.svd != nil {
				t.Fatal("a stall that keeps the iterate factored the dense SVD")
			}
			requireBitwise(t, got, iterate(t, s, prior, y, keep, tc.weighted), "kept iterate")
		})
	}
}

// TestStallWireFlags: the bin diagnostics keep their wire meaning under
// the shared stall policy — an escalated weighted stall reports
// weighted_dense_fallback, every other stall project_stalled, and the
// LSQR iterations are counted either way.
func TestStallWireFlags(t *testing.T) {
	for _, tc := range []struct {
		name            string
		weighted, large bool
		wantFallback    bool
	}{
		{"unweighted-within-cap", false, false, false},
		{"weighted-within-cap", true, false, true},
		{"weighted-above-cap", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, y := stallSolver(t, tc.large)
			est := &Estimator{solver: s, opts: options{Weighted: tc.weighted}, reg: &priorRegistry{}}
			_, diag, err := est.EstimateBin(GravityPrior{}, 0, y)
			if err != nil {
				t.Fatal(err)
			}
			if diag.WeightedDenseFallback != tc.wantFallback || diag.ProjectStalled == tc.wantFallback || diag.LSQRIterations != 1 {
				t.Fatalf("diag %+v, want WeightedDenseFallback=%v, ProjectStalled=%v, 1 iteration",
					diag, tc.wantFallback, !tc.wantFallback)
			}
		})
	}
}

// TestWarmBlockedStallMatchesCold: the blocked warm path settles a
// stalled bin by the same policy as Project — within the cap every
// stalled bin escalates to the dense reference, which does not depend
// on the warm start, so the warm series equals the cold one bit for bit
// and every bin is counted as stalled.
func TestWarmBlockedStallMatchesCold(t *testing.T) {
	rm, truth := warmFixture(t, 20)
	run := func(warm bool) *SeriesResult {
		est, err := NewEstimator(rm, WithWarmStart(warm))
		if err != nil {
			t.Fatal(err)
		}
		est.solver.maxIter = 1
		if !denseAffordable(est.solver) {
			t.Fatal("warm fixture is above the dense fallback cap")
		}
		r, err := est.EstimateSeries(truth, GravityPrior{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cold, warm := run(false), run(true)
	if warm.Stats.ProjectStalls != truth.Len() || warm.Stats.LSQRIterationsTotal != truth.Len() {
		t.Fatalf("warm stats %+v, want every one of %d bins stalled after 1 iteration", warm.Stats, truth.Len())
	}
	if warm.Stats.WarmStartedBins == 0 {
		t.Fatal("no bin took the blocked warm path")
	}
	cold.Stats.WarmStartedBins = warm.Stats.WarmStartedBins
	requireSeriesBitwise(t, warm, cold, "warm vs cold under stalls")
}

// TestProjectReportFormsMatchProject: the two result-shape forms kept for
// the icbench stage tracer are Project, bit for bit, with its stall flag
// and iteration count.
func TestProjectReportFormsMatchProject(t *testing.T) {
	s, prior, y := stallSolver(t, false)
	keep := make([]bool, len(y))
	for i := range keep {
		keep[i] = i != 0
	}
	for _, k := range [][]bool{nil, keep} {
		want, pr, err := s.Project(prior, y, k, false)
		if err != nil {
			t.Fatal(err)
		}
		got, stalled, iters, err := s.ProjectReport(prior, y)
		if k != nil {
			got, stalled, iters, err = s.ProjectMaskedReport(prior, y, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		if stalled != pr.Stalled || iters != pr.Iterations {
			t.Fatalf("mask %v: report (%v, %d), Project %+v", k != nil, stalled, iters, pr)
		}
		requireBitwise(t, got, want, "report form")
	}
}
