package estimation

import (
	"fmt"
	"math"
	"testing"

	"ictm/internal/faults"
	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// Certificate bounds. A bin passes when its projection meets the LSQR
// stopping certificate within certLSQRBound, its IPF-balanced estimate
// honours the measured marginals within the IPF tolerance (1e-9 by
// default) whenever IPF reports convergence, and no flow is negative.
// certLSQRBound is calibrated by TestCertifyCalibratedAgainstDense on
// small topologies where the dense reference also runs: converged
// solves there certify 100x below it (measured ≤ 1e-13), projections
// moved 1e-6 off the reference 100x above it (measured ≥ 4.9e-7). At
// n=100 and n=200 converged solves measured ≤ 9e-13.
const (
	certLSQRBound     = 1e-10
	certMarginalBound = 1e-9
)

// certifier checks bins of one solver from their own output with a few
// sparse matvecs (Bekkouche et al., arXiv 1404.6567: check each stage's
// post-conditions instead of re-solving). sq holds R with every entry
// squared, so ‖A‖_F of the masked, column-scaled system is one matvec.
type certifier struct {
	s  *Solver
	sq *linalg.Sparse
}

// newCertifier extracts R's entries row by row (Rᵀ·e_i) and squares
// them — one pass of L+2n sparse matvecs per routing matrix.
func newCertifier(t *testing.T, s *Solver) *certifier {
	t.Helper()
	csr := s.rm.CSR()
	e := make([]float64, csr.Rows())
	row := make([]float64, csr.Cols())
	var entries []linalg.Coord
	for i := range e {
		e[i] = 1
		csr.TMulVecTo(row, e)
		e[i] = 0
		for j, v := range row {
			if v != 0 {
				entries = append(entries, linalg.Coord{Row: i, Col: j, Val: v * v})
			}
		}
	}
	sq, err := linalg.NewSparse(csr.Rows(), csr.Cols(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return &certifier{s: s, sq: sq}
}

// lsqr returns LSQR's stopping certificate for the projection proj of
// prior toward y. With A the (masked by keep, column-scaled by W^{1/2}
// when weighted) routing system, b = y − R·prior its right-hand side,
// z = W^{-1/2}·(proj − prior) the solution and r = b − A·z the residual,
// LSQR stops once either the consistent-system ratio
// ‖r‖/(‖b‖ + ‖A‖_F·‖z‖) or the least-squares ratio ‖Aᵀr‖/(‖A‖_F·‖r‖)
// falls below its tolerance (1e-13, with its own estimate of ‖A‖), and
// the certificate is the smaller of the two. An observation known to be
// consistent (the exact link loads of a traffic matrix) must meet the
// consistent-system ratio itself: normalised by ‖A‖_F, the
// least-squares ratio also reads small on an unconverged residual of a
// consistent system (a solve stopped at tolerance 1e-6 passes it).
func (c *certifier) lsqr(t *testing.T, prior, proj *tm.TrafficMatrix, y []float64, keep []bool, weighted, consistent bool) float64 {
	t.Helper()
	s := c.s
	b, err := s.residual(nil, prior, y, keep)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.residual(nil, proj, y, keep)
	if err != nil {
		t.Fatal(err)
	}
	pv, xv := prior.Vec(), proj.Vec()
	z := make([]float64, len(pv))
	w := make([]float64, len(pv)) // squared column scales
	var op linalg.Op = s.rm.CSR()
	var sqrtw []float64
	if weighted {
		sqrtw = sqrtWeights(nil, prior)
		op = linalg.NewColScaled(op, sqrtw)
	}
	for j := range z {
		z[j], w[j] = xv[j]-pv[j], 1
		if sqrtw != nil {
			z[j], w[j] = z[j]/sqrtw[j], sqrtw[j]*sqrtw[j]
		}
	}
	if keep != nil {
		op = linalg.NewRowMasked(op, keep)
	}
	rowSq := make([]float64, c.sq.Rows())
	c.sq.MulVecTo(rowSq, w)
	var frob2 float64
	for i, v := range rowSq {
		if keep == nil || keep[i] {
			frob2 += v
		}
	}
	normA := math.Sqrt(frob2)
	nr := linalg.Norm2(r)
	res := nr / (linalg.Norm2(b) + normA*linalg.Norm2(z))
	if consistent || nr == 0 {
		return res
	}
	atr := make([]float64, len(z))
	op.TMulVecTo(atr, r)
	return math.Min(res, linalg.Norm2(atr)/(normA*nr))
}

// marginal returns the worst relative deviation of est's row and column
// sums from the measured marginals, in IPF's own measure
// |sum − target| / max(target, 1).
func marginal(est *tm.TrafficMatrix, ing, eg []float64) float64 {
	var worst float64
	for _, m := range []struct{ got, want []float64 }{{est.Ingress(), ing}, {est.Egress(), eg}} {
		for i, v := range m.got {
			worst = math.Max(worst, math.Abs(v-m.want[i])/math.Max(m.want[i], 1))
		}
	}
	return worst
}

// certify checks one bin: its projection proj (nil when the bin fell
// back to the prior) against the LSQR certificate, and its served
// estimate against the marginals and non-negativity.
func (c *certifier) certify(t *testing.T, label string, prior, proj *tm.TrafficMatrix, y []float64, keep []bool, weighted, consistent bool, est *tm.TrafficMatrix, diag BinDiag) {
	t.Helper()
	if proj != nil {
		if v := c.lsqr(t, prior, proj, y, keep, weighted, consistent); !(v <= certLSQRBound) {
			t.Errorf("%s: LSQR certificate %.3g > %g (%d iterations)", label, v, certLSQRBound, diag.LSQRIterations)
		}
	}
	_, ing, eg, err := c.s.rm.SplitLoads(y)
	if err != nil {
		t.Fatal(err)
	}
	if v := marginal(est, ing, eg); diag.IPFConverged && !(v <= certMarginalBound) {
		t.Errorf("%s: marginal residual %.3g > %g after %d converged IPF sweeps", label, v, certMarginalBound, diag.IPFSweeps)
	}
	for k, v := range est.Vec() {
		if !(v >= 0) || math.IsInf(v, 0) {
			t.Fatalf("%s: flow %d = %g", label, k, v)
		}
	}
}

// TestCertifyCalibratedAgainstDense calibrates certLSQRBound where the
// dense reference runs, on one topology of each family the service
// serves (Waxman as GeantLike, backbone-stub as ISPLike): on every bin —
// consistent and noisy observations, unweighted and weighted — the
// iterative projection agrees with the dense reference (1e-8 / 1e-6)
// and certifies 100x below the bound, while a projection moved 1e-6
// (relative) off the reference along a row-space direction reads 100x
// above it. The bound thus separates a converged solve from one the
// agreement tests would reject.
func TestCertifyCalibratedAgainstDense(t *testing.T) {
	for _, spec := range []topology.Spec{
		{Family: topology.FamilyWaxman, N: 10, Seed: 3, Alpha: 0.6, Beta: 0.4},
		{Family: topology.FamilyBackboneStub, N: 16, Seed: 3},
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rm, err := routing.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		s := mustSolver(t, rm)
		ref, cert := &denseRef{s: s}, newCertifier(t, s)
		for _, weighted := range []bool{false, true} {
			for tb := 0; tb < 2; tb++ {
				label := fmt.Sprintf("%s n=%d/weighted=%v/bin %d", spec.Family, rm.N, weighted, tb)
				v := floatStream(uint64(31*rm.N + tb))
				x := tm.New(rm.N)
				for k := range x.Vec() {
					x.Vec()[k] = math.Exp(2 * v())
				}
				y, err := rm.LinkLoads(x)
				if err != nil {
					t.Fatal(err)
				}
				if tb == 1 {
					// Inconsistent observations: the projection is a true
					// least-squares solve.
					for i := range y {
						y[i] *= 1 + 0.05*v()
					}
				}
				prior, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
				if err != nil {
					t.Fatal(err)
				}
				proj, pr, err := s.Project(prior, y, nil, weighted)
				if err != nil || pr.Stalled {
					t.Fatalf("%s: %+v, %v", label, pr, err)
				}
				dense, err := ref.project(prior, y, weighted)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-8
				if weighted {
					tol = 1e-6
				}
				if rel := relVecDiff(proj.Vec(), dense.Vec()); rel > tol {
					t.Fatalf("%s: iterative vs dense %g > %g", label, rel, tol)
				}
				consistent := tb == 0
				if got := cert.lsqr(t, prior, proj, y, nil, weighted, consistent); got > 1e-2*certLSQRBound {
					t.Errorf("%s: converged solve certifies at %.3g, not 100x below the bound %g", label, got, certLSQRBound)
				}
				// Move the reference along Rᵀ·u — a direction that changes
				// R·x — by 1e-6 of its norm.
				u := make([]float64, len(y))
				for i := range u {
					u[i] = v()
				}
				dir := make([]float64, len(proj.Vec()))
				rm.CSR().TMulVecTo(dir, u)
				off := dense.Clone()
				scale := 1e-6 * linalg.Norm2(dense.Vec()) / linalg.Norm2(dir)
				for k, d := range dir {
					off.Vec()[k] += scale * d
				}
				if bad := cert.lsqr(t, prior, off, y, nil, weighted, consistent); bad < 1e2*certLSQRBound {
					t.Errorf("%s: a projection 1e-6 off certifies at %.3g, not 100x above the bound %g", label, bad, certLSQRBound)
				}
			}
		}
	}
}

// certifyAtScale certifies every bin of clean, lossy and weighted
// series of hourly ISPLike(n) bins — the backbone-stub shape of the
// service's hundred-node workloads — from bin 24 on, and one
// EstimateSeries chunk. Each bin runs EstimateBin's three stages —
// prepareBin, projectBin, finishBin — so the certificates speak about
// the projection and the estimate the service and the series path
// return. The clean and lossy series run cleanBins bins and the
// weighted one weightedBins (its solves take 20–30x the iterations).
// The chunk is 8 bins estimated by EstimateSeries over two workers,
// each of whose estimates must equal its certified bin bit for bit.
func certifyAtScale(t *testing.T, n, cleanBins, weightedBins int) {
	sc := synth.ISPLike(n)
	sc.BinsPerWeek, sc.BinSeconds, sc.Weeks = 2*24, 3600, 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	cert := newCertifier(t, mustSolver(t, rm))
	prior := &StableFPrior{F: sc.F}
	for _, tc := range []struct {
		name  string
		bins  int
		opts  []Option
		lossy bool
		chunk bool
	}{
		{name: "clean", bins: cleanBins},
		{name: "lossy", bins: cleanBins, lossy: true},
		{name: "weighted", bins: weightedBins, opts: []Option{WithWeighted(true)}},
		{name: "chunk", bins: 8, chunk: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEstimator(rm, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var inj *faults.Injector
			if tc.lossy {
				inj = faults.NewInjector(faults.Lossy(), 11, rm.L)
			}
			var series *SeriesResult
			if tc.chunk {
				window, err := d.Series.Slice(24, 24+tc.bins)
				if err != nil {
					t.Fatal(err)
				}
				if series, err = e.With(WithWorkers(2)).EstimateSeries(window, prior); err != nil {
					t.Fatal(err)
				}
			}
			var degraded int
			for i := 0; i < tc.bins; i++ {
				y, err := rm.LinkLoads(d.Series.At(24 + i))
				if err != nil {
					t.Fatal(err)
				}
				if inj != nil {
					prev, err := rm.LinkLoads(d.Series.At(23 + i))
					if err != nil {
						t.Fatal(err)
					}
					inj.Apply(i, y, prev)
				}
				diag := BinDiag{IPFConverged: true}
				keep, dropped, ing, eg, p, err := prepareBin(e.solver, prior, i, y)
				if err != nil {
					t.Fatalf("bin %d: %v", i, err)
				}
				proj, err := projectBin(e.solver, p, y, keep, dropped, e.opts, &diag)
				if err != nil {
					t.Fatalf("bin %d: %v", i, err)
				}
				est := proj.Clone()
				if err := finishBin(e.solver, est, ing, eg, e.opts, &diag); err != nil {
					t.Fatal(err)
				}
				if diag.PriorFallback {
					proj = nil
				}
				// Only the lossy profile's counter noise makes a bin's
				// link loads inconsistent.
				cert.certify(t, fmt.Sprintf("n=%d bin %d", n, i), p, proj, y, keep, e.opts.Weighted, !tc.lossy, est, diag)
				if diag.Degraded {
					degraded++
				}
				if series != nil {
					requireBitwise(t, series.Estimates.At(i), est, fmt.Sprintf("chunk bin %d", i))
				}
			}
			if tc.lossy && degraded == 0 {
				t.Fatal("lossy series degraded no bin; the masked solve went uncertified")
			}
		})
	}
}

// TestCertificatesAtScale asserts the calibrated certificates where the
// dense reference cannot run: n=100 always, n=200 outside -short.
func TestCertificatesAtScale(t *testing.T) {
	t.Run("n=100", func(t *testing.T) { certifyAtScale(t, 100, 4, 1) })
	t.Run("n=200", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode: a weighted n=200 solve runs thousands of LSQR iterations")
		}
		certifyAtScale(t, 200, 2, 1)
	})
}
