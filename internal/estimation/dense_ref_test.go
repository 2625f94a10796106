package estimation

import (
	"errors"
	"fmt"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/tm"
)

// denseRef is the dense reference implementation of Solver.Project for
// a fully observed bin, which the iterative path is cross-checked
// against. Unweighted, it applies the pseudo-inverse R⁺ = V Σ⁺ Uᵀ
// through the SVD of R, factored on the first unweighted projection and
// reused after. Weighted, it materializes R·W^{1/2} and solves the
// minimum-norm problem by a fresh SVD per call. Both cost
// O((L+2n)²·n²) per factorization, which is why the reference stops at
// n≈50 and the certificates (certify_test.go) take over above it. Not
// safe for concurrent use.
type denseRef struct {
	s   *Solver
	svd *linalg.SVD
	cut float64 // singular values at or below it span R's null space
}

// project returns prior + W^{1/2}·z for the minimum-norm z solving
// (R·W^{1/2})·z = y − R·prior, with W = I unweighted.
func (d *denseRef) project(prior *tm.TrafficMatrix, y []float64, weighted bool) (*tm.TrafficMatrix, error) {
	res, err := d.s.residual(nil, prior, y, nil)
	if err != nil {
		return nil, err
	}
	if weighted {
		sqrtw := sqrtWeights(nil, prior)
		rw := d.s.rm.CSR().Dense()
		for r := 0; r < rw.Rows(); r++ {
			row := rw.Row(r)
			for c := range row {
				row[c] *= sqrtw[c]
			}
		}
		z, err := linalg.SolveMinNorm(rw, res, 0)
		if err != nil {
			return nil, fmt.Errorf("estimation: weighted dense reference: %w", err)
		}
		return addCorrection(prior, z, sqrtw), nil
	}
	if d.svd == nil {
		// R is always rank deficient (ingress rows sum to the same total
		// as egress rows), so the cutoff drops its null directions.
		if d.svd, err = linalg.NewSVD(d.s.rm.CSR().Dense()); err != nil {
			return nil, fmt.Errorf("estimation: SVD of routing matrix: %w", err)
		}
		if len(d.svd.S) > 0 {
			d.cut = 1e-10 * d.svd.S[0]
		}
	}
	ncols := d.s.rm.CSR().Cols()
	correction := make([]float64, ncols)
	ucol := make([]float64, len(res))
	vcol := make([]float64, ncols)
	for k, sv := range d.svd.S {
		if sv <= d.cut {
			continue
		}
		d.svd.U.ColInto(k, ucol)
		coef := linalg.Dot(ucol, res) / sv
		if coef == 0 {
			continue
		}
		d.svd.V.ColInto(k, vcol)
		for c, v := range vcol {
			correction[c] += coef * v
		}
	}
	return addCorrection(prior, correction, nil), nil
}

// denseSeries estimates every bin of truth through the dense reference
// followed by the pipeline's own clamp and IPF (default tolerances): the
// reference answer to what EstimateSeries serves for a clean series.
func denseSeries(t *testing.T, rm *routing.Matrix, truth *tm.Series, prior Prior, weighted bool) (ests []*tm.TrafficMatrix, errs []float64) {
	t.Helper()
	ref := &denseRef{s: mustSolver(t, rm)}
	for b := 0; b < truth.Len(); b++ {
		y, err := rm.LinkLoads(truth.At(b))
		if err != nil {
			t.Fatal(err)
		}
		_, ing, eg, err := rm.SplitLoads(y)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prior.PriorFor(b, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := ref.project(p, y, weighted)
		if err != nil {
			t.Fatalf("bin %d: %v", b, err)
		}
		est.ClampNonNegative()
		if _, err := IPF(est, ing, eg, 0, 0); err != nil && !errors.Is(err, ErrIPFNoConverge) {
			t.Fatalf("bin %d: %v", b, err)
		}
		e, err := tm.RelL2(truth.At(b), est)
		if err != nil {
			t.Fatal(err)
		}
		ests, errs = append(ests, est), append(errs, e)
	}
	return ests, errs
}
