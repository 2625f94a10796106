package estimation

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/tm"
)

// ErrIPFNoConverge reports that IPF exhausted its sweep budget before
// reaching tolerance. The matrix holds the last sweep's state — usable,
// but honouring the targets only approximately — so callers may treat
// this as a diagnostic rather than a failure (EstimateBin records it in
// BinDiag and keeps the estimate).
var ErrIPFNoConverge = errors.New("estimation: IPF did not converge")

// Solver performs the tomogravity least-squares projection (step 2)
// through one entry point, Project, for both the unweighted and the
// prior-weighted objective: each bin is an LSQR solve against the
// routing matrix's sparse (CSR) view, so constructing a Solver is O(nnz)
// and per-bin work is one sparse mat-vec pair per LSQR iteration:
// 118–149 iterations for an unweighted GeantLike or ISPLike(100) bin,
// 357–737 for a weighted GeantLike one. No dense factorization of R is
// ever formed.
//
// A Solver is safe for concurrent use once constructed: the routing
// matrix and its CSR view are never written after NewSolver returns, and
// the per-solve working storage (residuals, weights, LSQR state, IPF
// marginal buffers) comes from a sync.Pool — each in-flight solve owns
// its scratch exclusively, so parallel bins never share mutable state.
// The Estimator relies on this to estimate bins in parallel against one
// shared solver.
type Solver struct {
	rm *routing.Matrix

	// maxIter is the LSQR iteration budget of every iterative solve; zero
	// selects LSQR's default. Only in-package tests set it, to force the
	// stall policy's branches.
	maxIter int

	// scratch pools per-solve working storage (solveScratch). Reused
	// buffers are fully overwritten before being read, so pooling cannot
	// leak state between bins — results are bit-identical to fresh
	// allocation; the registered steady-state path just stops paying the
	// allocator on every bin.
	scratch sync.Pool
}

// solveScratch is the reusable working storage of one in-flight solve:
// the projection's residual and weights, the LSQR work area, and the
// IPF marginal buffers. Pooled on the Solver; not safe for concurrent
// use — each solve checks one out for its duration.
type solveScratch struct {
	res     []float64 // rows-sized: the measurement residual
	sqrtw   []float64 // n²-sized: the weighted projection's W^{1/2}
	lsqr    linalg.LSQRWork
	ing, eg []float64 // n-sized: IPF marginal accumulators
}

// getScratch checks a scratch object out of the pool (allocating the
// struct only on first use per worker).
func (s *Solver) getScratch() *solveScratch {
	if sc, ok := s.scratch.Get().(*solveScratch); ok {
		//iclint:ignore poolscope accessor pair: every getScratch is matched by a deferred putScratch in the same solve
		return sc
	}
	return &solveScratch{}
}

func (s *Solver) putScratch(sc *solveScratch) { s.scratch.Put(sc) }

// growFloat resizes a scratch buffer to length n, reusing capacity.
func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// NewSolver prepares a solver for the routing matrix. It is cheap —
// O(nnz) of bookkeeping, no factorization — so hundred-node topologies
// start instantly.
func NewSolver(rm *routing.Matrix) (*Solver, error) {
	if rm == nil || rm.CSR() == nil {
		return nil, fmt.Errorf("%w: nil routing matrix", ErrInput)
	}
	return &Solver{rm: rm}, nil
}

// Projection reports how one tomogravity projection was solved.
type Projection struct {
	// Iterations is the number of LSQR iterations the solve consumed —
	// the per-bin convergence cost (BinDiag.LSQRIterations).
	Iterations int
	// Stalled reports that LSQR hit its iteration budget before
	// tolerance; the estimate is then LSQR's almost-converged iterate.
	// The routing systems of this repository converge well inside the
	// default budget of 4·(rows+cols) iterations, so a stall is
	// exceptional.
	Stalled bool
}

// residual validates a projection's inputs and writes the measurement
// residual y − R·prior into buf (grown to the row count, reusing its
// capacity), computed on the sparse routing view. Rows that keep drops
// are zeroed, so NaN missing-report markers cannot poison the solve
// (the dropped equations contribute nothing either way).
func (s *Solver) residual(buf []float64, prior *tm.TrafficMatrix, y []float64, keep []bool) ([]float64, error) {
	rows := s.rm.Rows()
	switch {
	case prior.N() != s.rm.N:
		return nil, fmt.Errorf("%w: prior over %d nodes for n=%d routing", ErrInput, prior.N(), s.rm.N)
	case len(y) != rows:
		return nil, fmt.Errorf("%w: y of %d, want %d", ErrInput, len(y), rows)
	case keep != nil && len(keep) != rows:
		return nil, fmt.Errorf("%w: row mask of %d, want %d", ErrInput, len(keep), rows)
	}
	res := growFloat(buf, rows)
	s.rm.CSR().MulVecTo(res, prior.Vec())
	for i, v := range y {
		if keep != nil && !keep[i] {
			res[i] = 0
			continue
		}
		res[i] = v - res[i]
	}
	return res, nil
}

// sqrtWeights writes the weighted projection's column scaling W^{1/2}
// into buf, with W = diag(max(prior, floor)). The floor — a small
// fraction of the mean prior flow — keeps zero prior entries
// correctable without dominating the geometry.
func sqrtWeights(buf []float64, prior *tm.TrafficMatrix) []float64 {
	pv := prior.Vec()
	var mean float64
	for _, v := range pv {
		mean += v
	}
	mean /= float64(len(pv))
	floor := 1e-3 * mean
	if floor <= 0 {
		floor = 1e-12
	}
	sqrtw := growFloat(buf, len(pv))
	for i, v := range pv {
		sqrtw[i] = math.Sqrt(max(v, floor))
	}
	return sqrtw
}

// addCorrection returns prior + W^{1/2}·z, with W = I when sqrtw is nil.
func addCorrection(prior *tm.TrafficMatrix, z, sqrtw []float64) *tm.TrafficMatrix {
	out := prior.Clone()
	ov := out.Vec()
	if sqrtw == nil {
		for i := range ov {
			ov[i] += z[i]
		}
		return out
	}
	for i := range ov {
		ov[i] += sqrtw[i] * z[i]
	}
	return out
}

// Project is the tomogravity step: the correction of the prior toward
// the link constraints R·x = y by least squares. Unweighted, it is the
// minimal-L2 correction
//
//	x̂ = x_prior + R⁺ (y − R·x_prior)
//
// — among all x with R·x = y (in the least-squares sense when y is
// noisy) the one closest to the prior in Euclidean norm. Weighted, it is
// the prior-weighted tomogravity of Zhang et al.,
//
//	minimize ||W^{-1/2}·(x - prior)||₂  subject to  R·x = y
//
// with W = diag(max(prior, floor)), so large flows absorb more of the
// correction; substituting x = prior + W^{1/2}·z reduces it to the
// minimum-norm solution of (R·W^{1/2})·z = y − R·prior.
//
// Either way the correction is one LSQR solve on the sparse routing
// view — implicitly column-scaled when weighted, no factorization,
// O(iterations · nnz) per bin. A non-nil keep drops the rows with
// keep[i] == false from the system (linalg.RowMasked, bitwise-identical
// to physically removing them), so a bin with missing link reports is
// fitted to the surviving equations only. A solve that stalls at its
// iteration budget keeps LSQR's almost-converged minimum-norm iterate,
// and the stall is reported in the Projection so the pipeline can count
// it instead of hiding a quality surprise. The result can contain small
// negative entries; the caller is expected to clamp and re-balance (see
// EstimateBin).
func (s *Solver) Project(prior *tm.TrafficMatrix, y []float64, keep []bool, weighted bool) (*tm.TrafficMatrix, Projection, error) {
	sc := s.getScratch()
	defer s.putScratch(sc)
	var err error
	if sc.res, err = s.residual(sc.res, prior, y, keep); err != nil {
		return nil, Projection{}, err
	}
	var op linalg.Op = s.rm.CSR()
	var sqrtw []float64
	if weighted {
		sc.sqrtw = sqrtWeights(sc.sqrtw, prior)
		sqrtw = sc.sqrtw
		op = linalg.NewColScaled(op, sqrtw)
	}
	if keep != nil {
		op = linalg.NewRowMasked(op, keep)
	}
	z, rep, err := linalg.LSQR(op, sc.res, linalg.LSQROptions{MaxIter: s.maxIter, Work: &sc.lsqr})
	if err != nil {
		return nil, Projection{}, fmt.Errorf("estimation: projection: %w", err)
	}
	return addCorrection(prior, z, sqrtw), Projection{Iterations: rep.Iterations, Stalled: !rep.Converged}, nil
}

// ProjectReport is Project for an unweighted, fully observed bin, in the
// result shape of the icbench stage tracer — its only caller, which
// cannot change alongside the solver. Kept until the tracer calls
// Project directly.
func (s *Solver) ProjectReport(prior *tm.TrafficMatrix, y []float64) (*tm.TrafficMatrix, bool, int, error) {
	est, pr, err := s.Project(prior, y, nil, false)
	return est, pr.Stalled, pr.Iterations, err
}

// ProjectMaskedReport is Project for an unweighted bin with the row mask
// keep, in the result shape of the icbench stage tracer; kept for the
// same reason as ProjectReport.
func (s *Solver) ProjectMaskedReport(prior *tm.TrafficMatrix, y []float64, keep []bool) (*tm.TrafficMatrix, bool, int, error) {
	est, pr, err := s.Project(prior, y, keep, false)
	return est, pr.Stalled, pr.Iterations, err
}

// IPF rescales x by iterative proportional fitting until its row sums
// match rowTargets and column sums match colTargets within tol
// (relative). Entries stay non-negative; zero rows/columns with positive
// targets are seeded uniformly first so mass can be created there.
// It returns the number of sweeps performed. When the tolerance is not
// reached within maxIter sweeps, the sweep count is returned together
// with an error wrapping ErrIPFNoConverge (previously this case was
// silently indistinguishable from converging on the last sweep); x holds
// the last sweep's state either way.
func IPF(x *tm.TrafficMatrix, rowTargets, colTargets []float64, tol float64, maxIter int) (int, error) {
	n := x.N()
	return ipfInto(x, rowTargets, colTargets, tol, maxIter,
		make([]float64, n), make([]float64, n))
}

// ipfInto is IPF with caller-supplied marginal scratch (two n-sized
// buffers, reused across sweeps). The marginal sums come from
// IngressInto/EgressInto, which are bit-identical to Ingress/Egress, so
// pooled and fresh runs produce the same matrix to the last bit. It
// backs both the exported IPF and the pipeline's per-bin step, which
// feeds it buffers from the solver's scratch pool.
func ipfInto(x *tm.TrafficMatrix, rowTargets, colTargets []float64, tol float64, maxIter int, ing, eg []float64) (int, error) {
	n := x.N()
	if err := validateMarginals(n, rowTargets, colTargets); err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	// Seed zero rows/columns that must carry mass.
	x.IngressInto(ing)
	for i := 0; i < n; i++ {
		if rowTargets[i] > 0 && ing[i] == 0 {
			for j := 0; j < n; j++ {
				x.Set(i, j, rowTargets[i]/float64(n))
			}
		}
	}
	x.EgressInto(eg)
	for j := 0; j < n; j++ {
		if colTargets[j] > 0 && eg[j] == 0 {
			for i := 0; i < n; i++ {
				x.Add(i, j, colTargets[j]/float64(n))
			}
		}
	}
	worst := math.Inf(1)
	for iter := 1; iter <= maxIter; iter++ {
		// Row scaling.
		x.IngressInto(ing)
		for i := 0; i < n; i++ {
			if ing[i] == 0 {
				continue
			}
			scale := rowTargets[i] / ing[i]
			for j := 0; j < n; j++ {
				x.Set(i, j, x.At(i, j)*scale)
			}
		}
		// Column scaling.
		x.EgressInto(eg)
		for j := 0; j < n; j++ {
			if eg[j] == 0 {
				continue
			}
			scale := colTargets[j] / eg[j]
			for i := 0; i < n; i++ {
				x.Set(i, j, x.At(i, j)*scale)
			}
		}
		// Convergence check on row sums (columns were just enforced).
		x.IngressInto(ing)
		worst = 0
		for i := 0; i < n; i++ {
			den := math.Max(rowTargets[i], 1)
			if d := math.Abs(ing[i]-rowTargets[i]) / den; d > worst {
				worst = d
			}
		}
		if worst <= tol {
			return iter, nil
		}
	}
	return maxIter, fmt.Errorf("%w after %d sweeps (worst relative row error %.3g > tol %.3g)",
		ErrIPFNoConverge, maxIter, worst, tol)
}
