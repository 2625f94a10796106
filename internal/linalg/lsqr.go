package linalg

import (
	"fmt"
	"math"
)

// Op is a linear operator A presented through its two matrix-vector
// products. Both *Matrix and *Sparse satisfy it, as does the ColScaled
// wrapper, so iterative solvers can run against any of them — in
// particular against an implicitly column-scaled routing matrix without
// ever materializing the scaled copy.
type Op interface {
	Rows() int
	Cols() int
	// MulVecTo computes dst = A·x.
	MulVecTo(dst, x []float64)
	// TMulVecTo computes dst = Aᵀ·x.
	TMulVecTo(dst, x []float64)
}

// ColScaled wraps an operator as A·diag(scale): column j of the wrapped
// operator is scale[j] times column j of a. It is the implicit form of
// the weighted-tomogravity column scaling R·W^{1/2} — no copy of R, no
// per-call matrix build. The wrapper allocates one scratch vector at
// construction and is therefore NOT safe for concurrent use; create one
// per goroutine (they are cheap).
type ColScaled struct {
	a       Op
	scale   []float64
	scratch []float64
}

// NewColScaled wraps a as a ColScaled operator. It panics when the scale
// vector does not match a's column count.
func NewColScaled(a Op, scale []float64) *ColScaled {
	if len(scale) != a.Cols() {
		panic(fmt.Sprintf("linalg: ColScaled with %d scales for %d columns", len(scale), a.Cols()))
	}
	return &ColScaled{a: a, scale: scale, scratch: make([]float64, a.Cols())}
}

// Rows returns the wrapped operator's row count.
func (c *ColScaled) Rows() int { return c.a.Rows() }

// Cols returns the wrapped operator's column count.
func (c *ColScaled) Cols() int { return c.a.Cols() }

// MulVecTo computes dst = A·diag(scale)·x.
func (c *ColScaled) MulVecTo(dst, x []float64) {
	for j, v := range x {
		c.scratch[j] = v * c.scale[j]
	}
	c.a.MulVecTo(dst, c.scratch)
}

// TMulVecTo computes dst = diag(scale)·Aᵀ·x.
func (c *ColScaled) TMulVecTo(dst, x []float64) {
	c.a.TMulVecTo(dst, x)
	for j := range dst {
		dst[j] *= c.scale[j]
	}
}

// LSQROptions tune the iterative solver. The zero value selects the
// defaults documented on each field.
type LSQROptions struct {
	// Damp adds Tikhonov regularization: the problem solved is
	// min ‖A·x − b‖² + Damp²·‖x‖². Zero solves the plain least-squares
	// problem.
	Damp float64
	// ATol and BTol are the Paige-Saunders stopping tolerances: the
	// iteration stops when ‖Aᵀr‖ ≤ ATol·‖A‖·‖r‖ (least-squares
	// optimality) or ‖r‖ ≤ BTol·‖b‖ + ATol·‖A‖·‖x‖ (consistent-system
	// residual). Zero selects 1e-13, tight enough that the solution
	// matches the dense SVD path to well below the pipeline's 1e-6
	// agreement contract.
	ATol, BTol float64
	// MaxIter bounds the iterations; zero selects 4·(Rows+Cols), a
	// generous budget for the well-conditioned routing systems this
	// repository solves (they converge in a few dozen iterations).
	MaxIter int
	// Work, when non-nil, supplies the solve's working vectors so
	// steady-state callers allocate nothing per solve. The returned
	// solution aliases Work's solution buffer and is valid only until
	// the next solve that uses the same Work; copy it to keep it.
	Work *LSQRWork
}

// LSQRWork holds the working vectors of one LSQR solve for reuse across
// solves of equal (or varying) shape. The zero value is ready to use:
// buffers grow on demand and are fully overwritten before being read,
// so reuse cannot leak state between solves — results are bit-identical
// to a fresh allocation. Not safe for concurrent use; give each worker
// its own.
type LSQRWork struct {
	x, u, v, w, tmpu, tmpv []float64
}

// grow resizes a buffer to length n, reusing capacity when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// vectors returns the six working slices for an m×n solve, growing the
// backing buffers as needed.
func (w *LSQRWork) vectors(m, n int) (x, u, v, ww, tmpu, tmpv []float64) {
	w.x = grow(w.x, n)
	w.u = grow(w.u, m)
	w.v = grow(w.v, n)
	w.w = grow(w.w, n)
	w.tmpu = grow(w.tmpu, m)
	w.tmpv = grow(w.tmpv, n)
	return w.x, w.u, w.v, w.w, w.tmpu, w.tmpv
}

// LSQRReport describes how an LSQR run ended. Every field is computed
// from the same deterministic recurrences as the solution itself, so
// reports are bit-identical across runs and worker counts.
type LSQRReport struct {
	// Iterations actually performed.
	Iterations int
	// ResidualNorm is the final estimate of ‖b − A·x‖ (including the
	// damping term when Damp > 0).
	ResidualNorm float64
	// ATResidualNorm is the final estimate of ‖Aᵀ·(b − A·x)‖, the
	// least-squares optimality measure.
	ATResidualNorm float64
	// Converged reports whether a stopping tolerance was met within
	// MaxIter (breakdown of the bidiagonalization — an exactly conquered
	// Krylov space — also counts as convergence).
	Converged bool
}

// LSQR solves min ‖A·x − b‖² + damp²·‖x‖² by the Paige-Saunders
// Golub-Kahan bidiagonalization method, returning the minimum-norm
// least-squares solution (the same solution SolveMinNorm computes from a
// dense SVD: LSQR iterates live in range(Aᵀ), which pins down the
// minimum-norm member of the solution set). Each iteration costs one
// A·v and one Aᵀ·u product, so for a sparse operator the total cost is
// O(iterations · nnz) — for the routing systems of this repository a few
// dozen sparse mat-vecs versus a fresh O((L+2n)²·n²) Jacobi SVD.
//
// The returned error reports shape mismatches only; hitting MaxIter is
// reported through Report.Converged so callers can decide whether an
// almost-converged solution is usable.
//
// Options.Work makes the solve allocation-free; the returned slice
// then aliases Work's solution buffer.
func LSQR(a Op, b []float64, opts LSQROptions) ([]float64, LSQRReport, error) {
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, LSQRReport{}, fmt.Errorf("%w: LSQR A %dx%d with b of %d", ErrShape, m, n, len(b))
	}
	atol, btol := opts.ATol, opts.BTol
	if atol <= 0 {
		atol = 1e-13
	}
	if btol <= 0 {
		btol = 1e-13
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 4 * (m + n)
	}
	damp := opts.Damp

	wk := opts.Work
	if wk == nil {
		wk = &LSQRWork{}
	}
	x, u, v, w, tmpu, tmpv := wk.vectors(m, n)
	for i := range x {
		x[i] = 0
	}
	copy(u, b)
	beta := Norm2(u)
	bnorm := beta
	rep := LSQRReport{}
	if beta == 0 {
		// b = 0: x = 0 is the exact solution.
		rep.Converged = true
		return x, rep, nil
	}
	ScaleVec(1/beta, u)
	a.TMulVecTo(v, u)
	alpha := Norm2(v)
	if alpha == 0 {
		// Aᵀ·b = 0: x = 0 is already least-squares optimal.
		rep.ResidualNorm = beta
		rep.Converged = true
		return x, rep, nil
	}
	ScaleVec(1/alpha, v)
	copy(w, v)

	var (
		rhobar = alpha
		phibar = beta
		// Running estimates of ‖A‖_F, ‖r‖ split terms and ‖x‖.
		anorm, xxnorm float64
		res2, xnorm   float64
		cs2, sn2, z   = -1.0, 0.0, 0.0
	)

	for iter := 1; iter <= maxIter; iter++ {
		rep.Iterations = iter
		// Continue the bidiagonalization: β·u = A·v − α·u, then
		// α·v = Aᵀ·u − β·v.
		a.MulVecTo(tmpu, v)
		for i := range u {
			u[i] = tmpu[i] - alpha*u[i]
		}
		beta = Norm2(u)
		if beta > 0 {
			ScaleVec(1/beta, u)
			a.TMulVecTo(tmpv, u)
			for i := range v {
				v[i] = tmpv[i] - beta*v[i]
			}
			alpha = Norm2(v)
			if alpha > 0 {
				ScaleVec(1/alpha, v)
			}
		}
		anorm = math.Hypot(anorm, math.Hypot(alpha, math.Hypot(beta, damp)))

		// Eliminate the damping term from the lower bidiagonal.
		rhobar1 := rhobar
		psi := 0.0
		if damp > 0 {
			rhobar1 = math.Hypot(rhobar, damp)
			c1 := rhobar / rhobar1
			s1 := damp / rhobar1
			psi = s1 * phibar
			phibar = c1 * phibar
		}

		// Plane rotation annihilating β, updating x and w.
		rho := math.Hypot(rhobar1, beta)
		c := rhobar1 / rho
		s := beta / rho
		theta := s * alpha
		rhobar = -c * alpha
		phi := c * phibar
		phibar = s * phibar

		t1 := phi / rho
		t2 := -theta / rho
		for i := range x {
			wi := w[i]
			x[i] += t1 * wi
			w[i] = v[i] + t2*wi
		}

		// Norm estimates for the stopping tests (Paige-Saunders §5.3;
		// res2/psi track the damping contribution to the residual, and
		// ‖x‖ comes from the right-rotation recurrence that eliminates
		// the super-diagonal of the upper-bidiagonal system).
		res2 = math.Hypot(res2, psi)
		rnorm := math.Hypot(res2, phibar)
		arnorm := alpha * math.Abs(s*phi)
		delta := sn2 * rho
		gambar := -cs2 * rho
		rhs := phi - delta*z
		if gambar != 0 {
			zbar := rhs / gambar
			xnorm = math.Sqrt(xxnorm + zbar*zbar)
		}
		gamma := math.Hypot(gambar, theta)
		if gamma > 0 {
			cs2 = gambar / gamma
			sn2 = theta / gamma
			z = rhs / gamma
			xxnorm += z * z
		}

		rep.ResidualNorm = rnorm
		rep.ATResidualNorm = arnorm

		// Stopping tests.
		test1 := rnorm / bnorm
		test2 := 0.0
		if anorm > 0 && rnorm > 0 {
			test2 = arnorm / (anorm * rnorm)
		}
		if test1 <= btol+atol*anorm*xnorm/bnorm || test2 <= atol {
			rep.Converged = true
			return x, rep, nil
		}
		if alpha == 0 || beta == 0 {
			// Bidiagonalization breakdown: the Krylov space is exhausted
			// and x is exact over it.
			rep.Converged = true
			return x, rep, nil
		}
	}
	return x, rep, nil
}
