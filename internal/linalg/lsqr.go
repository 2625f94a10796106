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
	scratch, scale := c.scratch[:len(x)], c.scale[:len(x)]
	for j, v := range x {
		scratch[j] = v * scale[j]
	}
	c.a.MulVecTo(dst, c.scratch)
}

// TMulVecTo computes dst = diag(scale)·Aᵀ·x.
func (c *ColScaled) TMulVecTo(dst, x []float64) {
	c.a.TMulVecTo(dst, x)
	scale := c.scale[:len(dst)]
	for j := range dst {
		dst[j] *= scale[j]
	}
}

// LSQROptions tune the iterative solver LSQR. The zero value selects
// the defaults documented on each field.
type LSQROptions struct {
	// MaxIter bounds the iterations of a solve; zero selects
	// 4·(Rows+Cols), far above what the routing systems this repository
	// solves take. Over 24 bins with gravity and IC priors, GeantLike
	// (188×484, budget 2688) takes 118–123 iterations a bin unweighted
	// and 357–737 weighted; ISPLike(100) (472×10000, budget 41888) takes
	// 145–149 unweighted.
	MaxIter int
	// Work, when non-nil, supplies the solve's working storage so
	// steady-state callers allocate nothing per solve. LSQR's returned
	// solution then aliases Work and is valid only until the next solve
	// that uses the same Work; copy it to keep it.
	Work *LSQRWork
}

// maxIter resolves MaxIter for an m×n operator.
func (o LSQROptions) maxIter(m, n int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	return 4 * (m + n)
}

// LSQRWork holds the working storage of LSQR solves for reuse across
// solves of equal (or varying) shape. The zero value is ready to use:
// buffers grow on demand and are fully overwritten before being read,
// so reuse cannot leak state between solves — results are bit-identical
// to a fresh allocation. Not safe for concurrent use; give each worker
// its own.
type LSQRWork struct {
	// The iterate vectors.
	x, u, v, w []float64
	// The mat-vec products, before the update.
	tmpu, tmpv []float64
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
	// ResidualNorm is the final estimate of ‖b − A·x‖.
	ResidualNorm float64
	// ATResidualNorm is the final estimate of ‖Aᵀ·(b − A·x)‖, the
	// least-squares optimality measure.
	ATResidualNorm float64
	// Converged reports whether a stopping tolerance was met within
	// MaxIter (breakdown of the bidiagonalization — an exactly conquered
	// Krylov space — also counts as convergence).
	Converged bool
}

// lsqrTol is the Paige–Saunders stopping tolerance, both atol and btol:
// an iteration stops when ‖Aᵀr‖ ≤ lsqrTol·‖A‖·‖r‖ (least-squares
// optimality) or ‖r‖ ≤ lsqrTol·(‖b‖ + ‖A‖·‖x‖) (consistent-system
// residual).
const lsqrTol = 1e-13

// lane is the scalar state of one LSQR system: the plane rotations, the
// running estimates of ‖A‖_F and ‖x‖ (Paige–Saunders §5.3; ‖x‖ comes
// from the right-rotation recurrence that eliminates the
// super-diagonal of the upper-bidiagonal system), the stopping tests
// and the report.
type lane struct {
	bnorm, rhobar, phibar float64
	anorm, xxnorm, xnorm  float64
	cs2, sn2, z           float64
	rep                   LSQRReport
}

// start resets the lane for a system with β = ‖b‖ and α = ‖Aᵀ·b‖/‖b‖,
// the first step of the bidiagonalization, and reports whether x = 0
// already solves it.
func (l *lane) start(beta, alpha float64) bool {
	*l = lane{bnorm: beta, rhobar: alpha, phibar: beta, cs2: -1}
	switch {
	case beta == 0:
		// b = 0: x = 0 is the exact solution.
		l.rep.Converged = true
	case alpha == 0:
		// Aᵀ·b = 0: x = 0 is already least-squares optimal.
		l.rep.ResidualNorm = beta
		l.rep.Converged = true
	}
	return l.rep.Converged
}

// step advances the lane by one iteration, given the α and β the
// bidiagonalization just produced. It applies the plane rotation that
// annihilates β, updates the norm estimates and the report, and runs
// the stopping tests, setting rep.Converged. The caller then updates
// x += t1·w and w = v + t2·w.
func (l *lane) step(alpha, beta float64) (t1, t2 float64) {
	l.rep.Iterations++
	l.anorm = math.Hypot(l.anorm, math.Hypot(alpha, beta))

	rho := math.Hypot(l.rhobar, beta)
	c := l.rhobar / rho
	s := beta / rho
	theta := s * alpha
	l.rhobar = -c * alpha
	phi := c * l.phibar
	l.phibar = s * l.phibar
	t1 = phi / rho
	t2 = -theta / rho

	rnorm := math.Abs(l.phibar)
	arnorm := alpha * math.Abs(s*phi)
	delta := l.sn2 * rho
	gambar := -l.cs2 * rho
	rhs := phi - delta*l.z
	if gambar != 0 {
		zbar := rhs / gambar
		l.xnorm = math.Sqrt(l.xxnorm + zbar*zbar)
	}
	gamma := math.Hypot(gambar, theta)
	if gamma > 0 {
		l.cs2 = gambar / gamma
		l.sn2 = theta / gamma
		l.z = rhs / gamma
		l.xxnorm += l.z * l.z
	}
	l.rep.ResidualNorm = rnorm
	l.rep.ATResidualNorm = arnorm

	test1 := rnorm / l.bnorm
	test2 := 0.0
	if l.anorm > 0 && rnorm > 0 {
		test2 = arnorm / (l.anorm * rnorm)
	}
	// A breakdown of the bidiagonalization (α = 0 or β = 0) exhausts the
	// Krylov space, and x is exact over it.
	l.rep.Converged = test1 <= lsqrTol+lsqrTol*l.anorm*l.xnorm/l.bnorm || test2 <= lsqrTol ||
		alpha == 0 || beta == 0
	return t1, t2
}

// LSQR solves min ‖A·x − b‖² by the Paige-Saunders Golub-Kahan
// bidiagonalization method, returning the minimum-norm least-squares
// solution (the same solution SolveMinNorm computes from a dense SVD:
// LSQR iterates live in range(Aᵀ), which pins down the minimum-norm
// member of the solution set). Each iteration costs one A·v and one
// Aᵀ·u product, so for a sparse operator the total cost is
// O(iterations · nnz) — for the routing systems of this repository
// 118–149 iterations a bin unweighted and 357–737 for weighted
// GeantLike bins (see MaxIter), versus a fresh O((L+2n)²·n²) Jacobi
// SVD.
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
	wk := opts.Work
	if wk == nil {
		wk = &LSQRWork{}
	}
	x, u, v, w, tmpu, tmpv := wk.vectors(m, n)
	clear(x)
	copy(u, b)
	beta := Norm2(u)
	alpha := 0.0
	if beta > 0 {
		ScaleVec(1/beta, u)
		a.TMulVecTo(v, u)
		alpha = Norm2(v)
	}
	var l lane
	if l.start(beta, alpha) {
		return x, l.rep, nil
	}
	ScaleVec(1/alpha, v)
	copy(w, v)

	for iter := opts.maxIter(m, n); iter > 0 && !l.rep.Converged; iter-- {
		// Continue the bidiagonalization: β·u = A·v − α·u, then
		// α·v = Aᵀ·u − β·v, each update fused with its norm's max pass.
		a.MulVecTo(tmpu, v)
		beta = normFromMax(u, updateMax(u, tmpu, alpha))
		if beta > 0 {
			ScaleVec(1/beta, u)
			a.TMulVecTo(tmpv, u)
			alpha = normFromMax(v, updateMax(v, tmpv, beta))
			if alpha > 0 {
				ScaleVec(1/alpha, v)
			}
		}
		t1, t2 := l.step(alpha, beta)
		updateXW(x, w, v, t1, t2)
	}
	return x, l.rep, nil
}

// updateXW advances the solution and the search direction:
// x += t1·w, then w = v + t2·w.
func updateXW(x, w, v []float64, t1, t2 float64) {
	w, v = w[:len(x)], v[:len(x)]
	for i := range x {
		wi := w[i]
		x[i] += t1 * wi
		w[i] = v[i] + t2*wi
	}
}

// updateMax sets dst = a − s·dst and returns max|dst|, the first pass
// of Norm2 over the result: the same comparisons in the same order, so
// normFromMax(dst, updateMax(dst, a, s)) is Norm2 of the update bit for
// bit.
func updateMax(dst, a []float64, s float64) float64 {
	a = a[:len(dst)]
	var max float64
	for i, d := range dst {
		t := a[i] - s*d
		dst[i] = t
		if m := math.Abs(t); m > max {
			max = m
		}
	}
	return max
}
