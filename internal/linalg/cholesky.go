package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix // lower triangular, n x n
}

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns ErrSingular (wrapped)
// if a is not positive definite to working precision.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.Rows(), a.Cols())
	}
	n := a.Rows()
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		// Diagonal entry.
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: not positive definite at pivot %d (d=%g)", ErrSingular, j, d)
		}
		diag := math.Sqrt(d)
		lrowj[j] = diag
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s / diag
		}
	}
	return &Cholesky{l: l}, nil
}

// NewCholeskyRidge factors a after adding ridge*I to the diagonal; it
// retries with a geometrically growing ridge (up to maxTries doublings)
// when a alone is not positive definite. This is the standard guard used
// by the least-squares solvers for nearly rank-deficient normal equations.
func NewCholeskyRidge(a *Matrix, ridge float64) (*Cholesky, error) {
	const maxTries = 40
	work := a.Clone()
	n := work.Rows()
	added := 0.0
	for try := 0; try < maxTries; try++ {
		ch, err := NewCholesky(work)
		if err == nil {
			return ch, nil
		}
		inc := ridge - added
		if inc <= 0 {
			inc = math.Max(ridge, 1e-300)
		}
		for i := 0; i < n; i++ {
			work.Add(i, i, inc)
		}
		added += inc
		ridge *= 4
	}
	return nil, fmt.Errorf("%w: Cholesky failed even with ridge %g", ErrSingular, added)
}

// Solve solves A·x = b for x using the stored factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: Cholesky solve with b of %d, want %d", ErrShape, len(b), n)
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}
