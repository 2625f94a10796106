package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q·R of an m x n matrix with
// m >= n. Q is m x m orthogonal (stored implicitly as Householder vectors)
// and R is upper triangular m x n (upper n x n block is the useful part).
type QR struct {
	qr   *Matrix   // packed factors: R in upper triangle, reflectors below
	rdia []float64 // diagonal of R
	m, n int
}

// NewQR factors a (m x n, m >= n) using Householder reflections.
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below (and including) the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Add(k, k, 1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
		rdia[k] = -nrm
	}
	return &QR{qr: qr, rdia: rdia, m: m, n: n}, nil
}

// FullRank reports whether R has no zero (to machine tolerance) diagonal.
func (q *QR) FullRank() bool {
	tol := 1e-14 * q.maxDiag()
	for _, d := range q.rdia {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

func (q *QR) maxDiag() float64 {
	max := 0.0
	for _, d := range q.rdia {
		if a := math.Abs(d); a > max {
			max = a
		}
	}
	if max == 0 {
		return 1
	}
	return max
}

// Solve returns the least-squares solution x minimizing ||A·x - b||₂.
// It returns ErrSingular (wrapped) if A is rank deficient.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, fmt.Errorf("%w: QR solve with b of %d, want %d", ErrShape, len(b), q.m)
	}
	if !q.FullRank() {
		return nil, fmt.Errorf("%w: rank-deficient QR", ErrSingular)
	}
	y := CloneVec(b)
	// Apply Qᵀ to b.
	for k := 0; k < q.n; k++ {
		if q.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < q.m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < q.m; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n].
	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / q.rdia[i]
	}
	return x, nil
}

// R returns the upper-triangular n x n factor.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (q *QR) R() *Matrix {
	r := NewMatrix(q.n, q.n)
	for i := 0; i < q.n; i++ {
		r.Set(i, i, q.rdia[i])
		for j := i + 1; j < q.n; j++ {
			r.Set(i, j, q.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin m x n orthonormal factor.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (q *QR) Q() *Matrix {
	qm := NewMatrix(q.m, q.n)
	for j := 0; j < q.n; j++ {
		// Start from the j-th unit vector and apply the reflectors in reverse.
		col := make([]float64, q.m)
		col[j] = 1
		for k := q.n - 1; k >= 0; k-- {
			if q.qr.At(k, k) == 0 {
				continue
			}
			var s float64
			for i := k; i < q.m; i++ {
				s += q.qr.At(i, k) * col[i]
			}
			s = -s / q.qr.At(k, k)
			for i := k; i < q.m; i++ {
				col[i] += s * q.qr.At(i, k)
			}
		}
		for i := 0; i < q.m; i++ {
			qm.Set(i, j, col[i])
		}
	}
	return qm
}
