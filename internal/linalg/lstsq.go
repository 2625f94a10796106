package linalg

import "fmt"

// LstSq returns the least-squares solution x minimizing ||A·x - b||₂ for a
// full-column-rank A via Householder QR. It falls back to the minimum-norm
// SVD solution when A is rank deficient, so it never fails on shape-valid
// input (only on an internal SVD non-convergence, which is reported).
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func LstSq(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("%w: LstSq A %dx%d with b of %d", ErrShape, a.Rows(), a.Cols(), len(b))
	}
	if a.Rows() >= a.Cols() {
		qr, err := NewQR(a)
		if err == nil && qr.FullRank() {
			return qr.Solve(b)
		}
	}
	return SolveMinNorm(a, b, 0)
}

// SolveSPD solves the symmetric positive-definite system A·x = b using
// Cholesky with an automatic tiny-ridge retry: the go-to path for normal
// equations arising in this repository's fitters.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	ch, err := NewCholeskyRidge(a, 1e-12*scale)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b)
}

// NNLSClamp returns a non-negative approximate least-squares solution by
// solving the unconstrained problem and then iteratively clamping negative
// coordinates to zero and re-solving on the active set. This is not a full
// Lawson-Hanson NNLS, but for the well-conditioned systems produced by the
// IC fitters (diagonally dominant normal matrices, mostly interior optima)
// it converges in one or two rounds and is orders of magnitude cheaper.
func NNLSClamp(ata *Matrix, atb []float64, maxRounds int) ([]float64, error) {
	n := ata.Rows()
	if ata.Cols() != n || len(atb) != n {
		return nil, fmt.Errorf("%w: NNLSClamp with AtA %dx%d, Atb %d", ErrShape, ata.Rows(), ata.Cols(), len(atb))
	}
	if maxRounds <= 0 {
		maxRounds = 4
	}
	active := make([]bool, n) // true = clamped at zero
	x, err := SolveSPD(ata, atb)
	if err != nil {
		return nil, err
	}
	for round := 0; round < maxRounds; round++ {
		anyNeg := false
		for i, v := range x {
			if v < 0 {
				active[i] = true
				anyNeg = true
			}
		}
		if !anyNeg {
			return x, nil
		}
		// Re-solve the reduced system over the free coordinates.
		free := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !active[i] {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			return make([]float64, n), nil
		}
		sub := NewMatrix(len(free), len(free))
		rhs := make([]float64, len(free))
		for a2, i := range free {
			rhs[a2] = atb[i]
			for b2, j := range free {
				sub.Set(a2, b2, ata.At(i, j))
			}
		}
		xs, err := SolveSPD(sub, rhs)
		if err != nil {
			return nil, err
		}
		x = make([]float64, n)
		for a2, i := range free {
			x[i] = xs[a2]
		}
	}
	// Final safety clamp after the round budget.
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x, nil
}
