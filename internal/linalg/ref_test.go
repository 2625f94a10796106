package linalg

import (
	"fmt"
	"math"
)

// Dense references the tests compare the production kernels against.
// Production code runs on the allocation-free *To kernels and on CSR
// matrices; these helpers allocate freely and favour obviousness.

// fromRows builds a matrix from equal-length rows, copying them.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("fromRows: row %d has %d entries, want %d", i, len(row), m.cols))
		}
		copy(m.Row(i), row)
	}
	return m
}

// mul returns the matrix product a·b.
func mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mul: %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		orow := out.Row(i)
		for k, v := range a.Row(i) {
			for j, bv := range b.Row(k) {
				orow[j] += v * bv
			}
		}
	}
	return out
}

// mulVec returns a·x.
func mulVec(a Op, x []float64) []float64 {
	out := make([]float64, a.Rows())
	a.MulVecTo(out, x)
	return out
}

// tmulVec returns aᵀ·x.
func tmulVec(a Op, x []float64) []float64 {
	out := make([]float64, a.Cols())
	a.TMulVecTo(out, x)
	return out
}

// equal reports whether a and b have the same shape and elements within
// tol.
func equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// sparseFromDense builds the CSR form of a dense matrix, storing exactly
// its nonzero entries.
func sparseFromDense(a *Matrix) *Sparse {
	s := &Sparse{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	for i := 0; i < a.rows; i++ {
		for j, v := range a.Row(i) {
			if v != 0 {
				s.colIdx = append(s.colIdx, j)
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[i+1] = len(s.val)
	}
	return s
}

// pinv returns the Moore-Penrose pseudo-inverse of a from its Jacobi
// SVD, singular values below 1e-12·s_max treated as zero.
func pinv(a *Matrix) (*Matrix, error) {
	d, err := NewSVD(a)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(a.cols, a.rows)
	if len(d.S) == 0 || d.S[0] == 0 {
		return out, nil // pseudo-inverse of the zero matrix is zero
	}
	// A⁺ = V · diag(1/s) · Uᵀ, summing rank-1 terms v_k (1/s_k) u_kᵀ.
	for k, s := range d.S {
		if s <= 1e-12*d.S[0] {
			continue
		}
		for i := 0; i < a.cols; i++ {
			vik := d.V.At(i, k) / s
			row := out.Row(i)
			for j := range row {
				row[j] += vik * d.U.At(j, k)
			}
		}
	}
	return out, nil
}
