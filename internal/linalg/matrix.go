// Package linalg provides the dense linear-algebra kernel used throughout
// the repository: matrices, vectors, Cholesky factorization, a one-sided
// Jacobi SVD with minimum-norm solves, sparse CSR matrices and the LSQR
// least-squares solvers.
//
// The package is deliberately small and self-contained (standard library
// only). Matrices are stored row-major in a single backing slice; all
// dimensions involved in this reproduction are modest (at most a few
// hundred rows/columns), so clarity is favoured over blocking or SIMD
// tricks, while still keeping the obvious O(n^3) algorithms cache-friendly
// by iterating row-major.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Use NewMatrix to construct one
// with storage.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-filled r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// ColInto copies column j into dst, which must have length Rows, so one
// buffer serves a walk over many columns.
//
//iclint:ignore deadexport estimation's dense SVD reference (dense_ref_test.go) reads singular vectors through it
func (m *Matrix) ColInto(j int, dst []float64) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: ColInto dst of %d, want %d rows", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// MulVecTo computes dst = m * x without allocating, panicking on shape
// mismatch. Together with TMulVecTo it lets *Matrix satisfy the Op
// interface of the iterative solvers.
func (m *Matrix) MulVecTo(dst, x []float64) {
	if m.cols != len(x) || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecTo %dx%d with x of %d, dst of %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// TMulVecTo computes dst = mᵀ * x without allocating, panicking on
// shape mismatch.
func (m *Matrix) TMulVecTo(dst, x []float64) {
	if m.rows != len(x) || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: TMulVecTo (%dx%d)ᵀ with x of %d, dst of %d", m.rows, m.cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	return Norm2(m.data)
}

// MaxAbs returns the largest absolute element, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxDim = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d", m.rows, m.cols)
	if m.rows > maxDim || m.cols > maxDim {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
	}
	return b.String()
}
