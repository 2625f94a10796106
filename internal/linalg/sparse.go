package linalg

import (
	"fmt"
	"sort"
)

// Sparse is an immutable sparse matrix in compressed-sparse-row (CSR)
// form. The routing matrices of this repository are 0/1 incidence-like
// matrices with a handful of fractional ECMP entries — a few nonzeros
// per column out of L+2n rows — so CSR mat-vecs cost O(nnz) instead of
// the O(rows·cols) a dense product pays, which is the difference between
// a projection step dominated by the R·x products and one dominated by
// everything else.
//
// A Sparse is safe for concurrent use: it is never mutated after
// construction.
type Sparse struct {
	rows, cols int
	rowPtr     []int     // len rows+1; row i spans [rowPtr[i], rowPtr[i+1])
	colIdx     []int     // len nnz, column index per stored entry
	val        []float64 // len nnz, entry values in row-major order
}

// Coord is one (row, col, value) entry in coordinate (triplet) form, the
// input of NewSparse.
type Coord struct {
	Row, Col int
	Val      float64
}

// NewSparse builds a CSR matrix directly from coordinate-form entries,
// without materializing a dense intermediate — the construction path for
// routing matrices at hundred-node scale, where the dense form alone
// costs hundreds of megabytes. Zero-valued entries are dropped, so NNZ
// counts exactly the nonzero entries; entries are ordered by
// (row, col), so the stored order — and therefore every accumulation
// order downstream — is independent of input order. Out-of-range and
// duplicate (row, col) entries are errors: the callers of this
// repository never legitimately produce them, and summing duplicates
// would make float results depend on input order.
//
// Entries are bucketed into rows by a counting pass, keeping input order
// within a row, and only a row whose columns arrive out of order is
// sorted: input already in column order (routing.Build's) costs O(nnz).
func NewSparse(rows, cols int, entries []Coord) (*Sparse, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: sparse %dx%d", ErrShape, rows, cols)
	}
	s := &Sparse{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrShape, e.Row, e.Col, rows, cols)
		}
		if e.Val != 0 {
			s.rowPtr[e.Row+1]++
		}
	}
	for i := 0; i < rows; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	nnz := s.rowPtr[rows]
	s.colIdx = make([]int, nnz)
	s.val = make([]float64, nnz)
	next := make([]int, rows)
	copy(next, s.rowPtr[:rows])
	for _, e := range entries {
		if e.Val != 0 {
			s.colIdx[next[e.Row]] = e.Col
			s.val[next[e.Row]] = e.Val
			next[e.Row]++
		}
	}
	for i := 0; i < rows; i++ {
		row := rowSlice{s.colIdx[s.rowPtr[i]:s.rowPtr[i+1]], s.val[s.rowPtr[i]:s.rowPtr[i+1]]}
		if !sort.IsSorted(row) {
			// Columns are unique after the duplicate check below, so
			// the order is total and the sort deterministic.
			sort.Sort(row)
		}
		for k := 1; k < len(row.col); k++ {
			if row.col[k-1] == row.col[k] {
				return nil, fmt.Errorf("%w: duplicate entry (%d,%d)", ErrShape, i, row.col[k])
			}
		}
	}
	return s, nil
}

// rowSlice sorts one CSR row's entries by column.
type rowSlice struct {
	col []int
	val []float64
}

func (r rowSlice) Len() int           { return len(r.col) }
func (r rowSlice) Less(a, b int) bool { return r.col[a] < r.col[b] }
func (r rowSlice) Swap(a, b int) {
	r.col[a], r.col[b] = r.col[b], r.col[a]
	r.val[a], r.val[b] = r.val[b], r.val[a]
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored (nonzero) entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// Dense materializes the matrix back into dense row-major form.
//
//iclint:ignore deadexport dense view for the cross-package reference tests (routing, estimation dense_ref_test.go, bench_test.go)
func (s *Sparse) Dense() *Matrix {
	out := NewMatrix(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := out.Row(i)
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			row[s.colIdx[k]] = s.val[k]
		}
	}
	return out
}

// MulVec returns the matrix-vector product s * x.
func (s *Sparse) MulVec(x []float64) ([]float64, error) {
	if len(x) != s.cols {
		return nil, fmt.Errorf("%w: sparse mulvec %dx%d by vector of %d", ErrShape, s.rows, s.cols, len(x))
	}
	out := make([]float64, s.rows)
	s.MulVecTo(out, x)
	return out, nil
}

// MulVecTo computes dst = s * x without allocating. It panics on shape
// mismatch (the error-returning form is MulVec).
//
// The kernels below hold the CSR slices in locals and range over one
// row's colIdx[lo:hi] and val[lo:hi], so the inner loop reads no field
// through the receiver and keeps a bounds check only on the x[j]
// gather (TMulVecTo: the dst[j] scatter). Each row's terms are summed
// in stored order, the order every result of this repository is pinned
// in.
func (s *Sparse) MulVecTo(dst, x []float64) {
	if len(x) != s.cols || len(dst) != s.rows {
		panic(fmt.Sprintf("linalg: sparse MulVecTo %dx%d with x of %d, dst of %d", s.rows, s.cols, len(x), len(dst)))
	}
	rowPtr, colIdx, val := s.rowPtr, s.colIdx, s.val
	for i := range dst {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := colIdx[lo:hi], val[lo:hi]
		vals = vals[:len(cols)]
		var acc float64
		for p, j := range cols {
			acc += vals[p] * x[j]
		}
		dst[i] = acc
	}
}

// TMulVecTo computes dst = sᵀ * x without allocating, scattering each
// row with a nonzero x[i] into dst. It panics on shape mismatch.
func (s *Sparse) TMulVecTo(dst, x []float64) {
	if len(x) != s.rows || len(dst) != s.cols {
		panic(fmt.Sprintf("linalg: sparse TMulVecTo (%dx%d)ᵀ with x of %d, dst of %d", s.rows, s.cols, len(x), len(dst)))
	}
	clear(dst)
	rowPtr, colIdx, val := s.rowPtr, s.colIdx, s.val
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := colIdx[lo:hi], val[lo:hi]
		vals = vals[:len(cols)]
		for p, j := range cols {
			dst[j] += xi * vals[p]
		}
	}
}
