package linalg

import (
	"fmt"
	"sort"
	"sync"
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

	// trOnce/tr lazily cache the transpose in CSR form the first time
	// LSQRMulti needs it, turning the blocked transpose product into a
	// gather with register accumulators instead of a scatter. The cache
	// keeps Sparse's concurrency contract: it is built at most once and
	// never mutated afterwards.
	trOnce sync.Once
	tr     *Sparse
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
// counts exactly the nonzero entries; entries are sorted by
// (row, col), so the stored order — and therefore every accumulation
// order downstream — is independent of input order. Out-of-range and
// duplicate (row, col) entries are errors: the callers of this
// repository never legitimately produce them, and summing duplicates
// would make float results depend on input order.
func NewSparse(rows, cols int, entries []Coord) (*Sparse, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: sparse %dx%d", ErrShape, rows, cols)
	}
	kept := make([]Coord, 0, len(entries))
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrShape, e.Row, e.Col, rows, cols)
		}
		if e.Val != 0 {
			kept = append(kept, e)
		}
	}
	// (row, col) pairs are unique after the duplicate check below, so this
	// comparison is a strict total order and the sort is deterministic.
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].Row != kept[b].Row {
			return kept[a].Row < kept[b].Row
		}
		return kept[a].Col < kept[b].Col
	})
	s := &Sparse{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, len(kept)),
		val:    make([]float64, len(kept)),
	}
	for k, e := range kept {
		if k > 0 && kept[k-1].Row == e.Row && kept[k-1].Col == e.Col {
			return nil, fmt.Errorf("%w: duplicate entry (%d,%d)", ErrShape, e.Row, e.Col)
		}
		s.colIdx[k] = e.Col
		s.val[k] = e.Val
	}
	row := 0
	for k, e := range kept {
		for row < e.Row {
			row++
			s.rowPtr[row] = k
		}
	}
	for row < rows {
		row++
		s.rowPtr[row] = len(kept)
	}
	return s, nil
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
func (s *Sparse) MulVecTo(dst, x []float64) {
	if len(x) != s.cols || len(dst) != s.rows {
		panic(fmt.Sprintf("linalg: sparse MulVecTo %dx%d with x of %d, dst of %d", s.rows, s.cols, len(x), len(dst)))
	}
	for i := 0; i < s.rows; i++ {
		var acc float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			acc += s.val[k] * x[s.colIdx[k]]
		}
		dst[i] = acc
	}
}

// transpose returns the cached CSR form of sᵀ, building it on first use.
// Entries of transpose row j are ordered by ascending original row —
// the same order in which TMulVecTo's scatter touches output j.
func (s *Sparse) transpose() *Sparse {
	s.trOnce.Do(func() {
		t := &Sparse{
			rows:   s.cols,
			cols:   s.rows,
			rowPtr: make([]int, s.cols+1),
			colIdx: make([]int, len(s.val)),
			val:    make([]float64, len(s.val)),
		}
		for _, j := range s.colIdx {
			t.rowPtr[j+1]++
		}
		for j := 0; j < s.cols; j++ {
			t.rowPtr[j+1] += t.rowPtr[j]
		}
		next := make([]int, s.cols)
		copy(next, t.rowPtr[:s.cols])
		for i := 0; i < s.rows; i++ {
			for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
				j := s.colIdx[p]
				t.colIdx[next[j]] = i
				t.val[next[j]] = s.val[p]
				next[j]++
			}
		}
		s.tr = t
	})
	return s.tr
}

// TMulVecTo computes dst = sᵀ * x without allocating. It panics on shape
// mismatch.
func (s *Sparse) TMulVecTo(dst, x []float64) {
	if len(x) != s.rows || len(dst) != s.cols {
		panic(fmt.Sprintf("linalg: sparse TMulVecTo (%dx%d)ᵀ with x of %d, dst of %d", s.rows, s.cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += xi * s.val[k]
		}
	}
}
