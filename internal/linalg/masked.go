package linalg

import "fmt"

// RowMasked wraps an operator with a row mask: dropped rows behave as
// all-zero rows of A, so a least-squares solve against the wrapper sees
// a system from which those equations have been removed — without
// rebuilding the CSR structure per bin. It is the estimation layer's
// masked-solve primitive for bins with missing or invalid link reports.
//
// The masked view is bitwise-equivalent to physically compacting the
// kept rows into a smaller matrix: a zeroed row contributes exact 0.0
// terms to every accumulation (x + 0.0 == x for finite x), Sparse's
// TMulVecTo skips zero entries of its input outright, and the relative
// order of the surviving terms is unchanged — so LSQR's recurrences,
// and therefore its solution, match the compacted system bit for bit
// (asserted by tests). That property is what keeps degraded bins inside
// the pipeline's workers=1 ≡ workers=N determinism contract.
//
// Like ColScaled, the wrapper allocates one scratch vector at
// construction and is therefore NOT safe for concurrent use; create one
// per solve (they are cheap).
type RowMasked struct {
	a       Op
	keep    []bool
	scratch []float64
}

// NewRowMasked wraps a with a row mask: keep[i] == false drops row i.
// It panics when the mask does not match a's row count.
func NewRowMasked(a Op, keep []bool) *RowMasked {
	if len(keep) != a.Rows() {
		panic(fmt.Sprintf("linalg: RowMasked with %d mask entries for %d rows", len(keep), a.Rows()))
	}
	return &RowMasked{a: a, keep: keep, scratch: make([]float64, a.Rows())}
}

// Rows returns the wrapped operator's row count (the mask hides rows,
// it does not renumber them).
func (m *RowMasked) Rows() int { return m.a.Rows() }

// Cols returns the wrapped operator's column count.
func (m *RowMasked) Cols() int { return m.a.Cols() }

// MulVecTo computes dst = A·x with dropped rows forced to zero.
func (m *RowMasked) MulVecTo(dst, x []float64) {
	m.a.MulVecTo(dst, x)
	dst = dst[:len(m.keep)]
	for i, k := range m.keep {
		if !k {
			dst[i] = 0
		}
	}
}

// TMulVecTo computes dst = Aᵀ·x as if dropped rows of A were zero: their
// x entries are zeroed before the Aᵀ product, so they contribute
// nothing to any column accumulation.
func (m *RowMasked) TMulVecTo(dst, x []float64) {
	x, scratch := x[:len(m.keep)], m.scratch[:len(m.keep)]
	for i, k := range m.keep {
		if k {
			scratch[i] = x[i]
		} else {
			scratch[i] = 0
		}
	}
	m.a.TMulVecTo(dst, m.scratch)
}
