package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ, where
// for an m x n input with m >= n, U is m x n with orthonormal columns,
// S has n non-negative entries in descending order, and V is n x n
// orthogonal. Inputs with m < n are handled by decomposing mᵀ.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// NewSVD computes the thin SVD of a using the one-sided Jacobi method,
// which is simple, numerically robust, and fast enough for the modest
// matrix sizes in this repository (at most a few hundred per side).
func NewSVD(a *Matrix) (*SVD, error) {
	m, n := a.Rows(), a.Cols()
	if m == 0 || n == 0 {
		return &SVD{U: NewMatrix(m, 0), S: nil, V: NewMatrix(n, 0)}, nil
	}
	if m < n {
		// Decompose Aᵀ = U'·S·V'ᵀ, so A = V'·S·U'ᵀ.
		st, err := NewSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: st.V, S: st.S, V: st.U}, nil
	}

	// Work on a copy; columns of `work` converge to U·diag(S).
	work := a.Clone()
	v := Identity(n)

	const (
		maxSweeps = 60
		tol       = 1e-13
	)
	// Scale tolerance by the Frobenius norm so convergence is relative.
	fro := work.FrobNorm()
	if fro == 0 {
		// Zero matrix: S = 0, U = first n columns of identity.
		u := NewMatrix(m, n)
		for i := 0; i < n; i++ {
			u.Set(i, i, 1)
		}
		return &SVD{U: u, S: make([]float64, n), V: v}, nil
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Gram entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					cp := work.At(i, p)
					cq := work.At(i, q)
					app += cp * cp
					aqq += cq * cq
					apq += cp * cq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
					continue
				}
				if math.Abs(apq) > off {
					off = math.Abs(apq)
				}
				// Jacobi rotation zeroing the (p,q) Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					cp := work.At(i, p)
					cq := work.At(i, q)
					work.Set(i, p, c*cp-s*cq)
					work.Set(i, q, s*cp+c*cq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off <= tol*fro*fro {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, fmt.Errorf("linalg: Jacobi SVD did not converge in %d sweeps (off=%g)", maxSweeps, off)
		}
	}

	// Extract singular values and normalize U's columns.
	s := make([]float64, n)
	u := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		var nrm float64
		for i := 0; i < m; i++ {
			nrm = math.Hypot(nrm, work.At(i, j))
		}
		s[j] = nrm
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, work.At(i, j)/nrm)
			}
		}
	}

	// Sort descending by singular value, permuting U and V consistently.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	us := NewMatrix(m, n)
	vs := NewMatrix(n, n)
	ss := make([]float64, n)
	for newj, oldj := range idx {
		ss[newj] = s[oldj]
		for i := 0; i < m; i++ {
			us.Set(i, newj, u.At(i, oldj))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, newj, v.At(i, oldj))
		}
	}
	return &SVD{U: us, S: ss, V: vs}, nil
}

// Rank returns the numerical rank at relative tolerance rtol (singular
// values below rtol * S[0] count as zero). A non-positive rtol uses a
// machine-precision default.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (d *SVD) Rank(rtol float64) int {
	if len(d.S) == 0 || d.S[0] == 0 {
		return 0
	}
	if rtol <= 0 {
		rtol = 1e-12
	}
	cut := rtol * d.S[0]
	r := 0
	for _, v := range d.S {
		if v > cut {
			r++
		}
	}
	return r
}

// Cond returns the 2-norm condition number S[0]/S[last]; +Inf when the
// smallest singular value is zero.
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (d *SVD) Cond() float64 {
	if len(d.S) == 0 {
		return 0
	}
	smin := d.S[len(d.S)-1]
	if smin == 0 {
		return math.Inf(1)
	}
	return d.S[0] / smin
}
