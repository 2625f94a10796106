package linalg

// PInv returns the Moore-Penrose pseudo-inverse of a, computed from the
// Jacobi SVD with singular values below rtol * s_max treated as zero.
// A non-positive rtol selects a machine-precision default.
func PInv(a *Matrix, rtol float64) (*Matrix, error) {
	d, err := NewSVD(a)
	if err != nil {
		return nil, err
	}
	if rtol <= 0 {
		rtol = 1e-12
	}
	m, n := a.Rows(), a.Cols()
	out := NewMatrix(n, m)
	if len(d.S) == 0 || d.S[0] == 0 {
		return out, nil // pseudo-inverse of the zero matrix is zero
	}
	cut := rtol * d.S[0]
	// A⁺ = V · diag(1/s) · Uᵀ, summing rank-1 terms v_k (1/s_k) u_kᵀ.
	for k, s := range d.S {
		if s <= cut {
			continue
		}
		inv := 1 / s
		for i := 0; i < n; i++ {
			vik := d.V.At(i, k) * inv
			if vik == 0 {
				continue
			}
			row := out.Row(i)
			for j := 0; j < m; j++ {
				row[j] += vik * d.U.At(j, k)
			}
		}
	}
	return out, nil
}

// SolveMinNorm returns the minimum-norm least-squares solution of
// A·x = b, i.e. A⁺·b, without forming A⁺ explicitly. It is NewSVD
// followed by (*SVD).SolveMinNorm; callers solving many right-hand
// sides against one A should decompose once and keep the SVD.
func SolveMinNorm(a *Matrix, b []float64, rtol float64) ([]float64, error) {
	d, err := NewSVD(a)
	if err != nil {
		return nil, err
	}
	return d.SolveMinNorm(b, rtol)
}

// SolveMinNorm returns A⁺·b for the decomposed A = U·diag(S)·Vᵀ,
// singular values below rtol * S[0] treated as zero (a non-positive
// rtol selects a machine-precision default). It reads the receiver
// only, so one SVD may serve concurrent solves.
func (d *SVD) SolveMinNorm(b []float64, rtol float64) ([]float64, error) {
	if len(b) != d.U.Rows() {
		return nil, ErrShape
	}
	if rtol <= 0 {
		rtol = 1e-12
	}
	n := d.V.Rows()
	x := make([]float64, n)
	if len(d.S) == 0 || d.S[0] == 0 {
		return x, nil
	}
	cut := rtol * d.S[0]
	for k, s := range d.S {
		if s <= cut {
			continue
		}
		// coefficient = (u_k · b) / s_k
		var ub float64
		for j := 0; j < len(b); j++ {
			ub += d.U.At(j, k) * b[j]
		}
		coef := ub / s
		for i := 0; i < n; i++ {
			x[i] += coef * d.V.At(i, k)
		}
	}
	return x, nil
}
