package linalg

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
