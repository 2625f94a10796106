package core

import (
	"fmt"
	"math"

	"ictm/internal/linalg"
)

// Phi builds the n² x n linear operator of eq. 7: for fixed f and
// (normalized) preferences p, the model is linear in the activities,
// vec(X) = Φ·A, with
//
//	Φ[(i,j), k] = f·p_j·δ_{ki} + (1-f)·p_i·δ_{kj}
//
// Rows are ordered by the row-major OD pair index (see tm.PairIndex).
func Phi(f float64, pref []float64) (*linalg.Matrix, error) {
	n := len(pref)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty preference vector", ErrParams)
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return nil, fmt.Errorf("%w: f = %g", ErrParams, f)
	}
	var sum float64
	for i, v := range pref {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: Pref[%d] = %g", ErrParams, i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: preference sum %g", ErrParams, sum)
	}
	phi := linalg.NewMatrix(n*n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row := phi.Row(i*n + j)
			row[i] += f * pref[j] / sum
			row[j] += (1 - f) * pref[i] / sum
		}
	}
	return phi, nil
}

// ActivityFromMarginals implements eq. 8: estimate the per-bin activities
// from ingress and egress node counts alone, given known (f, P). With
// Q the 2n x n² ingress/egress aggregation operator, QΦ is 2n x n and
//
//	Ã = (QΦ)⁺ · [ingress; egress]
//
// Since Q·vec(X) is exactly [ingress; egress], QΦ has the closed form
// derived from the model marginals:
//
//	(QΦ)[i, k]      = f·δ_{ki} + (1-f)·p_i     (ingress rows)
//	(QΦ)[n+i, k]    = f·p_i    + (1-f)·δ_{ki}  (egress rows)
//
// The function returns the estimated activities for one bin; callers
// looping over bins with a fixed (f, P) should build an ActivityInverse
// once instead, which gives bitwise the same result without repeating
// the decomposition. Negative estimates (possible under noise) are
// clamped to 0.
func ActivityFromMarginals(f float64, pref, ingress, egress []float64) ([]float64, error) {
	inv, err := NewActivityInverse(f, pref)
	if err != nil {
		return nil, err
	}
	return inv.Activities(ingress, egress)
}

// ActivityInverse is the eq. 8 operator (QΦ)⁺ for one fixed (f, P),
// held as the SVD of QΦ: the decomposition depends on (f, P) only, so
// it is paid once and every bin costs two dense 2n x n passes. It is
// immutable after construction and safe for concurrent use.
type ActivityInverse struct {
	n   int
	svd *linalg.SVD
}

// NewActivityInverse decomposes QΦ for the given (f, P), failing with
// ErrParams on invalid parameters.
func NewActivityInverse(f float64, pref []float64) (*ActivityInverse, error) {
	qphi, err := QPhi(f, pref)
	if err != nil {
		return nil, err
	}
	svd, err := linalg.NewSVD(qphi)
	if err != nil {
		return nil, fmt.Errorf("core: activity pinv solve: %w", err)
	}
	return &ActivityInverse{n: len(pref), svd: svd}, nil
}

// Activities returns one bin's eq. 8 activity estimate from its ingress
// and egress node counts, negatives clamped to 0.
func (inv *ActivityInverse) Activities(ingress, egress []float64) ([]float64, error) {
	n := inv.n
	if len(ingress) != n || len(egress) != n {
		return nil, fmt.Errorf("%w: marginals %d/%d for n=%d", ErrParams, len(ingress), len(egress), n)
	}
	b := make([]float64, 2*n)
	copy(b[:n], ingress)
	copy(b[n:], egress)
	a, err := inv.svd.SolveMinNorm(b, 0)
	if err != nil {
		return nil, fmt.Errorf("core: activity pinv solve: %w", err)
	}
	for i, v := range a {
		if v < 0 {
			a[i] = 0
		}
	}
	return a, nil
}

// QPhi returns the 2n x n matrix Q·Φ used by eq. 8, built directly from
// its closed form rather than by multiplying the explicit Q and Φ.
func QPhi(f float64, pref []float64) (*linalg.Matrix, error) {
	n := len(pref)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty preference vector", ErrParams)
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return nil, fmt.Errorf("%w: f = %g", ErrParams, f)
	}
	var sum float64
	for i, v := range pref {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: Pref[%d] = %g", ErrParams, i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: preference sum %g", ErrParams, sum)
	}
	out := linalg.NewMatrix(2*n, n)
	for i := 0; i < n; i++ {
		pi := pref[i] / sum
		ingRow := out.Row(i)
		egRow := out.Row(n + i)
		for k := 0; k < n; k++ {
			ingRow[k] = (1 - f) * pi
			egRow[k] = f * pi
		}
		ingRow[i] += f
		egRow[i] += 1 - f
	}
	return out, nil
}

// MarginalInversion implements the stable-f closed forms of eqs. 11-12:
// given only the network-wide f and one bin's ingress/egress counts,
// recover activity and preference estimates:
//
//	Ã_i         = (f·X_i* − (1−f)·X_*i) / (2f − 1)
//	P̃_i (∝)     = (f·X_*i − (1−f)·X_i*) / (2f − 1)
//
// Preferences are returned normalized to sum to one. Negative estimates
// (possible under noise or model mismatch) are clamped to zero before
// normalization. It returns ErrSingularF when |2f−1| is negligible.
func MarginalInversion(f float64, ingress, egress []float64) (activity, pref []float64, err error) {
	n := len(ingress)
	if n == 0 || len(egress) != n {
		return nil, nil, fmt.Errorf("%w: marginals %d/%d", ErrParams, len(ingress), len(egress))
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return nil, nil, fmt.Errorf("%w: f = %g", ErrParams, f)
	}
	den := 2*f - 1
	if math.Abs(den) < 1e-9 {
		return nil, nil, ErrSingularF
	}
	activity = make([]float64, n)
	pref = make([]float64, n)
	var psum float64
	for i := 0; i < n; i++ {
		a := (f*ingress[i] - (1-f)*egress[i]) / den
		if a < 0 {
			a = 0
		}
		activity[i] = a
		p := (f*egress[i] - (1-f)*ingress[i]) / den
		if p < 0 {
			p = 0
		}
		pref[i] = p
		psum += p
	}
	if psum > 0 {
		for i := range pref {
			pref[i] /= psum
		}
	} else {
		// Degenerate fallback: uniform preferences keep the model evaluable.
		for i := range pref {
			pref[i] = 1 / float64(n)
		}
	}
	return activity, pref, nil
}

// ConditionalEgressProb returns P[E = j | I = i] for the traffic
// matrix x: the fraction of traffic entering at i that leaves at j.
// It is the quantity the paper's Figure 2 example uses to show that
// packet-level independence fails under the IC model. Returns 0 when
// node i has no ingress traffic.
func ConditionalEgressProb(x interface {
	At(i, j int) float64
	N() int
}, i, j int) float64 {
	n := x.N()
	var rowSum float64
	for k := 0; k < n; k++ {
		rowSum += x.At(i, k)
	}
	if rowSum == 0 {
		return 0
	}
	return x.At(i, j) / rowSum
}
