package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// relDiff returns ‖a − b‖ / max(‖b‖, 1e-30).
func relDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	den := Norm2(b)
	if den < 1e-30 {
		den = 1e-30
	}
	return Norm2(d) / den
}

// TestLSQRAgreesWithSolveMinNorm is the PR's core property test: on
// random sparse systems of every shape class (overdetermined,
// underdetermined, square, and explicitly rank-deficient via duplicated
// columns), LSQR must reproduce the dense-SVD minimum-norm least-squares
// solution to 1e-8 relative.
func TestLSQRAgreesWithSolveMinNorm(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 2 + r.Intn(30)
		n := 2 + r.Intn(30)
		a := randomSparseMatrix(r, m, n, 0.25)
		if trial%4 == 0 && n >= 2 {
			// Force rank deficiency: duplicate a column.
			src, dup := r.Intn(n), r.Intn(n)
			for i := 0; i < m; i++ {
				a.Set(i, dup, a.At(i, src))
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		want, err := SolveMinNorm(a, b, 0)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		got, rep, err := LSQR(sparseFromDense(a), b, LSQROptions{})
		if err != nil {
			t.Fatalf("trial %d: lsqr: %v", trial, err)
		}
		if !rep.Converged {
			t.Fatalf("trial %d (%dx%d): LSQR did not converge in %d iterations", trial, m, n, rep.Iterations)
		}
		// Compare through the residual map A·x (identical for every LS
		// solution) and directly (identical because both are minimum-norm).
		if d := relDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d (%dx%d): solution rel diff %g > 1e-8", trial, m, n, d)
		}
	}
}

func TestLSQRConsistentSystemExact(t *testing.T) {
	// On a consistent square well-conditioned system LSQR must return the
	// unique solution.
	a := fromRows([][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 5},
	})
	xTrue := []float64{1, -2, 3}
	b := mulVec(a, xTrue)
	x, rep, err := LSQR(sparseFromDense(a), b, LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("no convergence on a 3x3 SPD system")
	}
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
	if rep.ResidualNorm > 1e-9 {
		t.Errorf("residual norm %g on a consistent system", rep.ResidualNorm)
	}
}

func TestLSQRZeroRHS(t *testing.T) {
	a := randomSparseMatrix(rand.New(rand.NewSource(3)), 6, 4, 0.5)
	x, rep, err := LSQR(sparseFromDense(a), make([]float64, 6), LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Iterations != 0 {
		t.Errorf("zero rhs: report %+v", rep)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestLSQRShapeError(t *testing.T) {
	a := sparseFromDense(NewMatrix(3, 2))
	if _, _, err := LSQR(a, make([]float64, 5), LSQROptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestLSQRDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := sparseFromDense(randomSparseMatrix(r, 20, 15, 0.2))
	b := make([]float64, 20)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x1, rep1, err := LSQR(a, b, LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	x2, rep2, err := LSQR(a, b, LSQROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Errorf("reports differ: %+v vs %+v", rep1, rep2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Errorf("x[%d] differs bitwise: %g vs %g", i, x1[i], x2[i])
		}
	}
}

// TestFusedNormMatchesNorm2: LSQR forms each bidiagonalization update
// with updateMax, which folds Norm2's max pass into the update loop.
// The updated vector and normFromMax of the folded maximum must equal
// the unfused update and its Norm2 bit for bit, for every class of
// float an update can produce: zeros of both signs, mixed and all-
// negative signs, magnitudes near overflow and underflow, subnormals,
// NaN and ±Inf.
func TestFusedNormMatchesNorm2(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		a    []float64
	}{
		{"empty", nil},
		{"zero", []float64{0, 0, 0, 0}},
		{"signed-zero", []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		{"mixed", []float64{1.5, -2.25, 0.5, -3, 2.75}},
		{"negative", []float64{-1, -4, -2.5}},
		{"huge", []float64{1e300, -1e300, 3e299, -7e299}},
		{"tiny", []float64{1e-300, -1e-300, 4e-301}},
		{"subnormal", []float64{sub, -3 * sub, 2.5e-310, -1e-320}},
		{"nan", []float64{1, math.NaN(), -2}},
		{"nan-first", []float64{math.NaN(), 3, -4}},
		{"inf", []float64{1, math.Inf(1), -2}},
		{"neg-inf", []float64{math.Inf(-1), 2, -5}},
	}
	for _, c := range cases {
		// s = 0 leaves dst = a; the others mix in the previous dst.
		for _, s := range []float64{0, 0.5, -1e-3} {
			prev := make([]float64, len(c.a))
			for i := range prev {
				prev[i] = float64(i+1) * 0.125
				if i%2 == 1 {
					prev[i] = -prev[i]
				}
			}
			want := make([]float64, len(c.a))
			for i := range want {
				want[i] = c.a[i] - s*prev[i]
			}
			got := append([]float64(nil), prev...)
			norm := normFromMax(got, updateMax(got, c.a, s))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s s=%g: entry %d is %x, want %x", c.name, s, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if ref := Norm2(want); math.Float64bits(norm) != math.Float64bits(ref) {
				t.Errorf("%s s=%g: fused norm %g (%x), Norm2 %g (%x)", c.name, s, norm, math.Float64bits(norm), ref, math.Float64bits(ref))
			}
		}
	}
}

// TestLSQRWorkReuseBitwise: one LSQRWork carried across solves of
// different shapes, stalled and converged, must never change a result —
// buffers are fully overwritten before being read.
func TestLSQRWorkReuseBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	var wk LSQRWork
	for trial := 0; trial < 12; trial++ {
		m, n := 4+r.Intn(24), 4+r.Intn(24)
		s := sparseFromDense(randomSparseMatrix(r, m, n, 0.3))
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		opts := LSQROptions{MaxIter: []int{0, 1, 3}[trial%3]}
		want, wantRep, err := LSQR(s, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Work = &wk
		got, gotRep, err := LSQR(s, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gotRep != wantRep {
			t.Fatalf("trial %d: report %+v with reused work, fresh %+v", trial, gotRep, wantRep)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: work reuse changed x[%d]: %g vs %g", trial, j, got[j], want[j])
			}
		}
	}
}
