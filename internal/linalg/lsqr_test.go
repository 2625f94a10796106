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
