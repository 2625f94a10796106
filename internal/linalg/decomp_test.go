package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPD returns a random symmetric positive-definite n x n matrix.
func randomSPD(r *rand.Rand, n int) *Matrix {
	a := randomMatrix(r, n+2, n) // extra rows guarantee full column rank w.h.p.
	spd := a.AtA()
	for i := 0; i < n; i++ {
		spd.Add(i, i, 0.5) // bound away from singularity
	}
	return spd
}

func TestCholeskyHandChecked(t *testing.T) {
	// A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt2]]
	a, _ := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	if math.Abs(l.At(0, 0)-2) > 1e-14 || math.Abs(l.At(1, 0)-1) > 1e-14 ||
		math.Abs(l.At(1, 1)-math.Sqrt2) > 1e-14 || l.At(0, 1) != 0 {
		t.Errorf("L = %v", l)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(15)
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		l := ch.L()
		llt, _ := l.Mul(l.T())
		if !llt.Equal(a, 1e-9*a.MaxAbs()) {
			t.Fatalf("trial %d: L·Lᵀ != A", trial)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(15)
		a := randomSPD(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b, _ := a.MulVec(want)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if MaxAbsDiff(got, want) > 1e-7 {
			t.Fatalf("trial %d: solve error %g", trial, MaxAbsDiff(got, want))
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("indefinite matrix: err = %v, want ErrSingular", err)
	}
}

func TestCholeskyRidgeRecovers(t *testing.T) {
	// Singular PSD matrix; the ridge retry should succeed.
	a, _ := NewMatrixFromRows([][]float64{{1, 1}, {1, 1}})
	ch, err := NewCholeskyRidge(a, 1e-8)
	if err != nil {
		t.Fatalf("ridge failed: %v", err)
	}
	if _, err := ch.Solve([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveMatrix(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewMatrixFromRows([][]float64{{0.25, 0}, {0, 1.0 / 9}})
	if !x.Equal(want, 1e-14) {
		t.Errorf("A⁻¹ = %v, want %v", x, want)
	}
}

func TestQRReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		m := 2 + r.Intn(15)
		n := 1 + r.Intn(m)
		a := randomMatrix(r, m, n)
		qr, err := NewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		q := qr.Q()
		rr := qr.R()
		prod, _ := q.Mul(rr)
		if !prod.Equal(a, 1e-9) {
			t.Fatalf("trial %d: Q·R != A (err %g)", trial, prod.MaxAbs())
		}
		// Q orthonormal columns.
		qtq := q.AtA()
		if !qtq.Equal(Identity(n), 1e-9) {
			t.Fatalf("trial %d: QᵀQ != I", trial)
		}
	}
}

func TestQRSolveMatchesResidualOrthogonality(t *testing.T) {
	// At the LS optimum the residual is orthogonal to the column space.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m := 5 + r.Intn(15)
		n := 1 + r.Intn(4)
		a := randomMatrix(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		qr, err := NewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		x, err := qr.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		res := SubVec(b, ax)
		atr, _ := a.TMulVec(res)
		if Norm2(atr) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: Aᵀr = %g not ~0", trial, Norm2(atr))
		}
	}
}

func TestQRRankDeficiency(t *testing.T) {
	// Second column is a multiple of the first.
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if qr.FullRank() {
		t.Error("rank-1 matrix reported full rank")
	}
	if _, err := qr.Solve([]float64{1, 1, 1}); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve on rank-deficient: err = %v, want ErrSingular", err)
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("QR of wide matrix must fail with ErrShape")
	}
}

func TestSVDHandChecked(t *testing.T) {
	// diag(3, 2) has singular values 3, 2.
	a := Diag([]float64{3, 2})
	d, err := NewSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.S[0]-3) > 1e-12 || math.Abs(d.S[1]-2) > 1e-12 {
		t.Errorf("S = %v, want [3 2]", d.S)
	}
}

func svdReconstruct(d *SVD) *Matrix {
	us := d.U.Clone()
	for j, s := range d.S {
		for i := 0; i < us.Rows(); i++ {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	out, _ := us.Mul(d.V.T())
	return out
}

func TestSVDReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(15)
		n := 1 + r.Intn(15)
		a := randomMatrix(r, m, n)
		d, err := NewSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		if !svdReconstruct(d).Equal(a, 1e-9) {
			t.Fatalf("trial %d: U·S·Vᵀ != A (%dx%d)", trial, m, n)
		}
		// Descending order.
		for k := 1; k < len(d.S); k++ {
			if d.S[k] > d.S[k-1]+1e-12 {
				t.Fatalf("trial %d: S not descending: %v", trial, d.S)
			}
		}
		// Orthonormality.
		if !d.U.AtA().Equal(Identity(d.U.Cols()), 1e-9) {
			t.Fatalf("trial %d: UᵀU != I", trial)
		}
		if !d.V.AtA().Equal(Identity(d.V.Cols()), 1e-9) {
			t.Fatalf("trial %d: VᵀV != I", trial)
		}
	}
}

func TestSVDZeroAndEmpty(t *testing.T) {
	d, err := NewSVD(NewMatrix(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d.S[0] != 0 || d.S[1] != 0 {
		t.Errorf("S of zero matrix = %v", d.S)
	}
	if d.Rank(0) != 0 {
		t.Errorf("rank of zero matrix = %d", d.Rank(0))
	}
	if _, err := NewSVD(NewMatrix(0, 0)); err != nil {
		t.Errorf("SVD of empty: %v", err)
	}
}

func TestSVDRankAndCond(t *testing.T) {
	a := Diag([]float64{4, 2, 0})
	d, err := NewSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Rank(0); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
	if !math.IsInf(d.Cond(), 1) {
		t.Errorf("Cond = %g, want +Inf", d.Cond())
	}
}

func penroseCheck(t *testing.T, a, ap *Matrix, tol float64) {
	t.Helper()
	// 1. A·A⁺·A = A
	aap, _ := a.Mul(ap)
	aapa, _ := aap.Mul(a)
	if !aapa.Equal(a, tol) {
		t.Error("Penrose 1 failed: A·A⁺·A != A")
	}
	// 2. A⁺·A·A⁺ = A⁺
	apa, _ := ap.Mul(a)
	apaap, _ := apa.Mul(ap)
	if !apaap.Equal(ap, tol) {
		t.Error("Penrose 2 failed: A⁺·A·A⁺ != A⁺")
	}
	// 3. (A·A⁺)ᵀ = A·A⁺
	if !aap.T().Equal(aap, tol) {
		t.Error("Penrose 3 failed: A·A⁺ not symmetric")
	}
	// 4. (A⁺·A)ᵀ = A⁺·A
	if !apa.T().Equal(apa, tol) {
		t.Error("Penrose 4 failed: A⁺·A not symmetric")
	}
}

func TestPInvPenroseConditions(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		m := 1 + r.Intn(10)
		n := 1 + r.Intn(10)
		a := randomMatrix(r, m, n)
		ap, err := PInv(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		penroseCheck(t, a, ap, 1e-8)
	}
}

func TestPInvRankDeficient(t *testing.T) {
	// Rank-1 matrix: pinv must still satisfy Penrose conditions.
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	ap, err := PInv(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	penroseCheck(t, a, ap, 1e-10)
}

func TestSolveMinNormMatchesPInv(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 15; trial++ {
		m := 1 + r.Intn(8)
		n := 1 + r.Intn(8)
		a := randomMatrix(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ap, err := PInv(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ap.MulVec(b)
		got, err := SolveMinNorm(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if MaxAbsDiff(got, want) > 1e-8 {
			t.Fatalf("trial %d: min-norm mismatch %g", trial, MaxAbsDiff(got, want))
		}
	}
}

// TestSVDSolveMinNormReusesDecomposition: one decomposition serves any
// number of right-hand sides, each bitwise equal to the one-shot
// SolveMinNorm that decomposes afresh, and solving never mutates the
// receiver — on tall, wide, rank-deficient and zero matrices.
func TestSVDSolveMinNormReusesDecomposition(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rankOne, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {-1, -2, -3}, {3, 6, 9}})
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"tall", randomMatrix(r, 9, 4)},
		{"wide", randomMatrix(r, 3, 7)},
		{"rank-deficient", rankOne},
		{"zero", NewMatrix(5, 3)},
	}
	for _, tc := range cases {
		d, err := NewSVD(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rhs := 0; rhs < 3; rhs++ {
			b := make([]float64, tc.a.Rows())
			for i := range b {
				b[i] = r.NormFloat64()
			}
			want, err := SolveMinNorm(tc.a, b, 0)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for call := 0; call < 2; call++ {
				got, err := d.SolveMinNorm(b, 0)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s rhs %d call %d: x[%d] = %v, want %v", tc.name, rhs, call, i, got[i], want[i])
					}
				}
			}
		}
		if _, err := d.SolveMinNorm(make([]float64, tc.a.Rows()+1), 0); !errors.Is(err, ErrShape) {
			t.Errorf("%s: mis-sized b: err = %v, want ErrShape", tc.name, err)
		}
	}
}

func TestLstSqConsistentSystem(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	want := []float64{2, 3}
	b, _ := a.MulVec(want)
	got, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(got, want) > 1e-10 {
		t.Errorf("LstSq = %v, want %v", got, want)
	}
}

func TestLstSqUnderdetermined(t *testing.T) {
	// Wide system: 1x2. Minimum-norm solution of x+y=2 is (1,1).
	a, _ := NewMatrixFromRows([][]float64{{1, 1}})
	got, err := LstSq(a, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(got, []float64{1, 1}) > 1e-10 {
		t.Errorf("LstSq underdetermined = %v, want [1 1]", got)
	}
}

func TestSolveSPD(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	b := []float64{3, 3}
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(x, []float64{1, 1}) > 1e-10 {
		t.Errorf("SolveSPD = %v, want [1 1]", x)
	}
}

func TestNNLSClampInteriorOptimum(t *testing.T) {
	// Unconstrained optimum already non-negative: NNLS equals plain solve.
	a, _ := NewMatrixFromRows([][]float64{{2, 0}, {0, 2}})
	x, err := NNLSClamp(a, []float64{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(x, []float64{1, 2}) > 1e-10 {
		t.Errorf("NNLSClamp = %v, want [1 2]", x)
	}
}

func TestNNLSClampActiveSet(t *testing.T) {
	// min ||x - (-1, 2)||² s.t. x >= 0 has solution (0, 2).
	ata := Identity(2)
	x, err := NNLSClamp(ata, []float64{-1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(x, []float64{0, 2}) > 1e-10 {
		t.Errorf("NNLSClamp = %v, want [0 2]", x)
	}
	for _, v := range x {
		if v < 0 {
			t.Error("NNLSClamp returned negative coordinate")
		}
	}
}

func TestNNLSClampAllClamped(t *testing.T) {
	ata := Identity(2)
	x, err := NNLSClamp(ata, []float64{-1, -2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("NNLSClamp = %v, want zeros", x)
	}
}

func TestCondFinite(t *testing.T) {
	d, err := NewSVD(Diag([]float64{4, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Cond(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Cond = %g, want 2", got)
	}
	empty, err := NewSVD(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Cond() != 0 {
		t.Errorf("Cond of empty = %g", empty.Cond())
	}
}
