package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroFilled(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if got := m.At(2, 1); got != 6 {
		t.Errorf("At(2,1) = %g, want 6", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows: want a panic")
		}
	}()
	fromRows([][]float64{{1, 2}, {3}})
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	m := fromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("empty matrix shape = %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(3)
	want := fromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if !equal(id, want, 0) {
		t.Errorf("Identity(3) = %v", id)
	}
}

func TestSetGetRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("Set/At roundtrip failed")
	}
	copy(m.Row(0), []float64{1, 2, 3})
	if m.At(0, 2) != 3 || m.At(1, 2) != 7 {
		t.Errorf("column 2 = [%g %g], want [3 7]", m.At(0, 2), m.At(1, 2))
	}
	// Row shares storage.
	m.Row(0)[0] = 9
	if m.At(0, 0) != 9 {
		t.Error("Row must alias backing storage")
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulHandChecked(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if !equal(c, want, 1e-15) {
		t.Errorf("Mul = %v, want %v", c, want)
	}
}

func TestMulShapeError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("2x3 * 2x3: want a shape panic")
		}
	}()
	mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMulVecAndTMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if y := mulVec(a, []float64{1, 1, 1}); y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVecTo = %v, want [6 15]", y)
	}
	if z := tmulVec(a, []float64{1, 1}); z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Errorf("TMulVecTo = %v, want [5 7 9]", z)
	}
}

func randomMatrix(r *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.data {
		a.data[i] = r.NormFloat64()
	}
	return a
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestTransposeOfProduct(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		if !equal(mul(a, b).T(), mul(b.T(), a.T()), 1e-10) {
			t.Fatalf("trial %d: (AB)ᵀ != BᵀAᵀ", trial)
		}
	}
}

// Property: TMulVecTo(x) == T().MulVecTo(x).
func TestTMulVecMatchesTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := randomMatrix(r, m, n)
		x := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		if MaxAbsDiff(tmulVec(a, x), mulVec(a.T(), x)) > 1e-10 {
			t.Fatalf("trial %d: TMulVecTo mismatch", trial)
		}
	}
}

func TestAddSubScaleClone(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	if !equal(c, a, 0) {
		t.Errorf("Clone = %v, want %v", c, a)
	}
	c.Set(0, 0, 2)
	if a.At(0, 0) != 1 {
		t.Error("writing the clone mutated the original")
	}
}

func TestFrobAndMaxAbs(t *testing.T) {
	m := fromRows([][]float64{{3, 0}, {0, -4}})
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobNorm = %g, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %g, want 4", got)
	}
}

func TestStringElision(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Error("String of small matrix empty")
	}
	big := NewMatrix(20, 20)
	if s := big.String(); len(s) > 40 {
		t.Errorf("String of big matrix should be elided, got %q", s)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range must panic")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

// quick property: scaling by s multiplies the Frobenius norm by |s|.
func TestScaleFrobeniusQuick(t *testing.T) {
	f := func(vals [6]float64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e6 {
			return true
		}
		m := NewMatrix(2, 3)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			m.data[i] = v
		}
		before := m.FrobNorm()
		c := m.Clone()
		ScaleVec(s, c.data)
		after := c.FrobNorm()
		return math.Abs(after-math.Abs(s)*before) <= 1e-6*(1+after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
