package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot length mismatch must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-14 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %g, want 0", got)
	}
	// Overflow guard: plain sum-of-squares would overflow here.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Errorf("Norm2 overflow guard failed: %g", got)
	}
}

func TestAddSubCloneVec(t *testing.T) {
	a := []float64{1, 2}
	c := CloneVec(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("CloneVec must copy")
	}
}

func TestScaleVecMaxAbsDiff(t *testing.T) {
	v := ScaleVec(3, []float64{1, -2})
	if v[0] != 3 || v[1] != -6 {
		t.Errorf("ScaleVec = %v", v)
	}
	if d := MaxAbsDiff([]float64{1, 2}, []float64{1.5, 1}); d != 1 {
		t.Errorf("MaxAbsDiff = %g, want 1", d)
	}
}

// quick property: triangle inequality for Norm2.
func TestTriangleInequalityQuick(t *testing.T) {
	f := func(a, b [5]float64) bool {
		for i := 0; i < 5; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			if math.Abs(a[i]) > 1e8 || math.Abs(b[i]) > 1e8 {
				return true
			}
		}
		var s [5]float64
		for i := range s {
			s[i] = a[i] + b[i]
		}
		return Norm2(s[:]) <= Norm2(a[:])+Norm2(b[:])+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quick property: Cauchy-Schwarz |a·b| <= ||a||·||b||.
func TestCauchySchwarzQuick(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for i := 0; i < 4; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			if math.Abs(a[i]) > 1e8 || math.Abs(b[i]) > 1e8 {
				return true
			}
		}
		lhs := math.Abs(Dot(a[:], b[:]))
		rhs := Norm2(a[:]) * Norm2(b[:])
		return lhs <= rhs*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
