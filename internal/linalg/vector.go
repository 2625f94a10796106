package linalg

import "math"

// Dot returns the dot product of equal-length slices a and b.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// large magnitudes by scaling.
func Norm2(v []float64) float64 {
	var max float64
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	if max == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		t := x / max
		s += t * t
	}
	return max * math.Sqrt(s)
}

// ScaleVec multiplies v by s in place and returns v.
func ScaleVec(s float64, v []float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b. It panics on length mismatch.
//
//iclint:ignore deadexport comparison helper shared by the core, fit and linalg tests
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MaxAbsDiff length mismatch")
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
