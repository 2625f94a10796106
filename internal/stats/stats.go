// Package stats provides the descriptive statistics and distribution
// fitting used to characterize IC-model parameters (Section 5 of the
// paper): moments, quantiles, empirical CCDFs, correlation measures,
// maximum-likelihood fits for the exponential and lognormal families,
// and the Kolmogorov-Smirnov distance used to compare them.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Finite returns the elements of xs that are neither NaN nor ±Inf, in
// order. It returns xs itself (no copy) when every element is finite.
func Finite(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out := make([]float64, i, len(xs))
			copy(out, xs[:i])
			for _, y := range xs[i+1:] {
				if !math.IsNaN(y) && !math.IsInf(y, 0) {
					out = append(out, y)
				}
			}
			return out
		}
	}
	return xs
}

// FiniteMean returns the mean of the finite elements of xs and the
// number of NaN/±Inf elements that were dropped. A single undefined
// bin (e.g. a relative error against a zero-truth matrix) therefore
// cannot poison a whole mean-error report. The mean of an all-dropped
// (or empty) sample is 0, matching Mean.
func FiniteMean(xs []float64) (mean float64, dropped int) {
	f := Finite(xs)
	return Mean(f), len(xs) - len(f)
}

// Min returns the smallest element. It returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns ErrEmpty for empty
// input and clamps q into [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0], nil
	}
	if q >= 1 {
		return sorted[len(sorted)-1], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo], nil
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}

// Median returns the 0.5 quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Pearson returns the Pearson linear correlation coefficient of the
// paired samples. It returns 0 when either sample is constant and
// ErrEmpty on length mismatch or fewer than 2 pairs.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation of the paired samples
// (Pearson correlation of the ranks, with ties assigned mean ranks).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, ErrEmpty
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the (1-based, tie-averaged) ranks of xs.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Mean rank for the tie group [i, j].
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mean
		}
		i = j + 1
	}
	return ranks
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	X float64 // threshold
	P float64 // P[X > x], in (0, 1]
}

// CCDF returns the empirical complementary distribution function of xs
// evaluated at each distinct sample value: P[X > x] with X drawn from
// the sample. The result is sorted by X ascending.
func CCDF(xs []float64) []CCDFPoint {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []CCDFPoint
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		// Number of samples strictly greater than sorted[i].
		greater := n - j - 1
		out = append(out, CCDFPoint{X: sorted[i], P: float64(greater) / float64(n)})
		i = j + 1
	}
	return out
}
