// Package timeseries provides the periodic-waveform machinery used to
// characterize and synthesize activity series A_i(t): harmonic
// (cyclostationary) least-squares fits at a known fundamental period,
// energy decomposition, autocorrelation, and waveform synthesis. This is
// the "superposition of a limited number of periodic waveforms" model
// the paper cites for activity time series (Section 5.4).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrInput reports invalid analysis inputs.
var ErrInput = errors.New("timeseries: invalid input")

// Harmonic is one sinusoidal component at multiple m of the fundamental:
// A·cos(2π·m·t/period) + B·sin(2π·m·t/period).
type Harmonic struct {
	M    int
	A, B float64
}

// HarmonicModel is a mean level plus K harmonics of a fundamental period.
type HarmonicModel struct {
	Period    float64 // fundamental period in samples
	Mean      float64
	Harmonics []Harmonic
}

// FitHarmonics fits a harmonic model with harmonics 1..k of the given
// fundamental period (in samples) to xs by least squares. Because the
// fit uses explicit correlation sums it works for any series length,
// not just whole numbers of periods (the normal equations are solved
// implicitly via the near-orthogonality of the trigonometric basis,
// exact when len(xs) is a multiple of the period).
func FitHarmonics(xs []float64, period float64, k int) (*HarmonicModel, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empty series", ErrInput)
	}
	if period <= 1 {
		return nil, fmt.Errorf("%w: period %g", ErrInput, period)
	}
	if k < 0 || float64(k) >= period/2 {
		return nil, fmt.Errorf("%w: k=%d with period %g", ErrInput, k, period)
	}
	n := float64(len(xs))
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= n
	model := &HarmonicModel{Period: period, Mean: mean, Harmonics: make([]Harmonic, 0, k)}
	for m := 1; m <= k; m++ {
		w := 2 * math.Pi * float64(m) / period
		var ca, cb float64
		for t, v := range xs {
			ca += (v - mean) * math.Cos(w*float64(t))
			cb += (v - mean) * math.Sin(w*float64(t))
		}
		model.Harmonics = append(model.Harmonics, Harmonic{M: m, A: 2 * ca / n, B: 2 * cb / n})
	}
	return model, nil
}

// Eval returns the model value at (fractional) sample index t.
func (m *HarmonicModel) Eval(t float64) float64 {
	v := m.Mean
	for _, h := range m.Harmonics {
		w := 2 * math.Pi * float64(h.M) / m.Period
		v += h.A*math.Cos(w*t) + h.B*math.Sin(w*t)
	}
	return v
}

// PeriodicEnergyFraction returns the share of the series' variance
// captured by harmonics 1..k of the period — the quantitative form of
// "shows strong periodic behaviour". A constant series reports 0.
func PeriodicEnergyFraction(xs []float64, period float64, k int) (float64, error) {
	model, err := FitHarmonics(xs, period, k)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, v := range xs {
		d := v - model.Mean
		total += d * d
	}
	if total == 0 {
		return 0, nil
	}
	var explained float64
	for t, v := range xs {
		fit := model.Eval(float64(t)) - model.Mean
		d := v - model.Mean
		// Projection: explained energy is Σ fit·d (equals Σ fit² for an
		// exact orthogonal projection; using the cross term is robust to
		// the slight non-orthogonality of partial periods).
		explained += fit * d
	}
	frac := explained / total
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac, nil
}

// Autocorrelation returns the sample autocorrelation of xs at the given
// lag in [-1, 1]; a constant series reports 0.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag < 0 || lag >= len(xs) {
		return 0, fmt.Errorf("%w: lag %d for series of %d", ErrInput, lag, len(xs))
	}
	n := len(xs)
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var den float64
	for _, v := range xs {
		d := v - mean
		den += d * d
	}
	if den == 0 {
		return 0, nil
	}
	var num float64
	for t := 0; t+lag < n; t++ {
		num += (xs[t] - mean) * (xs[t+lag] - mean)
	}
	return num / den, nil
}

// DominantPeriod estimates the strongest periodicity of xs (in samples)
// by locating the highest autocorrelation peak over lags in
// [minLag, maxLag]. It returns the lag and its autocorrelation. A series
// with no positive-autocorrelation peak in range reports lag 0.
//
// This is how an analyst would *detect* the diurnal cycle in activity
// series rather than assuming the bin rate; Fig. 9's pipeline uses it
// as a cross-check.
func DominantPeriod(xs []float64, minLag, maxLag int) (int, float64, error) {
	if minLag < 1 || maxLag < minLag || maxLag >= len(xs) {
		return 0, 0, fmt.Errorf("%w: lags [%d, %d] for series of %d", ErrInput, minLag, maxLag, len(xs))
	}
	bestLag := 0
	bestR := 0.0
	prev := math.Inf(-1)
	rising := false
	for lag := minLag; lag <= maxLag; lag++ {
		r, err := Autocorrelation(xs, lag)
		if err != nil {
			return 0, 0, err
		}
		// Track local maxima of the autocorrelation curve; a plain
		// argmax would lock onto lag=minLag for slowly-decaying series.
		if r < prev && rising {
			// prev (at lag-1) was a local peak.
			if prev > bestR {
				bestR = prev
				bestLag = lag - 1
			}
		}
		rising = r > prev
		prev = r
	}
	// The last lag can be a peak too.
	if rising && prev > bestR {
		bestR = prev
		bestLag = maxLag
	}
	if bestR <= 0 {
		return 0, 0, nil
	}
	return bestLag, bestR, nil
}
