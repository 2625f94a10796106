package timeseries

import (
	"errors"
	"math"
	"testing"

	"ictm/internal/rng"
)

func sineSeries(n int, period float64, amp, mean float64) []float64 {
	out := make([]float64, n)
	for t := range out {
		out[t] = mean + amp*math.Sin(2*math.Pi*float64(t)/period)
	}
	return out
}

func TestFitHarmonicsRecoversPureSine(t *testing.T) {
	xs := sineSeries(288, 288, 3, 10)
	m, err := FitHarmonics(xs, 288, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean-10) > 1e-9 {
		t.Errorf("mean = %g, want 10", m.Mean)
	}
	// First harmonic sin coefficient = 3, everything else ~0.
	if math.Abs(m.Harmonics[0].B-3) > 1e-9 || math.Abs(m.Harmonics[0].A) > 1e-9 {
		t.Errorf("h1 = %+v, want B=3 A=0", m.Harmonics[0])
	}
	if h := m.Harmonics[1]; math.Hypot(h.A, h.B) > 1e-9 {
		t.Errorf("h2 amplitude = %g, want 0", math.Hypot(h.A, h.B))
	}
}

func TestEvalMatchesSource(t *testing.T) {
	xs := sineSeries(288, 96, 2, 5)
	m, err := FitHarmonics(xs, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []int{0, 17, 100, 287} {
		if d := math.Abs(m.Eval(float64(tt)) - xs[tt]); d > 1e-9 {
			t.Errorf("Eval(%d) off by %g", tt, d)
		}
	}
	syn := synthesize(m, 10)
	if len(syn) != 10 || math.Abs(syn[0]-xs[0]) > 1e-9 {
		t.Errorf("Synthesize mismatch")
	}
}

func TestFitHarmonicsErrors(t *testing.T) {
	if _, err := FitHarmonics(nil, 10, 1); !errors.Is(err, ErrInput) {
		t.Error("empty series must fail")
	}
	if _, err := FitHarmonics([]float64{1, 2}, 0.5, 1); !errors.Is(err, ErrInput) {
		t.Error("period <= 1 must fail")
	}
	if _, err := FitHarmonics(sineSeries(20, 10, 1, 0), 10, 5); !errors.Is(err, ErrInput) {
		t.Error("k beyond Nyquist must fail")
	}
}

func TestPeriodicEnergyFraction(t *testing.T) {
	// Pure periodic signal: fraction ~1.
	xs := sineSeries(576, 288, 2, 7)
	frac, err := PeriodicEnergyFraction(xs, 288, 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.999 {
		t.Errorf("pure sine energy fraction = %g, want ~1", frac)
	}
	// White noise: fraction small.
	p := rng.New(90)
	noise := make([]float64, 2016)
	for i := range noise {
		noise[i] = p.Norm()
	}
	frac, err = PeriodicEnergyFraction(noise, 288, 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0.05 {
		t.Errorf("noise energy fraction = %g, want ~0", frac)
	}
	// Constant series: 0.
	frac, err = PeriodicEnergyFraction(make([]float64, 100), 10, 1)
	if err != nil || frac != 0 {
		t.Errorf("constant series fraction = %g, %v", frac, err)
	}
}

func TestAutocorrelation(t *testing.T) {
	xs := sineSeries(288, 96, 1, 0)
	// Lag 0 is exactly 1.
	r0, err := Autocorrelation(xs, 0)
	if err != nil || math.Abs(r0-1) > 1e-12 {
		t.Errorf("autocorr(0) = %g, %v", r0, err)
	}
	// At one full period the correlation is high (≈ (n-lag)/n scaling).
	rp, err := Autocorrelation(xs, 96)
	if err != nil {
		t.Fatal(err)
	}
	if rp < 0.6 {
		t.Errorf("autocorr(period) = %g, want high", rp)
	}
	// At half period, strongly negative.
	rh, err := Autocorrelation(xs, 48)
	if err != nil {
		t.Fatal(err)
	}
	if rh > -0.6 {
		t.Errorf("autocorr(half period) = %g, want strongly negative", rh)
	}
	if _, err := Autocorrelation(xs, -1); !errors.Is(err, ErrInput) {
		t.Error("negative lag must fail")
	}
	if _, err := Autocorrelation(xs, 288); !errors.Is(err, ErrInput) {
		t.Error("lag >= len must fail")
	}
	if r, _ := Autocorrelation(make([]float64, 10), 1); r != 0 {
		t.Error("constant series autocorr must be 0")
	}
}

// Round trip: fit a multi-harmonic model to its own synthesis.
func TestFitSynthesizeRoundTrip(t *testing.T) {
	src := &HarmonicModel{
		Period: 144,
		Mean:   20,
		Harmonics: []Harmonic{
			{M: 1, A: 3, B: -2},
			{M: 2, A: 0.5, B: 1},
		},
	}
	xs := synthesize(src, 288)
	got, err := FitHarmonics(xs, 144, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean-src.Mean) > 1e-9 {
		t.Errorf("mean = %g", got.Mean)
	}
	for k := range src.Harmonics {
		if math.Abs(got.Harmonics[k].A-src.Harmonics[k].A) > 1e-9 ||
			math.Abs(got.Harmonics[k].B-src.Harmonics[k].B) > 1e-9 {
			t.Errorf("harmonic %d = %+v, want %+v", k, got.Harmonics[k], src.Harmonics[k])
		}
	}
}

func TestDominantPeriodFindsSine(t *testing.T) {
	xs := sineSeries(960, 96, 2, 10)
	lag, r, err := DominantPeriod(xs, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	if lag < 93 || lag > 99 {
		t.Errorf("detected period %d, want ~96", lag)
	}
	if r < 0.8 {
		t.Errorf("peak autocorrelation %g, want high", r)
	}
}

func TestDominantPeriodWithNoise(t *testing.T) {
	p := rng.New(92)
	xs := sineSeries(960, 96, 2, 10)
	for i := range xs {
		xs[i] += p.Normal(0, 0.5)
	}
	lag, _, err := DominantPeriod(xs, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	if lag < 90 || lag > 102 {
		t.Errorf("noisy detection %d, want ~96", lag)
	}
}

func TestDominantPeriodNoPeriodicity(t *testing.T) {
	p := rng.New(93)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = p.Norm()
	}
	lag, r, err := DominantPeriod(xs, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	// White noise: whatever peak exists must be weak.
	if r > 0.3 {
		t.Errorf("white noise peak r=%g at lag %d; want weak", r, lag)
	}
}

func TestDominantPeriodErrors(t *testing.T) {
	xs := sineSeries(50, 10, 1, 0)
	if _, _, err := DominantPeriod(xs, 0, 10); !errors.Is(err, ErrInput) {
		t.Error("minLag < 1 must fail")
	}
	if _, _, err := DominantPeriod(xs, 10, 5); !errors.Is(err, ErrInput) {
		t.Error("maxLag < minLag must fail")
	}
	if _, _, err := DominantPeriod(xs, 1, 50); !errors.Is(err, ErrInput) {
		t.Error("maxLag >= len must fail")
	}
}

// synthesize returns n samples of m starting at index 0.
func synthesize(m *HarmonicModel, n int) []float64 {
	out := make([]float64, n)
	for t := range out {
		out[t] = m.Eval(float64(t))
	}
	return out
}
