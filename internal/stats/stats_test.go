package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ictm/internal/rng"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
}

func TestFinite(t *testing.T) {
	clean := []float64{1, 2, 3}
	if got := Finite(clean); &got[0] != &clean[0] {
		t.Error("Finite must not copy an all-finite slice")
	}
	mixed := []float64{1, math.Inf(1), 2, math.NaN(), 3, math.Inf(-1)}
	got := Finite(mixed)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Finite kept %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Finite[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFiniteMean(t *testing.T) {
	m, dropped := FiniteMean([]float64{1, math.Inf(1), 3})
	if m != 2 || dropped != 1 {
		t.Errorf("FiniteMean = (%g, %d), want (2, 1)", m, dropped)
	}
	if m, dropped = FiniteMean(nil); m != 0 || dropped != 0 {
		t.Errorf("FiniteMean(nil) = (%g, %d)", m, dropped)
	}
	if m, dropped = FiniteMean([]float64{math.NaN()}); m != 0 || dropped != 1 {
		t.Errorf("FiniteMean(NaN) = (%g, %d), want (0, 1)", m, dropped)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %g, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %g, %v", mx, err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Min(nil) must return ErrEmpty")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3, 2}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile(nil) must return ErrEmpty")
	}
}

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{5, 1, 3})
	if err != nil || m != 3 {
		t.Errorf("Median = %g, %v", m, err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %g, %v, want 1", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson anti = %g, want -1", r)
	}
}

func TestPearsonConstant(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("Pearson of constant = %g, %v, want 0", r, err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly increasing transform has Spearman exactly 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	r, err := Spearman(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman = %g, %v, want 1", r, err)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestCCDF(t *testing.T) {
	pts := CCDF([]float64{1, 2, 2, 3})
	if len(pts) != 3 {
		t.Fatalf("CCDF has %d distinct points, want 3", len(pts))
	}
	// P[X > 1] = 3/4, P[X > 2] = 1/4, P[X > 3] = 0.
	want := []CCDFPoint{{1, 0.75}, {2, 0.25}, {3, 0}}
	for i, w := range want {
		if pts[i].X != w.X || math.Abs(pts[i].P-w.P) > 1e-12 {
			t.Errorf("CCDF[%d] = %+v, want %+v", i, pts[i], w)
		}
	}
	if CCDF(nil) != nil {
		t.Error("CCDF(nil) must be nil")
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	p := rng.New(100)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = p.Exp(3)
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-3) > 0.1 {
		t.Errorf("lambda = %g, want ~3", fit.Lambda)
	}
}

func TestFitLogNormalRecovers(t *testing.T) {
	p := rng.New(101)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = p.LogNormal(-4.3, 1.7)
	}
	fit, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu+4.3) > 0.05 || math.Abs(fit.Sigma-1.7) > 0.05 {
		t.Errorf("fit = %v, want mu=-4.3 sigma=1.7", fit)
	}
}

func TestFitRejectsBadSupport(t *testing.T) {
	if _, err := FitLogNormal([]float64{1, -1}); !errors.Is(err, ErrBadSample) {
		t.Error("lognormal fit of negative sample must fail")
	}
	if _, err := FitExponential([]float64{-1, -2}); !errors.Is(err, ErrBadSample) {
		t.Error("exponential fit of negative-mean sample must fail")
	}
	if _, err := FitExponential(nil); !errors.Is(err, ErrEmpty) {
		t.Error("exponential fit of empty sample must fail with ErrEmpty")
	}
}

func TestCCDFModels(t *testing.T) {
	e := Exponential{Lambda: 2}
	if got := e.CCDF(0); got != 1 {
		t.Errorf("Exp CCDF(0) = %g", got)
	}
	if got := e.CCDF(-1); got != 1 {
		t.Errorf("Exp CCDF(-1) = %g", got)
	}
	if got := e.CCDF(1); math.Abs(got-math.Exp(-2)) > 1e-15 {
		t.Errorf("Exp CCDF(1) = %g", got)
	}
	l := LogNormal{Mu: 0, Sigma: 1}
	if got := l.CCDF(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LogNormal CCDF(median) = %g, want 0.5", got)
	}
	if got := l.CCDF(0); got != 1 {
		t.Errorf("LogNormal CCDF(0) = %g, want 1", got)
	}
}

func TestKSDistanceSelf(t *testing.T) {
	// KS distance of a large exponential sample to its own MLE fit is small,
	// and to a badly wrong model is large.
	p := rng.New(102)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = p.Exp(1)
	}
	good, _ := FitExponential(xs)
	dGood, err := KSDistance(xs, good)
	if err != nil {
		t.Fatal(err)
	}
	dBad, _ := KSDistance(xs, Exponential{Lambda: 10})
	if dGood > 0.02 {
		t.Errorf("KS to own fit = %g, want < 0.02", dGood)
	}
	if dBad < 10*dGood {
		t.Errorf("KS bad=%g good=%g: bad model should be far worse", dBad, dGood)
	}
}

func TestLogNormalBeatsExponentialOnHeavyTail(t *testing.T) {
	// The paper's Fig. 7 argument: for lognormal-like preference values the
	// lognormal CCDF fits far better than the exponential.
	p := rng.New(103)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = p.LogNormal(-4.3, 1.7)
	}
	ln, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	dLN, _ := KSDistance(xs, ln)
	dEx, _ := KSDistance(xs, ex)
	if dLN >= dEx {
		t.Errorf("KS lognormal=%g >= exponential=%g; heavy tail should favour lognormal", dLN, dEx)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	p := rng.New(104)
	f := func(raw [9]float64, a, b float64) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			xs[i] = v
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(xs, qa)
		vb, err2 := Quantile(xs, qb)
		return err1 == nil && err2 == nil && va <= vb+1e-12
	}
	cfg := &quick.Config{MaxCount: 300, Rand: stdRand(p)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestPearsonAffineInvarianceQuick(t *testing.T) {
	p := rng.New(105)
	f := func(raw [8]float64, scale, shift float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 || math.Abs(scale) < 1e-6 {
			return true
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		xs := make([]float64, 4)
		ys := make([]float64, 4)
		for i := 0; i < 4; i++ {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) || math.Abs(raw[i]) > 1e6 {
				return true
			}
			if math.IsNaN(raw[i+4]) || math.IsInf(raw[i+4], 0) || math.Abs(raw[i+4]) > 1e6 {
				return true
			}
			xs[i] = raw[i]
			ys[i] = raw[i+4]
		}
		r1, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		scaled := make([]float64, 4)
		for i := range xs {
			scaled[i] = math.Abs(scale)*xs[i] + shift
		}
		r2, err := Pearson(scaled, ys)
		if err != nil {
			return true
		}
		return math.Abs(r1-r2) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 300, Rand: stdRand(p)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpearmanLengthMismatch(t *testing.T) {
	if _, err := Spearman([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrEmpty) {
		t.Error("length mismatch must fail")
	}
}

func TestDistStrings(t *testing.T) {
	if s := (Exponential{Lambda: 2}).String(); s == "" {
		t.Error("Exponential.String empty")
	}
	if s := (LogNormal{Mu: -4.3, Sigma: 1.7}).String(); s == "" {
		t.Error("LogNormal.String empty")
	}
}
