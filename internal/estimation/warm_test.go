package estimation

import (
	"math"
	"testing"

	"ictm/internal/faults"
	"ictm/internal/rng"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// warmFixture builds a small scenario with a caller-chosen series length
// (the warm path's chunking only becomes interesting past one
// warmChunkBins) and its routing matrix.
func warmFixture(t *testing.T, bins int) (*routing.Matrix, *tm.Series) {
	t.Helper()
	sc := synth.GeantLike()
	sc.N = 10
	sc.BinsPerWeek = bins
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Waxman(10, 0.6, 0.4, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return rm, d.Series
}

// requireSeriesBitwise fails unless two series results agree bit for bit
// in estimates, errors, and stats.
func requireSeriesBitwise(t *testing.T, got, want *SeriesResult, label string) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, got.Stats, want.Stats)
	}
	for i := range want.Errors {
		if math.Float64bits(got.Errors[i]) != math.Float64bits(want.Errors[i]) {
			t.Fatalf("%s: bin %d error diverged", label, i)
		}
		a, b := got.Estimates.At(i).Vec(), want.Estimates.At(i).Vec()
		for k := range b {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("%s: bin %d flow %d diverged", label, i, k)
			}
		}
	}
}

// TestWarmSeriesWorkerDeterminism: the warm-started series path keeps
// the workers=1 ≡ workers=N bitwise contract — the chunk partition is a
// function of the series length only — on clean telemetry and under the
// lossy fault profile (where masked bins leave the blocked groups).
func TestWarmSeriesWorkerDeterminism(t *testing.T) {
	rm, truth := warmFixture(t, 40)
	// A mild lossy profile: faults.Lossy()'s 20% missing reports over 32
	// links leaves essentially no bin fully observed (nothing to block);
	// 1% keeps a mix of blockable and masked bins in every chunk, which
	// is the interesting regime for the blocked path's determinism.
	mild := faults.Profile{Name: "mild-lossy", NoiseSigma: 0.1, StaleProb: 0.05, MissProb: 0.01}
	cases := []struct {
		name string
		opts []Option
	}{
		{"clean", nil},
		{"lossy", []Option{WithFaultInjection(mild, 11)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]Option{WithWarmStart(true)}, tc.opts...)
			seq, err := NewEstimator(rm, append(base, WithWorkers(1))...)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewEstimator(rm, append(base, WithWorkers(8))...)
			if err != nil {
				t.Fatal(err)
			}
			rSeq, err := seq.EstimateSeries(truth, GravityPrior{})
			if err != nil {
				t.Fatal(err)
			}
			rPar, err := par.EstimateSeries(truth, GravityPrior{})
			if err != nil {
				t.Fatal(err)
			}
			if rSeq.Stats.WarmStartedBins == 0 {
				t.Fatal("warm series never warm-started a bin")
			}
			requireSeriesBitwise(t, rPar, rSeq, "workers=8 vs workers=1")
		})
	}
}

// TestWarmSeriesAgainstCold pins the warm path's relationship to the
// default cold path on a clean 40-bin series (chunks of 16: two full
// chunks with a cold and a warm block each, one 8-bin tail chunk that is
// entirely cold):
//
//   - exactly the second block of each full chunk warm-starts (16 bins);
//   - cold-started bins — the first 8 of every chunk and the whole tail
//     chunk — are bit-identical to the default path (the blocked solver's
//     cold lanes reproduce standalone LSQR bitwise);
//   - warm-started bins agree with the cold path to well within the
//     pipeline's 1e-6 contract (same tolerance, different null-space
//     tie-break), so the two paths answer the same question.
func TestWarmSeriesAgainstCold(t *testing.T) {
	rm, truth := warmFixture(t, 40)
	warm, err := NewEstimator(rm, WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	rWarm, err := warm.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	rCold, err := cold.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if rCold.Stats.WarmStartedBins != 0 {
		t.Fatalf("cold path reported %d warm-started bins", rCold.Stats.WarmStartedBins)
	}
	if rWarm.Stats.WarmStartedBins != 16 {
		t.Fatalf("WarmStartedBins = %d, want 16 (the second block of each full chunk)",
			rWarm.Stats.WarmStartedBins)
	}
	if rWarm.Stats.Bins != 40 || rWarm.Stats.LSQRIterationsTotal == 0 {
		t.Fatalf("warm stats implausible: %+v", rWarm.Stats)
	}
	for i := 0; i < 40; i++ {
		w, c := rWarm.Estimates.At(i).Vec(), rCold.Estimates.At(i).Vec()
		if i%warmChunkBins < warmBlockK {
			for k := range c {
				if math.Float64bits(w[k]) != math.Float64bits(c[k]) {
					t.Fatalf("cold-started bin %d flow %d diverged from the cold path", i, k)
				}
			}
			continue
		}
		// Warm-started bins: same tolerance, different tie-break — close,
		// not bitwise.
		var num, den float64
		for k := range c {
			d := w[k] - c[k]
			num += d * d
			den += c[k] * c[k]
		}
		if rel := math.Sqrt(num) / math.Sqrt(den); rel > 1e-6 {
			t.Fatalf("warm bin %d differs from cold by %g relative", i, rel)
		}
	}
}

// TestWarmSeriesMaskedBinsMatchCold: bins degraded by missing link
// reports never enter a blocked solve — under WarmStart they go through
// exactly the same masked path as the default, so their estimates are
// bit-identical to the cold run's.
func TestWarmSeriesMaskedBinsMatchCold(t *testing.T) {
	rm, truth := warmFixture(t, 40)
	prof := faults.Lossy()
	const seed = 11
	warm, err := NewEstimator(rm, WithWarmStart(true), WithFaultInjection(prof, seed))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEstimator(rm, WithFaultInjection(prof, seed))
	if err != nil {
		t.Fatal(err)
	}
	rWarm, err := warm.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	rCold, err := cold.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	// Replicate the injector to find the bins with dropped links: the
	// fault streams are a pure function of (seed, bin, link).
	inj := faults.NewInjector(prof, seed, rm.L)
	masked := 0
	var prev []float64
	for i := 0; i < truth.Len(); i++ {
		y, err := rm.LinkLoads(truth.At(i))
		if err != nil {
			t.Fatal(err)
		}
		clean := append([]float64(nil), y...)
		inj.Apply(i, y, prev)
		prev = clean
		dropped := 0
		for _, v := range y[:rm.L] {
			if math.IsNaN(v) {
				dropped++
			}
		}
		if dropped == 0 {
			continue
		}
		masked++
		w, c := rWarm.Estimates.At(i).Vec(), rCold.Estimates.At(i).Vec()
		for k := range c {
			if math.Float64bits(w[k]) != math.Float64bits(c[k]) {
				t.Fatalf("masked bin %d (%d links dropped) flow %d diverged from the cold path", i, dropped, k)
			}
		}
	}
	if masked == 0 {
		t.Fatal("fixture produced no masked bins; the test exercised nothing")
	}
	if rWarm.Stats.DegradedBins != rCold.Stats.DegradedBins || rWarm.Stats.DegradedBins != masked {
		t.Fatalf("degraded-bin counts diverged: warm %d, cold %d, replicated %d",
			rWarm.Stats.DegradedBins, rCold.Stats.DegradedBins, masked)
	}
}

// TestObservabilityFloorBoundary pins the floor's inclusive boundary
// (referenced by the ObservabilityFloor doc): a bin with exactly
// ObservabilityFloor of its links surviving still runs the masked solve;
// one more dropped link falls back to the prior.
func TestObservabilityFloorBoundary(t *testing.T) {
	rm, truth := warmFixture(t, 2)
	if rm.L%2 != 0 {
		t.Fatalf("fixture has odd L=%d; the exact boundary needs an even link count", rm.L)
	}
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	atBoundary := rm.L / 2 // surviving = L/2 = ObservabilityFloor·L exactly
	cases := []struct {
		name         string
		drop         int
		wantFallback bool
	}{
		{"exactly-at-floor", atBoundary, false},
		{"one-below-floor", atBoundary + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y, err := rm.LinkLoads(truth.At(0))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.drop; i++ {
				y[i] = math.NaN()
			}
			estMat, diag, err := est.EstimateBin(GravityPrior{}, 0, y)
			if err != nil {
				t.Fatal(err)
			}
			if estMat == nil || !diag.Degraded || diag.LinksDropped != tc.drop {
				t.Fatalf("diag %+v, want degraded with %d dropped", diag, tc.drop)
			}
			if diag.PriorFallback != tc.wantFallback {
				t.Fatalf("%d of %d links dropped: PriorFallback = %v, want %v",
					tc.drop, rm.L, diag.PriorFallback, tc.wantFallback)
			}
			if ranSolve := diag.LSQRIterations > 0; ranSolve == tc.wantFallback {
				t.Fatalf("LSQRIterations = %d with PriorFallback = %v: the masked solve must run exactly when the bin does not fall back",
					diag.LSQRIterations, diag.PriorFallback)
			}
		})
	}
}

// TestDenseDowngradedSurfaced: a dense cross-check bin that loses link
// reports is downgraded to the masked iterative solve — and says so,
// per bin and in the run stats, instead of silently not cross-checking.
func TestDenseDowngradedSurfaced(t *testing.T) {
	rm, truth := warmFixture(t, 8)
	mkY := func(drop int) []float64 {
		y, err := rm.LinkLoads(truth.At(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drop; i++ {
			y[i] = math.NaN()
		}
		return y
	}
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"dense", []Option{WithDense(true)}, true},
		{"weighted+dense", []Option{WithWeighted(true), WithDense(true)}, true},
		{"default-masked", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est, err := NewEstimator(rm, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, diag, err := est.EstimateBin(GravityPrior{}, 0, mkY(1))
			if err != nil {
				t.Fatal(err)
			}
			if !diag.Degraded || diag.DenseDowngraded != tc.want {
				t.Fatalf("one dropped link: diag %+v, want DenseDowngraded=%v", diag, tc.want)
			}
			_, clean, err := est.EstimateBin(GravityPrior{}, 0, mkY(0))
			if err != nil {
				t.Fatal(err)
			}
			if clean.DenseDowngraded || clean.Degraded {
				t.Fatalf("clean bin: diag %+v, want no degradation flags", clean)
			}
		})
	}

	// Series level: under the lossy profile every degraded bin of a dense
	// sweep is a downgraded bin, and the stats say so.
	dense, err := NewEstimator(rm, WithDense(true), WithFaultInjection(faults.Lossy(), 11))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dense.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DegradedBins == 0 {
		t.Fatal("lossy dense sweep produced no degraded bins; the test exercised nothing")
	}
	if r.Stats.DenseDowngrades != r.Stats.DegradedBins {
		t.Fatalf("DenseDowngrades = %d, DegradedBins = %d: every degraded dense bin must be counted as downgraded",
			r.Stats.DenseDowngrades, r.Stats.DegradedBins)
	}
	clean, err := NewEstimator(rm, WithDense(true))
	if err != nil {
		t.Fatal(err)
	}
	rClean, err := clean.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if rClean.Stats.DenseDowngrades != 0 {
		t.Fatalf("clean dense sweep reported %d downgrades", rClean.Stats.DenseDowngrades)
	}
}

// TestStaleObsReuseMatchesPerBinSynthesis: EstimateSeries precomputes
// each bin's clean observation once when the fault profile needs the
// previous bin's (stale reports), instead of synthesizing its
// neighbor's loads and noise a second time. The estimates must be
// bit-identical to the replicated double-synthesis recipe: fresh
// observation per bin, the previous bin's observation rebuilt from
// scratch as the staleness source.
func TestStaleObsReuseMatchesPerBinSynthesis(t *testing.T) {
	rm, truth := warmFixture(t, 14)
	prof := faults.Profile{Name: "stale-heavy", NoiseSigma: 0.05, StaleProb: 0.5}
	const (
		noiseSigma = 0.1
		noiseSeed  = 7
		faultSeed  = 11
	)
	est, err := NewEstimator(rm,
		WithLinkNoise(noiseSigma, noiseSeed),
		WithFaultInjection(prof, faultSeed))
	if err != nil {
		t.Fatal(err)
	}
	r, err := est.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}

	// The old recipe, by hand: observe(t) is LinkLoads + the per-bin
	// link-noise stream; bin t's faults read a freshly re-synthesized
	// observe(t-1) as the stale source.
	noiseRoot := rng.New(noiseSeed).Derive("estimation/linknoise")
	observe := func(bin int) []float64 {
		y, err := rm.LinkLoads(truth.At(bin))
		if err != nil {
			t.Fatal(err)
		}
		noise := noiseRoot.DeriveIndex(uint64(bin))
		for i := range y {
			y[i] *= noise.LogNormal(0, noiseSigma)
		}
		return y
	}
	inj := faults.NewInjector(prof, faultSeed, rm.L)
	for bin := 0; bin < truth.Len(); bin++ {
		y := observe(bin)
		var prev []float64
		if bin > 0 {
			prev = observe(bin - 1)
		}
		inj.Apply(bin, y, prev)
		want, _, err := est.EstimateBin(GravityPrior{}, bin, y)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Estimates.At(bin).Vec()
		for k, v := range want.Vec() {
			if math.Float64bits(got[k]) != math.Float64bits(v) {
				t.Fatalf("bin %d flow %d: series %g, per-bin synthesis %g", bin, k, got[k], v)
			}
		}
	}
}
