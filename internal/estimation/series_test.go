package estimation

import (
	"fmt"
	"math"
	"testing"

	"ictm/internal/faults"
	"ictm/internal/rng"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// seriesFixture builds a small scenario with a caller-chosen series
// length and its routing matrix.
func seriesFixture(t *testing.T, bins int) (*routing.Matrix, *tm.Series) {
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

// mildLossy keeps a mix of clean and masked bins in every series:
// faults.Lossy()'s 20% missing reports over 32 links leaves essentially
// no bin fully observed, 1% leaves most bins clean.
var mildLossy = faults.Profile{Name: "mild-lossy", NoiseSigma: 0.1, StaleProb: 0.05, MissProb: 0.01}

// perBinSeries is EstimateSeries written as a plain loop: each bin's
// observation (link loads, faults applied with the previous bin's clean
// loads as the stale source), EstimateBin, RelL2 against the truth, and
// the diagnostics summed into RunStats.
func perBinSeries(t *testing.T, est *Estimator, truth *tm.Series, prior Prior, inj *faults.Injector) *SeriesResult {
	t.Helper()
	rm := est.solver.rm
	out := &SeriesResult{
		Estimates: tm.NewSeries(truth.N(), truth.BinSeconds),
		Errors:    make([]float64, truth.Len()),
		Stats:     RunStats{Bins: truth.Len()},
	}
	var prev []float64
	for b := 0; b < truth.Len(); b++ {
		y, err := rm.LinkLoads(truth.At(b))
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			clean := append([]float64(nil), y...)
			inj.Apply(b, y, prev)
			prev = clean
		}
		x, d, err := est.EstimateBin(prior, b, y)
		if err != nil {
			t.Fatal(err)
		}
		if out.Errors[b], err = tm.RelL2(truth.At(b), x); err != nil {
			t.Fatal(err)
		}
		if err := out.Estimates.Append(x); err != nil {
			t.Fatal(err)
		}
		s := &out.Stats
		s.IPFSweepsTotal += d.IPFSweeps
		if !d.IPFConverged {
			s.IPFNonConverged++
		}
		if d.ProjectStalled {
			s.ProjectStalls++
		}
		s.LSQRIterationsTotal += d.LSQRIterations
		if d.Degraded {
			s.DegradedBins++
		}
		s.LinksDroppedTotal += d.LinksDropped
		if d.PriorFallback {
			s.PriorFallbacks++
		}
	}
	return out
}

// TestEstimateSeriesMatchesEstimateBin: EstimateSeries returns exactly
// what a plain loop of EstimateBin over the same observations returns —
// estimates, errors and stats, bit for bit — for every worker count.
// The lossy profile mixes masked bins into the clean ones.
func TestEstimateSeriesMatchesEstimateBin(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		lossy bool
	}{
		{"plain", nil, false},
		{"skipipf", []Option{WithSkipIPF(true)}, false},
		{"weighted", []Option{WithWeighted(true)}, false},
		{"lossy", []Option{WithFaultInjection(mildLossy, 11)}, true},
	}
	for _, bins := range []int{27, 40} {
		rm, truth := seriesFixture(t, bins)
		for _, tc := range cases {
			est, err := NewEstimator(rm, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var inj *faults.Injector
			if tc.lossy {
				inj = faults.NewInjector(mildLossy, 11, rm.L)
			}
			want := perBinSeries(t, est, truth, GravityPrior{}, inj)
			if tc.lossy && want.Stats.DegradedBins == 0 {
				t.Fatalf("bins=%d: the lossy profile degraded no bin", bins)
			}
			for _, workers := range []int{1, 3, 8} {
				label := fmt.Sprintf("bins=%d/%s/workers=%d", bins, tc.name, workers)
				got, err := est.With(WithWorkers(workers)).EstimateSeries(truth, GravityPrior{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSeriesBitwise(t, got, want, label)
			}
		}
	}
}

// TestSeriesWorkerDeterminism: EstimateSeries keeps the workers=1 ≡
// workers=N bitwise contract on clean telemetry and under a lossy fault
// profile (masked bins among clean ones).
func TestSeriesWorkerDeterminism(t *testing.T) {
	rm, truth := seriesFixture(t, 40)
	cases := []struct {
		name string
		opts []Option
	}{
		{"clean", nil},
		{"lossy", []Option{WithFaultInjection(mildLossy, 11)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := NewEstimator(rm, append(tc.opts, WithWorkers(1))...)
			if err != nil {
				t.Fatal(err)
			}
			rSeq, err := seq.EstimateSeries(truth, GravityPrior{})
			if err != nil {
				t.Fatal(err)
			}
			rPar, err := seq.With(WithWorkers(8)).EstimateSeries(truth, GravityPrior{})
			if err != nil {
				t.Fatal(err)
			}
			requireSeriesBitwise(t, rPar, rSeq, "workers=8 vs workers=1")
		})
	}
}

// TestObservabilityFloorBoundary pins the floor's inclusive boundary
// (referenced by the ObservabilityFloor doc): a bin with exactly
// ObservabilityFloor of its links surviving still runs the masked solve;
// one more dropped link falls back to the prior.
func TestObservabilityFloorBoundary(t *testing.T) {
	rm, truth := seriesFixture(t, 2)
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

// TestStaleObsReuseMatchesPerBinSynthesis: EstimateSeries precomputes
// each bin's clean observation once when the fault profile needs the
// previous bin's (stale reports), instead of synthesizing its
// neighbor's loads and noise a second time. The estimates must be
// bit-identical to the replicated double-synthesis recipe: fresh
// observation per bin, the previous bin's observation rebuilt from
// scratch as the staleness source.
func TestStaleObsReuseMatchesPerBinSynthesis(t *testing.T) {
	rm, truth := seriesFixture(t, 14)
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
