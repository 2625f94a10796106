package estimation

import (
	"math"
	"testing"

	"ictm/internal/stats"
	"ictm/internal/tm"
)

func TestProjectWeightedSatisfiesConstraints(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 2, 0.2, 20)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	for tb := 0; tb < truth.Len(); tb++ {
		x := truth.At(tb)
		y, err := rm.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
		if err != nil {
			t.Fatal(err)
		}
		est, _, err := solver.Project(prior, y, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rm.LinkLoads(est)
		if err != nil {
			t.Fatal(err)
		}
		for r := range y {
			if math.Abs(got[r]-y[r]) > 1e-5*(1+math.Abs(y[r])) {
				t.Fatalf("bin %d row %d: R·x̂ = %g, want %g", tb, r, got[r], y[r])
			}
		}
	}
}

func TestProjectWeightedKeepsPerfectPrior(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 1, 0, 21)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	x := truth.At(0)
	y, _ := rm.LinkLoads(x)
	est, _, err := solver.Project(x.Clone(), y, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := tm.RelL2(x, est); e > 1e-8 {
		t.Errorf("weighted projection moved a perfect prior by %g", e)
	}
}

func TestProjectWeightedShiftsCorrectionToLargeFlows(t *testing.T) {
	// With a rank-deficient observation, the weighted step spreads the
	// correction proportionally to prior magnitude. Compare relative
	// corrections on a big vs small prior entry.
	rm, truth, _ := fixture(t, 8, 1, 0.3, 22)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	x := truth.At(0)
	y, _ := rm.LinkLoads(x)
	prior, _ := GravityPrior{}.PriorFor(0, x.Ingress(), x.Egress())

	plain, _, err := solver.Project(prior.Clone(), y, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	weighted, _, err := solver.Project(prior.Clone(), y, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Both must satisfy constraints; the weighted one should deviate
	// less (relatively) on the smallest prior entries.
	smallIdx, smallVal := 0, math.Inf(1)
	for k, v := range prior.Vec() {
		if v > 0 && v < smallVal {
			smallIdx, smallVal = k, v
		}
	}
	relPlain := math.Abs(plain.Vec()[smallIdx]-smallVal) / smallVal
	relWeighted := math.Abs(weighted.Vec()[smallIdx]-smallVal) / smallVal
	// Not a theorem per-entry, but with weighting the smallest flow
	// should very rarely receive a larger relative correction; allow
	// generous slack and fail only on gross inversion.
	if relWeighted > 5*relPlain+1 {
		t.Errorf("weighted correction on smallest flow %g >> plain %g", relWeighted, relPlain)
	}
}

func TestWeightedOptionEndToEnd(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 2, 0.2, 23)
	errsPlain := estimateSeries(t, rm, truth, GravityPrior{}).Errors
	errsWeighted := estimateSeries(t, rm, truth, GravityPrior{}, WithWeighted(true)).Errors
	for i := range errsPlain {
		if math.IsNaN(errsWeighted[i]) {
			t.Fatal("weighted pipeline produced NaN")
		}
	}
	// Weighted tomogravity is the stronger variant on gravity-like
	// priors in the literature; require it not to be dramatically worse.
	if stats.Mean(errsWeighted) > 1.3*stats.Mean(errsPlain) {
		t.Errorf("weighted mean %g much worse than plain %g",
			stats.Mean(errsWeighted), stats.Mean(errsPlain))
	}
}

func TestLinkNoiseInjection(t *testing.T) {
	// Enough bins that the mean-error comparisons below are not decided
	// by a single bin's noise realization.
	rm, truth, sp := fixture(t, 9, 10, 0.15, 24)
	noisy := WithLinkNoise(0.05, 1)

	errsClean := estimateSeries(t, rm, truth, GravityPrior{}).Errors
	errsNoisy := estimateSeries(t, rm, truth, GravityPrior{}, noisy).Errors
	if stats.Mean(errsNoisy) <= stats.Mean(errsClean) {
		t.Errorf("link noise should hurt: noisy %g <= clean %g",
			stats.Mean(errsNoisy), stats.Mean(errsClean))
	}

	// The IC prior must still beat gravity under the same moderate noise.
	errsIC := estimateSeries(t, rm, truth, &StableFPPrior{F: sp.F, Pref: sp.Pref}, noisy).Errors
	if stats.Mean(errsIC) >= stats.Mean(errsNoisy) {
		t.Errorf("under link noise IC prior %g should still beat gravity %g",
			stats.Mean(errsIC), stats.Mean(errsNoisy))
	}
}

func TestLinkNoiseDeterministicAcrossPriors(t *testing.T) {
	// Two runs with the same NoiseSeed must see identical noise: the
	// gravity-prior error series must be bit-identical.
	rm, truth, _ := fixture(t, 8, 2, 0.1, 25)
	e1 := estimateSeries(t, rm, truth, GravityPrior{}, WithLinkNoise(0.1, 7)).Errors
	e2 := estimateSeries(t, rm, truth, GravityPrior{}, WithLinkNoise(0.1, 7)).Errors
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("link noise not deterministic for fixed seed")
		}
	}
}

func TestFanoutPrior(t *testing.T) {
	rm, truth, _ := fixture(t, 9, 4, 0.15, 26)
	history, err := truth.Slice(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	target, err := truth.Slice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFanoutPrior(history)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Name() != "fanout" {
		t.Error("name")
	}
	// Row-stochastic calibration.
	for i, row := range fp.Fanout {
		var s float64
		for _, v := range row {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("fanout row %d sums to %g", i, s)
		}
	}
	errsFan := estimateSeries(t, rm, target, fp).Errors
	for _, e := range errsFan {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatal("fanout pipeline produced invalid error")
		}
	}
}

func TestFanoutPriorWinsOnStaticStructure(t *testing.T) {
	// Fanout assumes per-origin destination shares are stable in time.
	// When the traffic matrix truly is static, the calibrated fanout
	// prior reconstructs it exactly and must beat gravity.
	rm, truth, _ := fixture(t, 9, 1, 0, 27)
	base := truth.At(0)
	static := tm.NewSeries(9, 300)
	for k := 0; k < 4; k++ {
		_ = static.Append(base.Clone())
	}
	history, err := static.Slice(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	target, err := static.Slice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFanoutPrior(history)
	if err != nil {
		t.Fatal(err)
	}
	errsFan := estimateSeries(t, rm, target, fp).Errors
	errsGrav := estimateSeries(t, rm, target, GravityPrior{}).Errors
	if stats.Mean(errsFan) >= stats.Mean(errsGrav) {
		t.Errorf("fanout %g should beat gravity %g on static structure",
			stats.Mean(errsFan), stats.Mean(errsGrav))
	}
	if stats.Mean(errsFan) > 1e-6 {
		t.Errorf("fanout on static data should be near-exact, got %g", stats.Mean(errsFan))
	}
}

func TestNewFanoutPriorEmptyHistory(t *testing.T) {
	if _, err := NewFanoutPrior(tm.NewSeries(3, 300)); err == nil {
		t.Error("empty history must fail")
	}
}
