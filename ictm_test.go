package ictm

import (
	"errors"
	"math"
	"testing"
)

// The facade must expose a working end-to-end flow: generate → fit →
// estimate, all through the public API.
func TestFacadeEndToEnd(t *testing.T) {
	sc := GeantLike()
	sc.N = 8
	sc.BinsPerWeek = 28
	sc.Weeks = 1
	d, err := GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FitStableFP(d.Series, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.F <= 0 || res.Params.F >= 1 {
		t.Errorf("fitted f = %g", res.Params.F)
	}

	g, err := NewWaxman(8, 0.6, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := BuildRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(rm, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := est.EstimateSeries(d.Series, &ICOptimalPrior{Params: res.Params})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != d.Series.Len() {
		t.Fatalf("errs = %d, want %d", len(r.Errors), d.Series.Len())
	}

	// A prior registered through the session handle API estimates
	// identically to its hand-built counterpart.
	reg, err := est.RegisterPrior(PriorState{Name: "ic-stable-fP", F: res.Params.F, Pref: res.Params.Pref})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := est.EstimateSeries(d.Series, reg)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := est.EstimateSeries(d.Series, &StableFPPrior{F: res.Params.F, Pref: res.Params.Pref})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rr.Errors {
		if math.Float64bits(rr.Errors[i]) != math.Float64bits(hand.Errors[i]) {
			t.Fatalf("bin %d: registered prior diverged from hand-built prior", i)
		}
	}
}

func TestFacadeModelRoundTrip(t *testing.T) {
	p := &Params{F: 0.25, Activity: []float64{10, 20, 30}, Pref: []float64{0.2, 0.3, 0.5}}
	x, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	act, pref, err := MarginalInversion(0.25, x.Ingress(), x.Egress())
	if err != nil {
		t.Fatal(err)
	}
	for i := range act {
		if math.Abs(act[i]-p.Activity[i]) > 1e-8*p.Activity[i] {
			t.Errorf("act[%d] = %g, want %g", i, act[i], p.Activity[i])
		}
		if math.Abs(pref[i]-p.Pref[i]) > 1e-10 {
			t.Errorf("pref[%d] = %g, want %g", i, pref[i], p.Pref[i])
		}
	}
	if _, _, err := MarginalInversion(0.5, x.Ingress(), x.Egress()); !errors.Is(err, ErrSingularF) {
		t.Error("f=1/2 must surface ErrSingularF through the facade")
	}
}

func TestFacadeGravityAndMetrics(t *testing.T) {
	x := NewTrafficMatrix(2)
	x.Set(0, 1, 10)
	x.Set(1, 0, 10)
	est, err := GravityEstimate(x)
	if err != nil {
		t.Fatal(err)
	}
	e, err := RelL2(x, est)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Errorf("gravity should misfit the antisymmetric matrix, RelL2 = %g", e)
	}
}

func TestFacadeTraceAnalysis(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{Duration: 1800, ConnRatePerSide: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fAB, fBA, unknown, err := AnalyzeTrace(tr, 1800, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(fAB) != 6 || len(fBA) != 6 {
		t.Fatalf("bins = %d/%d", len(fAB), len(fBA))
	}
	if unknown < 0 || unknown > 1 {
		t.Errorf("unknown fraction = %g", unknown)
	}
	if len(DefaultAppMix()) == 0 {
		t.Error("empty default mix")
	}
}

func TestFacadeVariantConstants(t *testing.T) {
	if StableFP.String() != "stable-fP" || StableF.String() != "stable-f" || TimeVarying.String() != "time-varying" {
		t.Error("variant constants mismatched")
	}
}

func TestFacadeAllFitVariants(t *testing.T) {
	sc := GeantLike()
	sc.N = 6
	sc.BinsPerWeek = 14
	sc.Weeks = 1
	d, err := GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitStableF(d.Series, FitOptions{}); err != nil {
		t.Errorf("FitStableF: %v", err)
	}
	if _, err := FitTimeVarying(d.Series, FitOptions{}); err != nil {
		t.Errorf("FitTimeVarying: %v", err)
	}
	gr, err := FitGeneral(d.Series, FitOptions{MaxIter: 5})
	if err != nil {
		t.Errorf("FitGeneral: %v", err)
	}
	if gr != nil && len(gr.F) != 6 {
		t.Errorf("general F size = %d", len(gr.F))
	}
}

func TestFacadeSeriesAndRecipe(t *testing.T) {
	s := NewTMSeries(3, 300)
	if s.N() != 3 {
		t.Error("NewTMSeries")
	}
	sp, series, err := GenerateRecipe(GenRecipe{N: 5, T: 12, BinsPerDay: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	am, err := FitActivityModel(sp.Activity, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Models) != 5 {
		t.Errorf("activity models = %d", len(am.Models))
	}
	future, err := ExtendFromFit(sp, 6, 1, 6, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if future.Len() != 6 || series.Len() != 12 {
		t.Error("recipe/forecast lengths wrong")
	}
}

func TestFacadeFanoutPriorAndIPF(t *testing.T) {
	hist := NewTMSeries(3, 300)
	m := NewTrafficMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(1+i+j))
		}
	}
	_ = hist.Append(m)
	fp, err := NewFanoutPrior(hist)
	if err != nil {
		t.Fatal(err)
	}
	var _ = FanoutPrior{} // type is exported
	p, err := fp.PriorFor(0, m.Ingress(), m.Egress())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IPF(p, m.Ingress(), m.Egress(), 1e-9, 50); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	results, err := RunAllExperiments(ExperimentConfig{Scale: 0.02}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Errorf("results = %d, want 12", len(results))
	}
}
