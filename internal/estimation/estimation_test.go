package estimation

import (
	"errors"
	"math"
	"testing"

	"ictm/internal/core"
	"ictm/internal/fit"
	"ictm/internal/gravity"
	"ictm/internal/rng"
	"ictm/internal/routing"
	"ictm/internal/stats"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// fixture builds a small IC-structured world: topology, routing matrix,
// ground-truth series (stable-fP plus noise) and the true parameters.
func fixture(t *testing.T, n, T int, noise float64, seed uint64) (*routing.Matrix, *tm.Series, *core.SeriesParams) {
	t.Helper()
	g, err := topology.Waxman(n, 0.6, 0.4, seed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.New(seed).Derive("estimation-fixture")
	sp := &core.SeriesParams{Variant: core.StableFP, N: n, T: T, F: 0.25}
	sp.Pref = make([]float64, n)
	var psum float64
	for i := range sp.Pref {
		sp.Pref[i] = p.LogNormal(-4.3, 1.2)
		psum += sp.Pref[i]
	}
	for i := range sp.Pref {
		sp.Pref[i] /= psum
	}
	sp.Activity = make([][]float64, T)
	for tb := range sp.Activity {
		sp.Activity[tb] = make([]float64, n)
		for i := range sp.Activity[tb] {
			sp.Activity[tb][i] = p.LogNormal(9, 0.7)
		}
	}
	clean, err := sp.EvaluateSeries(300)
	if err != nil {
		t.Fatal(err)
	}
	if noise == 0 {
		return rm, clean, sp
	}
	noisy := tm.NewSeries(n, 300)
	np := p.Derive("noise")
	for tb := 0; tb < T; tb++ {
		m := clean.At(tb).Clone()
		for k, v := range m.Vec() {
			m.Vec()[k] = v * np.LogNormal(0, noise)
		}
		_ = noisy.Append(m)
	}
	return rm, noisy, sp
}

// estimateSeries runs truth through a fresh Estimator built with opts
// and returns the series result, failing the test on any error.
func estimateSeries(t *testing.T, rm *routing.Matrix, truth *tm.Series, prior Prior, opts ...Option) *SeriesResult {
	t.Helper()
	est, err := NewEstimator(rm, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := est.EstimateSeries(truth, prior)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestProjectSatisfiesConstraints(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 3, 0.2, 1)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	for tb := 0; tb < truth.Len(); tb++ {
		y, err := rm.LinkLoads(truth.At(tb))
		if err != nil {
			t.Fatal(err)
		}
		// Start from a deliberately bad prior: uniform.
		prior := tm.New(8)
		for k := range prior.Vec() {
			prior.Vec()[k] = 1
		}
		est, _, err := solver.Project(prior, y, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		// R·est must equal y (the system is consistent by construction).
		got, err := rm.LinkLoads(est)
		if err != nil {
			t.Fatal(err)
		}
		for r := range y {
			if math.Abs(got[r]-y[r]) > 1e-6*(1+math.Abs(y[r])) {
				t.Fatalf("bin %d row %d: R·x̂ = %g, want %g", tb, r, got[r], y[r])
			}
		}
	}
}

func TestProjectKeepsPerfectPrior(t *testing.T) {
	// If the prior already satisfies R·x = y, projection must not move it.
	rm, truth, _ := fixture(t, 8, 1, 0, 2)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	x := truth.At(0)
	y, _ := rm.LinkLoads(x)
	est, _, err := solver.Project(x.Clone(), y, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := tm.RelL2(x, est)
	if e > 1e-9 {
		t.Errorf("projection moved a perfect prior by RelL2 %g", e)
	}
}

func TestProjectShapeErrors(t *testing.T) {
	rm, _, _ := fixture(t, 8, 1, 0, 3)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := solver.Project(tm.New(5), make([]float64, rm.Rows()), nil, false); !errors.Is(err, ErrInput) {
		t.Error("wrong prior size must fail")
	}
	if _, _, err := solver.Project(tm.New(8), make([]float64, 3), nil, false); !errors.Is(err, ErrInput) {
		t.Error("wrong y size must fail")
	}
	if _, _, err := solver.Project(tm.New(8), make([]float64, rm.Rows()), make([]bool, 3), true); !errors.Is(err, ErrInput) {
		t.Error("wrong row mask size must fail")
	}
	if _, err := solver.ProjectDense(tm.New(5), make([]float64, rm.Rows()), true); !errors.Is(err, ErrInput) {
		t.Error("wrong prior size must fail on the dense reference")
	}
}

func TestIPFReachesTargets(t *testing.T) {
	p := rng.New(80)
	n := 10
	x := tm.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, p.Float64()+0.1)
		}
	}
	rows := make([]float64, n)
	cols := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		rows[i] = p.Float64()*10 + 1
		total += rows[i]
	}
	// Column targets must sum to the same total for IPF to converge.
	remaining := total
	for j := 0; j < n-1; j++ {
		cols[j] = remaining * (0.05 + 0.1*p.Float64())
		remaining -= cols[j]
	}
	cols[n-1] = remaining
	iters, err := IPF(x, rows, cols, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 500 {
		t.Errorf("IPF did not converge (%d iters)", iters)
	}
	ing, eg := x.Ingress(), x.Egress()
	for i := 0; i < n; i++ {
		if math.Abs(ing[i]-rows[i]) > 1e-6*(1+rows[i]) {
			t.Errorf("row %d: %g vs target %g", i, ing[i], rows[i])
		}
		if math.Abs(eg[i]-cols[i]) > 1e-6*(1+cols[i]) {
			t.Errorf("col %d: %g vs target %g", i, eg[i], cols[i])
		}
	}
}

func TestIPFFixedPoint(t *testing.T) {
	// A matrix already matching its targets must be unchanged in one sweep.
	x := tm.New(2)
	x.Set(0, 0, 1)
	x.Set(0, 1, 2)
	x.Set(1, 0, 3)
	x.Set(1, 1, 4)
	before := x.Clone()
	if _, err := IPF(x, x.Ingress(), x.Egress(), 1e-12, 50); err != nil {
		t.Fatal(err)
	}
	for k := range x.Vec() {
		if math.Abs(x.Vec()[k]-before.Vec()[k]) > 1e-9 {
			t.Errorf("IPF moved a fixed point at %d", k)
		}
	}
}

func TestIPFSeedsZeroRows(t *testing.T) {
	x := tm.New(2) // all zeros
	rows := []float64{3, 1}
	cols := []float64{2, 2}
	if _, err := IPF(x, rows, cols, 1e-10, 500); err != nil {
		t.Fatal(err)
	}
	ing := x.Ingress()
	if math.Abs(ing[0]-3) > 1e-6 || math.Abs(ing[1]-1) > 1e-6 {
		t.Errorf("IPF with zero seed: ingress = %v", ing)
	}
}

func TestIPFBadShapes(t *testing.T) {
	x := tm.New(2)
	if _, err := IPF(x, []float64{1}, []float64{1, 1}, 0, 0); !errors.Is(err, ErrInput) {
		t.Error("short row targets must fail")
	}
}

func TestGravityPriorMatchesGravityPackage(t *testing.T) {
	ing := []float64{4, 6}
	eg := []float64{5, 5}
	p, err := GravityPrior{}.PriorFor(0, ing, eg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := gravity.FromMarginals(ing, eg)
	for k := range p.Vec() {
		if p.Vec()[k] != want.Vec()[k] {
			t.Fatal("GravityPrior disagrees with gravity.FromMarginals")
		}
	}
	if (GravityPrior{}).Name() != "gravity" {
		t.Error("prior name")
	}
}

func TestICPriorsExactOnCleanData(t *testing.T) {
	// On exactly-IC data, the stable-fP and stable-f priors reconstruct
	// the truth from marginals alone (before any projection).
	rm, truth, sp := fixture(t, 9, 2, 0, 4)
	_ = rm
	for tb := 0; tb < truth.Len(); tb++ {
		x := truth.At(tb)
		ing, eg := x.Ingress(), x.Egress()

		pfp := &StableFPPrior{F: sp.F, Pref: sp.Pref}
		got, err := pfp.PriorFor(tb, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := tm.RelL2(x, got); e > 1e-6 {
			t.Errorf("stable-fP prior RelL2 = %g on clean data", e)
		}

		pf := &StableFPrior{F: sp.F}
		got2, err := pf.PriorFor(tb, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := tm.RelL2(x, got2); e > 1e-6 {
			t.Errorf("stable-f prior RelL2 = %g on clean data", e)
		}
	}
}

func TestRunPipelinePerfectOnCleanData(t *testing.T) {
	rm, truth, sp := fixture(t, 9, 3, 0, 5)
	errs := estimateSeries(t, rm, truth, &StableFPPrior{F: sp.F, Pref: sp.Pref}).Errors
	for tb, e := range errs {
		if e > 1e-6 {
			t.Errorf("bin %d: pipeline error %g on clean data", tb, e)
		}
	}
}

// The paper's central estimation claim, in miniature: with IC-structured
// noisy truth, every IC prior beats the gravity prior on mean error, and
// more side information helps (Fig 11 >= Fig 12 >= Fig 13 improvements).
func TestPriorOrdering(t *testing.T) {
	rm, truth, sp := fixture(t, 10, 6, 0.25, 6)

	fitRes, err := fit.StableFP(truth, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}

	priors := []Prior{
		GravityPrior{},
		&ICOptimalPrior{Params: fitRes.Params},
		&StableFPPrior{F: sp.F, Pref: sp.Pref},
		&StableFPrior{F: sp.F},
	}
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Compare(truth, priors)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(name string) float64 { return stats.Mean(res[name].Errors) }
	grav := mean("gravity")
	opt := mean("ic-optimal")
	fp := mean("ic-stable-fP")
	f := mean("ic-stable-f")

	if opt >= grav {
		t.Errorf("ic-optimal %g >= gravity %g", opt, grav)
	}
	if fp >= grav {
		t.Errorf("ic-stable-fP %g >= gravity %g", fp, grav)
	}
	if f >= grav {
		t.Errorf("ic-stable-f %g >= gravity %g", f, grav)
	}
	// Richer information should not hurt (allow small slack for noise).
	if opt > fp*1.1 {
		t.Errorf("ic-optimal %g much worse than stable-fP %g", opt, fp)
	}
}

func TestEstimatePreservesMarginals(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 2, 0.2, 7)
	est := estimateSeries(t, rm, truth, GravityPrior{}).Estimates
	for tb := 0; tb < truth.Len(); tb++ {
		wantIng := truth.At(tb).Ingress()
		gotIng := est.At(tb).Ingress()
		for i := range wantIng {
			if math.Abs(gotIng[i]-wantIng[i]) > 1e-6*(1+wantIng[i]) {
				t.Fatalf("bin %d: estimate ingress[%d] = %g, want %g", tb, i, gotIng[i], wantIng[i])
			}
		}
	}
}

func TestSkipIPFOption(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 1, 0.2, 8)
	errsWith := estimateSeries(t, rm, truth, GravityPrior{}).Errors
	errsWithout := estimateSeries(t, rm, truth, GravityPrior{}, WithSkipIPF(true)).Errors
	if len(errsWith) != len(errsWithout) {
		t.Fatal("length mismatch")
	}
	// Both must produce finite errors; IPF usually helps but is not
	// guaranteed per-bin, so we only check it does not explode.
	for i := range errsWith {
		if math.IsNaN(errsWith[i]) || math.IsNaN(errsWithout[i]) {
			t.Fatal("NaN error")
		}
	}
}

func TestRunShapeMismatch(t *testing.T) {
	rm, _, _ := fixture(t, 8, 1, 0, 9)
	wrong := tm.NewSeries(5, 300)
	_ = wrong.Append(tm.New(5))
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.EstimateSeries(wrong, GravityPrior{}); !errors.Is(err, ErrInput) {
		t.Error("mismatched series must fail")
	}
}
