package core

import (
	"errors"
	"math"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/rng"
)

// Phi must reproduce Evaluate: vec(X) == Φ·A.
func TestPhiMatchesEvaluate(t *testing.T) {
	p := rng.New(30)
	for trial := 0; trial < 30; trial++ {
		n := 2 + p.Intn(12)
		params := randParams(p, n)
		x, err := params.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		phi, err := Phi(params.F, params.Pref)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := phi.MulVec(params.Activity)
		if err != nil {
			t.Fatal(err)
		}
		if linalg.MaxAbsDiff(vec, x.Vec()) > 1e-9*(1+x.Norm()) {
			t.Fatalf("trial %d: Φ·A != vec(X)", trial)
		}
	}
}

func TestPhiRejectsBadInput(t *testing.T) {
	if _, err := Phi(0.2, nil); !errors.Is(err, ErrParams) {
		t.Error("empty pref must fail")
	}
	if _, err := Phi(-0.1, []float64{1}); !errors.Is(err, ErrParams) {
		t.Error("negative f must fail")
	}
	if _, err := Phi(0.2, []float64{0, 0}); !errors.Is(err, ErrParams) {
		t.Error("zero pref sum must fail")
	}
	if _, err := Phi(0.2, []float64{-1, 2}); !errors.Is(err, ErrParams) {
		t.Error("negative pref must fail")
	}
}

// QPhi's closed form must equal Q·Φ computed explicitly.
func TestQPhiMatchesExplicitProduct(t *testing.T) {
	p := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		n := 2 + p.Intn(10)
		params := randParams(p, n)
		phi, err := Phi(params.F, params.Pref)
		if err != nil {
			t.Fatal(err)
		}
		// Build explicit Q: first n rows aggregate rows of X (ingress),
		// next n rows aggregate columns (egress).
		q := linalg.NewMatrix(2*n, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				q.Set(i, i*n+j, 1)   // ingress at i sums X_ij over j
				q.Set(n+j, i*n+j, 1) // egress at j sums X_ij over i
			}
		}
		want, err := q.Mul(phi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := QPhi(params.F, params.Pref)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-10) {
			t.Fatalf("trial %d: QPhi closed form != Q·Φ", trial)
		}
	}
}

// Eq. 8 must recover activities exactly from noise-free marginals
// (up to the rank of QΦ; for f != 1/2 and generic P the system is
// full rank and recovery is exact).
func TestActivityFromMarginalsRecovers(t *testing.T) {
	p := rng.New(32)
	for trial := 0; trial < 30; trial++ {
		n := 2 + p.Intn(15)
		params := randParams(p, n)
		if math.Abs(params.F-0.5) < 0.05 {
			params.F = 0.3 // keep away from the singular point
		}
		ing, eg, err := params.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ActivityFromMarginals(params.F, params.Pref, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		scale := linalg.Norm2(params.Activity)
		if linalg.MaxAbsDiff(got, params.Activity) > 1e-6*scale {
			t.Fatalf("trial %d (n=%d, f=%.3f): recovery error %g", trial, n, params.F,
				linalg.MaxAbsDiff(got, params.Activity))
		}
	}
}

func TestActivityFromMarginalsShapeErrors(t *testing.T) {
	if _, err := ActivityFromMarginals(0.3, nil, nil, nil); !errors.Is(err, ErrParams) {
		t.Error("empty input must fail")
	}
	if _, err := ActivityFromMarginals(0.3, []float64{1, 1}, []float64{1}, []float64{1, 1}); !errors.Is(err, ErrParams) {
		t.Error("marginal length mismatch must fail")
	}
}

// One ActivityInverse serves every bin of a fixed (f, P) bitwise equal
// to the one-shot ActivityFromMarginals, and rejects what it rejects.
func TestActivityInverseMatchesOneShot(t *testing.T) {
	p := rng.New(33)
	params := randParams(p, 9)
	inv, err := NewActivityInverse(params.F, params.Pref)
	if err != nil {
		t.Fatal(err)
	}
	for bin := 0; bin < 5; bin++ {
		ing := make([]float64, 9)
		eg := make([]float64, 9)
		for i := range ing {
			ing[i] = p.LogNormal(10, 1)
			eg[i] = p.LogNormal(10, 1)
		}
		want, err := ActivityFromMarginals(params.F, params.Pref, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inv.Activities(ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bin %d: activity %d = %v, want %v", bin, i, got[i], want[i])
			}
		}
	}
	if _, err := inv.Activities(make([]float64, 9), make([]float64, 8)); !errors.Is(err, ErrParams) {
		t.Errorf("marginal length mismatch: err = %v, want ErrParams", err)
	}
	for _, bad := range []struct {
		f    float64
		pref []float64
	}{{0.3, nil}, {1.5, []float64{1, 1}}, {0.3, []float64{0, 0}}, {0.3, []float64{1, -1}}} {
		if _, err := NewActivityInverse(bad.f, bad.pref); !errors.Is(err, ErrParams) {
			t.Errorf("NewActivityInverse(%g, %v): err = %v, want ErrParams", bad.f, bad.pref, err)
		}
	}
}

// Eqs. 11-12 must exactly invert noise-free model marginals.
func TestMarginalInversionRecovers(t *testing.T) {
	p := rng.New(33)
	for trial := 0; trial < 30; trial++ {
		n := 2 + p.Intn(15)
		params := randParams(p, n)
		if math.Abs(params.F-0.5) < 0.1 {
			params.F = 0.25
		}
		ing, eg, err := params.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		act, pref, err := MarginalInversion(params.F, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		scale := linalg.Norm2(params.Activity)
		if linalg.MaxAbsDiff(act, params.Activity) > 1e-8*scale {
			t.Fatalf("trial %d: activity recovery error %g", trial,
				linalg.MaxAbsDiff(act, params.Activity))
		}
		wantPref := params.NormalizedPref()
		if linalg.MaxAbsDiff(pref, wantPref) > 1e-10 {
			t.Fatalf("trial %d: pref recovery error %g", trial,
				linalg.MaxAbsDiff(pref, wantPref))
		}
	}
}

func TestMarginalInversionSingularF(t *testing.T) {
	_, _, err := MarginalInversion(0.5, []float64{1, 2}, []float64{2, 1})
	if !errors.Is(err, ErrSingularF) {
		t.Errorf("f=0.5: err = %v, want ErrSingularF", err)
	}
}

func TestMarginalInversionClampsNegative(t *testing.T) {
	// Inconsistent (non-model) marginals can give negative raw estimates;
	// the result must still be non-negative with normalized preferences.
	act, pref, err := MarginalInversion(0.2, []float64{10, 0.1}, []float64{0.1, 10})
	if err != nil {
		t.Fatal(err)
	}
	var psum float64
	for i := range act {
		if act[i] < 0 || pref[i] < 0 {
			t.Errorf("negative output: act=%v pref=%v", act, pref)
		}
		psum += pref[i]
	}
	if math.Abs(psum-1) > 1e-12 {
		t.Errorf("pref sum = %g, want 1", psum)
	}
}

func TestMarginalInversionDegenerate(t *testing.T) {
	// All-zero marginals: uniform preference fallback.
	_, pref, err := MarginalInversion(0.2, []float64{0, 0}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pref[0]-0.5) > 1e-12 || math.Abs(pref[1]-0.5) > 1e-12 {
		t.Errorf("degenerate pref = %v, want uniform", pref)
	}
}

// Round trip: eqs. 11-12 output evaluated through the model reproduces
// the original matrix when the source was exactly IC.
func TestMarginalInversionRoundTrip(t *testing.T) {
	p := rng.New(34)
	params := randParams(p, 12)
	params.F = 0.25
	x, err := params.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	act, pref, err := MarginalInversion(params.F, x.Ingress(), x.Egress())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := (&Params{F: params.F, Activity: act, Pref: pref}).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range x.Vec() {
		if math.Abs(x.Vec()[k]-rebuilt.Vec()[k]) > 1e-7*(1+x.Norm()) {
			t.Fatalf("roundtrip mismatch at %d: %g vs %g", k, x.Vec()[k], rebuilt.Vec()[k])
		}
	}
}
