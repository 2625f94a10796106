package estimation

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ictm/internal/core"
	"ictm/internal/rng"
	"ictm/internal/tm"
)

// stableFPInputs draws a calibrated (f, P) and bins of marginals for an
// n-node network.
func stableFPInputs(seed uint64, n, bins int) (f float64, pref []float64, ing, eg [][]float64) {
	p := rng.New(seed)
	f = 0.1 + 0.3*p.Float64()
	pref = make([]float64, n)
	for i := range pref {
		pref[i] = p.LogNormal(-4.3, 1.7)
	}
	for b := 0; b < bins; b++ {
		in, out := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			in[i] = p.LogNormal(10, 1)
			out[i] = p.LogNormal(10, 1)
		}
		ing = append(ing, in)
		eg = append(eg, out)
	}
	return f, pref, ing, eg
}

// oneShotStableFP is the uncached eq. 8 prior: decompose, solve and
// evaluate from scratch for one bin.
func oneShotStableFP(t *testing.T, f float64, pref, ing, eg []float64) *tm.TrafficMatrix {
	t.Helper()
	act, err := core.ActivityFromMarginals(f, pref, ing, eg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := (&core.Params{F: f, Activity: act, Pref: pref}).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func requireMatrixBitwise(t *testing.T, got, want *tm.TrafficMatrix, label string) {
	t.Helper()
	g, w := got.Vec(), want.Vec()
	if len(g) != len(w) {
		t.Fatalf("%s: %d flows, want %d", label, len(g), len(w))
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: flow %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// TestStableFPPriorMatchesOneShotBitwise: the decomposition cached on
// the first PriorFor changes no bit — every bin, first call or
// repeated, equals the from-scratch eq. 8 prior, up to n=100.
func TestStableFPPriorMatchesOneShotBitwise(t *testing.T) {
	for _, n := range []int{4, 22, 40, 100} {
		f, pref, ing, eg := stableFPInputs(uint64(60+n), n, 3)
		prior := &StableFPPrior{F: f, Pref: pref}
		for round := 0; round < 2; round++ {
			for b := range ing {
				got, err := prior.PriorFor(b, ing[b], eg[b])
				if err != nil {
					t.Fatalf("n=%d bin %d: %v", n, b, err)
				}
				want := oneShotStableFP(t, f, pref, ing[b], eg[b])
				requireMatrixBitwise(t, got, want, "stable-fP prior")
			}
		}
	}
}

// TestStableFPPriorConcurrentFirstCall: goroutines racing the first
// PriorFor on one instance share one decomposition and all get the
// from-scratch bytes (run under -race in CI).
func TestStableFPPriorConcurrentFirstCall(t *testing.T) {
	f, pref, ing, eg := stableFPInputs(70, 22, 1)
	want := oneShotStableFP(t, f, pref, ing[0], eg[0])
	prior := &StableFPPrior{F: f, Pref: pref}
	const goroutines = 16
	got := make([]*tm.TrafficMatrix, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = prior.PriorFor(0, ing[0], eg[0])
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		requireMatrixBitwise(t, got[g], want, "concurrent first PriorFor")
	}
}

// TestStableFPPriorBadLiteralErrorsEveryCall: an invalid (F, Pref)
// built as a Go literal, bypassing PriorState validation, fails every
// bin with the same parameter error — a cached failure is not
// forgotten after the first call.
func TestStableFPPriorBadLiteralErrorsEveryCall(t *testing.T) {
	ing := []float64{1, 2, 3}
	for _, prior := range []*StableFPPrior{
		{F: 0.3, Pref: []float64{0, 0, 0}},
		{F: 1.5, Pref: []float64{1, 1, 1}},
		{F: 0.3, Pref: []float64{1, math.NaN(), 1}},
	} {
		_, first := prior.PriorFor(0, ing, ing)
		if !errors.Is(first, core.ErrParams) {
			t.Fatalf("%+v: err = %v, want core.ErrParams", prior, first)
		}
		for call := 1; call < 3; call++ {
			if _, err := prior.PriorFor(call, ing, ing); err == nil || err.Error() != first.Error() {
				t.Fatalf("%+v call %d: err = %v, want %v", prior, call, err, first)
			}
		}
	}
	// Mis-sized marginals are a per-bin error, not a cached one.
	prior := &StableFPPrior{F: 0.3, Pref: []float64{1, 2, 3}}
	if _, err := prior.PriorFor(0, ing[:2], ing); !errors.Is(err, core.ErrParams) {
		t.Fatalf("short marginals: err = %v, want core.ErrParams", err)
	}
	if _, err := prior.PriorFor(1, ing, ing); err != nil {
		t.Fatalf("well-formed bin after a mis-sized one: %v", err)
	}
}
