package estimation

import (
	"errors"
	"testing"

	"ictm/internal/tm"
)

// TestRunWithSolverWorkersBitIdentical is the determinism contract of the
// parallel estimation path (EstimateSeries over one shared solver): for any worker count the estimated series and
// error vector must be bit-identical to the sequential (workers=1) run,
// including under link noise — the noise stream is keyed per bin, not
// consumed across bins.
func TestRunWithSolverWorkersBitIdentical(t *testing.T) {
	rm, truth, _ := fixture(t, 9, 12, 0.15, 31)
	seqEst, err := NewEstimator(rm, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, noise := range []float64{0, 0.1} {
		base := seqEst.With(WithLinkNoise(noise, 5))
		seq, err := base.EstimateSeries(truth, GravityPrior{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, 0} {
			par, err := base.With(WithWorkers(workers)).EstimateSeries(truth, GravityPrior{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq.Errors {
				if seq.Errors[i] != par.Errors[i] {
					t.Fatalf("noise=%g workers=%d: error[%d] = %g, sequential %g",
						noise, workers, i, par.Errors[i], seq.Errors[i])
				}
			}
			for b := 0; b < seq.Estimates.Len(); b++ {
				sv, pv := seq.Estimates.At(b).Vec(), par.Estimates.At(b).Vec()
				for k := range sv {
					if sv[k] != pv[k] {
						t.Fatalf("noise=%g workers=%d: bin %d entry %d differs: %g vs %g",
							noise, workers, b, k, pv[k], sv[k])
					}
				}
			}
		}
	}
}

// TestCompareWorkersBitIdentical checks the per-prior parallel sweep
// against the sequential one.
func TestCompareWorkersBitIdentical(t *testing.T) {
	rm, truth, sp := fixture(t, 9, 6, 0.15, 32)
	priors := []Prior{
		GravityPrior{},
		&StableFPPrior{F: sp.F, Pref: sp.Pref},
		&StableFPrior{F: sp.F},
	}
	base, err := NewEstimator(rm, WithLinkNoise(0.05, 3), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := base.Compare(truth, priors)
	if err != nil {
		t.Fatal(err)
	}
	par, err := base.With(WithWorkers(8)).Compare(truth, priors)
	if err != nil {
		t.Fatal(err)
	}
	for name, se := range seq {
		pe, ok := par[name]
		if !ok {
			t.Fatalf("prior %q missing from parallel result", name)
		}
		if se.Stats != pe.Stats {
			t.Fatalf("prior %q stats diverged: %+v vs sequential %+v", name, pe.Stats, se.Stats)
		}
		for i := range se.Errors {
			if se.Errors[i] != pe.Errors[i] {
				t.Fatalf("prior %q bin %d: %g vs sequential %g", name, i, pe.Errors[i], se.Errors[i])
			}
		}
	}
}

// TestIPFNonConvergenceSentinel: a single sweep on incompatible-shaped
// mass cannot reach a tight tolerance, and the shortfall must be reported
// as ErrIPFNoConverge rather than a silent success.
func TestIPFNonConvergenceSentinel(t *testing.T) {
	x := tm.New(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float64(1+i*3+j))
		}
	}
	rows := []float64{30, 1, 1}
	cols := []float64{1, 1, 30}
	iters, err := IPF(x, rows, cols, 1e-12, 1)
	if !errors.Is(err, ErrIPFNoConverge) {
		t.Fatalf("IPF with 1 sweep returned (%d, %v), want ErrIPFNoConverge", iters, err)
	}
	if iters != 1 {
		t.Errorf("sweep count %d, want 1", iters)
	}
}

// TestEstimateBinSurfacesIPFDiag: non-convergence must not fail the bin;
// it must surface in BinDiag and aggregate into RunStats.
func TestEstimateBinSurfacesIPFDiag(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 4, 0.2, 33)
	// One sweep with an extreme tolerance cannot converge on noisy bins.
	est, err := NewEstimator(rm, WithIPF(1e-15, 1))
	if err != nil {
		t.Fatal(err)
	}
	y, err := rm.LinkLoads(truth.At(0))
	if err != nil {
		t.Fatal(err)
	}
	x, diag, err := est.EstimateBin(GravityPrior{}, 0, y)
	if err != nil {
		t.Fatalf("non-convergence must not fail the bin: %v", err)
	}
	if x == nil {
		t.Fatal("estimate dropped")
	}
	if diag.IPFConverged {
		t.Error("diag should report non-convergence")
	}
	if diag.IPFSweeps != 1 {
		t.Errorf("diag sweeps = %d, want 1", diag.IPFSweeps)
	}

	stats := estimateSeries(t, rm, truth, GravityPrior{}, WithIPF(1e-15, 1)).Stats
	if stats.Bins != truth.Len() {
		t.Errorf("stats.Bins = %d, want %d", stats.Bins, truth.Len())
	}
	if stats.IPFNonConverged == 0 {
		t.Error("RunStats should count IPF non-convergences")
	}
	if stats.IPFSweepsTotal < stats.IPFNonConverged {
		t.Errorf("sweep total %d inconsistent with %d non-converged bins",
			stats.IPFSweepsTotal, stats.IPFNonConverged)
	}
}

// TestRunStatsConvergedRun: on a well-conditioned run every bin converges
// and the stats must say so.
func TestRunStatsConvergedRun(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 3, 0.1, 34)
	stats := estimateSeries(t, rm, truth, GravityPrior{}).Stats
	if stats.IPFNonConverged != 0 {
		t.Errorf("unexpected non-convergences: %d", stats.IPFNonConverged)
	}
	if stats.IPFSweepsTotal == 0 {
		t.Error("IPF ran but no sweeps recorded")
	}
}

// TestSkipIPFDiag: with IPF disabled the diag must stay neutral.
func TestSkipIPFDiag(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 2, 0.1, 35)
	stats := estimateSeries(t, rm, truth, GravityPrior{}, WithSkipIPF(true)).Stats
	if stats.IPFNonConverged != 0 || stats.IPFSweepsTotal != 0 {
		t.Errorf("SkipIPF run recorded IPF activity: %+v", stats)
	}
}
