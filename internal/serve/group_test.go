package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/synth"
)

// groupFixture is a 28-bin ISPLike(12) stream — long enough for the
// workers to run ahead of the collector — mixing clean bins with every
// per-bin defect the engine handles in band: lossy bins (a few Missing
// links), one bin below the observability floor (prior fallback), one
// wrong-length bin and one bin with a NaN marginal row.
func groupFixture(t *testing.T) (synth.Scenario, *routing.Matrix, []Bin) {
	t.Helper()
	sc := synth.ISPLike(12)
	sc.BinsPerWeek = 28
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	bins := testBins(t, sc, d)
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bins {
		switch {
		case i == 5:
			for l := 0; l <= rm.L/2; l++ { // more than half the links lost
				bins[i].Missing = append(bins[i].Missing, l)
			}
		case i == 11:
			bins[i].Y = bins[i].Y[:len(bins[i].Y)-1]
		case i == 17:
			bins[i].Y = append([]float64(nil), bins[i].Y...)
			bins[i].Y[rm.L] = math.NaN()
		case i%7 == 2:
			bins[i].Missing = []int{i % rm.L, (i + 3) % rm.L}
		}
	}
	return sc, rm, bins
}

// referenceEstimate is the engine's per-bin semantics spelled out: the
// wire bin's observation, then Estimator.EstimateBin alone.
func referenceEstimate(ref *estimation.Estimator, prior estimation.Prior, rm *routing.Matrix, b Bin) Estimate {
	y, err := binObservation(b, rm)
	if err != nil {
		return Estimate{T: b.T, Error: err.Error()}
	}
	x, diag, err := ref.EstimateBin(prior, b.T, y)
	if err != nil {
		return Estimate{T: b.T, Error: err.Error()}
	}
	return Estimate{T: b.T, N: rm.N, Estimate: x.Vec(), Diag: diag}
}

// requireSameEstimate fails unless got equals want in every field, the
// estimate bit for bit.
func requireSameEstimate(t *testing.T, label string, got, want Estimate) {
	t.Helper()
	if got.T != want.T || got.N != want.N || got.Error != want.Error || got.Diag != want.Diag {
		t.Fatalf("%s bin %d: got t=%d n=%d err=%q diag=%+v, want t=%d n=%d err=%q diag=%+v",
			label, want.T, got.T, got.N, got.Error, got.Diag, want.T, want.N, want.Error, want.Diag)
	}
	if len(got.Estimate) != len(want.Estimate) {
		t.Fatalf("%s bin %d: %d flows, want %d", label, want.T, len(got.Estimate), len(want.Estimate))
	}
	for k, v := range got.Estimate {
		if math.Float64bits(v) != math.Float64bits(want.Estimate[k]) {
			t.Fatalf("%s bin %d flow %d: %x, want %x", label, want.T, k,
				math.Float64bits(v), math.Float64bits(want.Estimate[k]))
		}
	}
}

// TestEngineGroupsMatchEstimateBinBitwise: a stream whose bins spread
// over the engine's workers serves, for every bin, exactly what
// EstimateBin returns for it alone — estimate bits, BinDiag and in-band
// error text — for plain, weighted and SkipIPF sessions at 1, 2 and 8
// workers.
func TestEngineGroupsMatchEstimateBinBitwise(t *testing.T) {
	sc, rm, bins := groupFixture(t)
	state := estimation.PriorState{Name: "ic-stable-f", F: 0.25}
	prior, err := state.Prior(sc.N)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []struct {
		name              string
		weighted, skipIPF bool
	}{
		{"plain", false, false},
		{"weighted", true, false},
		{"skipipf", false, true},
	}
	for _, ss := range sessions {
		ref, err := estimation.NewEstimator(rm, estimation.WithWeighted(ss.weighted), estimation.WithSkipIPF(ss.skipIPF))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Estimate, len(bins))
		for i, b := range bins {
			want[i] = referenceEstimate(ref, prior, rm, b)
		}
		for _, workers := range []int{1, 2, 8} {
			engine := NewEngine(workers)
			if _, _, err := engine.RegisterTopology("isp", sc.Topology()); err != nil {
				t.Fatal(err)
			}
			handle, _, err := engine.RegisterPrior("isp", state)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.EstimateBatch(context.Background(),
				SessionSpec{Topology: "isp", Prior: handle, Weighted: ss.weighted, SkipIPF: ss.skipIPF}, bins)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(bins) {
				t.Fatalf("%s workers=%d: %d estimates for %d bins", ss.name, workers, len(got), len(bins))
			}
			for i := range got {
				requireSameEstimate(t, fmt.Sprintf("%s workers=%d", ss.name, workers), got[i], want[i])
			}
		}
	}
}

// TestEngineConcurrentStreamsShareEstimator: several streams of one
// registered session run at once over the one pooled Estimator (and its
// solver's scratch pool) and each serves EstimateBin's bytes. Run under
// -race, it covers the state the pooled solver shares between streams.
func TestEngineConcurrentStreamsShareEstimator(t *testing.T) {
	sc, rm, bins := groupFixture(t)
	state := estimation.PriorState{Name: "gravity"}
	ref, err := estimation.NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Estimate, len(bins))
	for i, b := range bins {
		want[i] = referenceEstimate(ref, estimation.GravityPrior{}, rm, b)
	}
	engine := NewEngine(2)
	if _, _, err := engine.RegisterTopology("isp", sc.Topology()); err != nil {
		t.Fatal(err)
	}
	handle, _, err := engine.RegisterPrior("isp", state)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 4
	got := make([][]Estimate, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], errs[s] = engine.EstimateBatch(context.Background(), SessionSpec{Topology: "isp", Prior: handle}, bins)
		}(s)
	}
	wg.Wait()
	for s := 0; s < streams; s++ {
		if errs[s] != nil {
			t.Fatalf("stream %d: %v", s, errs[s])
		}
		if len(got[s]) != len(bins) {
			t.Fatalf("stream %d: %d estimates for %d bins", s, len(got[s]), len(bins))
		}
		for i := range bins {
			requireSameEstimate(t, fmt.Sprintf("stream %d", s), got[s][i], want[i])
		}
	}
	if st := engine.Stats(); st.Bins != streams*int64(len(bins)) {
		t.Fatalf("stats count %d bins, want %d", st.Bins, streams*len(bins))
	}
}
