package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// testScenario is a small, fast end-to-end substrate: the ISP family at
// n=12 with a two-bin-per-day week.
func testScenario(t testing.TB) (synth.Scenario, *synth.Dataset) {
	t.Helper()
	sc := synth.ISPLike(12)
	sc.BinsPerWeek = 14
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc, d
}

// testBins converts the dataset's bins to link-load observations.
func testBins(t testing.TB, sc synth.Scenario, d *synth.Dataset) []Bin {
	t.Helper()
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]Bin, d.Series.Len())
	for i := range bins {
		y, err := rm.LinkLoads(d.Series.At(i))
		if err != nil {
			t.Fatal(err)
		}
		bins[i] = Bin{T: i, Y: y}
	}
	return bins
}

// TestEngineMatchesEstimateBinBitwise: the served estimates equal
// Estimator.EstimateBin run in-process, bit for bit, for workers=1 and
// workers=8 — the engine adds orchestration, never arithmetic.
func TestEngineMatchesEstimateBinBitwise(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	spec := StreamSpec{
		Topology: sc.Topology(),
		Prior:    estimation.PriorState{Name: "gravity"},
	}

	// In-process reference.
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := estimation.NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		engine := NewEngine(workers)
		got, err := engine.EstimateBatchInline(context.Background(), spec, bins)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(bins) {
			t.Fatalf("workers=%d: %d estimates for %d bins", workers, len(got), len(bins))
		}
		for i, est := range got {
			if est.Error != "" {
				t.Fatalf("workers=%d bin %d: %s", workers, i, est.Error)
			}
			if est.T != i || est.N != sc.N {
				t.Fatalf("workers=%d bin %d: t=%d n=%d", workers, i, est.T, est.N)
			}
			want, diag, err := ref.EstimateBin(estimation.GravityPrior{}, i, bins[i].Y)
			if err != nil {
				t.Fatal(err)
			}
			if est.Diag != diag {
				t.Fatalf("workers=%d bin %d: diag %+v vs %+v", workers, i, est.Diag, diag)
			}
			for k, v := range est.Estimate {
				if math.Float64bits(v) != math.Float64bits(want.Vec()[k]) {
					t.Fatalf("workers=%d bin %d flow %d: %g vs %g", workers, i, k, v, want.Vec()[k])
				}
			}
		}
	}
}

// TestEngineSolverPoolSharedAcrossEquivalentSpecs: streams naming the
// same topology — even through different-but-equivalent descriptors —
// share one lazily-built solver.
func TestEngineSolverPoolSharedAcrossEquivalentSpecs(t *testing.T) {
	engine := NewEngine(1)
	a := topology.Spec{Family: topology.FamilyWaxman, N: 10, Seed: 3}
	b := topology.Spec{Family: topology.FamilyWaxman, N: 10, Seed: 3, Alpha: 0.6, Beta: 0.4}
	sa, err := engine.entryFor(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := engine.entryFor(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.est != sb.est || sa.rm != sb.rm {
		t.Error("equivalent specs built separate solvers")
	}
	if _, err := engine.entryFor(topology.Spec{Family: topology.FamilyWaxman, N: 11, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().Topologies; got != 2 {
		t.Errorf("pool holds %d topologies, want 2", got)
	}
}

// TestEngineSolverPoolLRUBounded: the pool never exceeds its cap,
// evicts the least-recently-used topology, keeps recently-used entries
// shared, and deterministically rebuilds an evicted topology on the
// next request.
func TestEngineSolverPoolLRUBounded(t *testing.T) {
	engine := NewEngine(1)
	engine.maxTopologies = 2
	spec := func(seed uint64) topology.Spec {
		return topology.Spec{Family: topology.FamilyRingChords, N: 5, Chords: 1, Seed: seed}
	}
	get := func(s topology.Spec) *estimation.Estimator {
		t.Helper()
		ent, err := engine.entryFor(s)
		if err != nil {
			t.Fatal(err)
		}
		return ent.est
	}
	a1 := get(spec(1))
	b1 := get(spec(2))
	get(spec(1)) // refresh A: B becomes the LRU entry
	get(spec(3)) // C evicts B
	if got := get(spec(1)); got != a1 {
		t.Error("recently-used entry was evicted")
	}
	if got := get(spec(2)); got == b1 {
		t.Error("evicted entry not rebuilt")
	}
	st := engine.Stats()
	if st.Topologies != 2 || st.TopologiesEvicted != 2 {
		t.Errorf("stats = %+v, want 2 pooled / 2 evicted", st)
	}
}

// TestEnginePerBinErrorsFlowInBand: a malformed bin reports on its own
// estimate, later bins keep flowing, and the telemetry counts it.
func TestEnginePerBinErrorsFlowInBand(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)[:3]
	bins[1] = Bin{T: 1, Y: []float64{1, 2, 3}} // wrong length
	engine := NewEngine(2)
	got, err := engine.EstimateBatchInline(context.Background(), StreamSpec{
		Topology: sc.Topology(),
		Prior:    estimation.PriorState{Name: "gravity"},
	}, bins)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Error != "" || got[2].Error != "" {
		t.Fatalf("good bins failed: %q / %q", got[0].Error, got[2].Error)
	}
	if got[1].Error == "" || !strings.Contains(got[1].Error, "load vector of 3") {
		t.Fatalf("bad bin error = %q", got[1].Error)
	}
	st := engine.Stats()
	if st.Bins != 3 || st.BinErrors != 1 || st.Streams != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEngineOpenRejectsBadSpecs: invalid topologies and priors fail at
// Open with ErrStream.
func TestEngineOpenRejectsBadSpecs(t *testing.T) {
	engine := NewEngine(1)
	if _, err := engine.OpenInline(context.Background(), StreamSpec{
		Topology: topology.Spec{Family: "bogus", N: 5},
	}); !errors.Is(err, ErrStream) {
		t.Errorf("bad topology: %v", err)
	}
	if _, err := engine.OpenInline(context.Background(), StreamSpec{
		Topology: topology.Spec{Family: topology.FamilyRingChords, N: 6, Seed: 1},
		Prior:    estimation.PriorState{Name: "bogus"},
	}); !errors.Is(err, ErrStream) {
		t.Errorf("bad prior: %v", err)
	}
	// A failed topology build is cached as its error, not rebuilt.
	if _, err := engine.OpenInline(context.Background(), StreamSpec{
		Topology: topology.Spec{Family: "bogus", N: 5},
	}); !errors.Is(err, ErrStream) {
		t.Errorf("cached bad topology: %v", err)
	}
}

// TestEngineStreamUnbounded: the streaming interface serves an input
// fed and consumed concurrently, preserving submission order, with the
// stable-f prior exercising prior state over the wire shape.
func TestEngineStreamUnbounded(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	engine := NewEngine(4)
	stream, err := engine.OpenInline(context.Background(), StreamSpec{
		Topology: sc.Topology(),
		Prior:    estimation.PriorState{Name: "ic-stable-f", F: 0.25},
		SkipIPF:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		next := 0
		for est := range stream.Out() {
			if est.T != next {
				done <- fmt.Errorf("estimate %d arrived at position %d", est.T, next)
				return
			}
			if est.Error != "" {
				done <- fmt.Errorf("bin %d: %s", est.T, est.Error)
				return
			}
			if est.N != sc.N {
				done <- fmt.Errorf("bin %d: n=%d, want %d", est.T, est.N, sc.N)
				return
			}
			if est.Diag.IPFSweeps != 0 {
				done <- fmt.Errorf("bin %d ran IPF under SkipIPF", est.T)
				return
			}
			next++
		}
		if next != len(bins) {
			done <- fmt.Errorf("drained %d of %d", next, len(bins))
			return
		}
		done <- nil
	}()
	for _, b := range bins {
		stream.Submit(b)
	}
	stream.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestEngineLinkLoads: the observation helper matches routing.LinkLoads
// on the same topology.
func TestEngineLinkLoads(t *testing.T) {
	spec := topology.Spec{Family: topology.FamilyRingChords, N: 5, Chords: 1, Seed: 2}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	x := tm.New(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, float64(1+i*5+j))
		}
	}
	want, err := rm.LinkLoads(x)
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(1)
	got, err := engineLinkLoads(engine, spec, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// engineLinkLoads returns Y = R·vec(x) for spec's routing matrix, read
// from (and lazily built into) the engine's pool entry.
func engineLinkLoads(e *Engine, spec topology.Spec, x *tm.TrafficMatrix) ([]float64, error) {
	ent, err := e.entryFor(spec)
	if err != nil {
		return nil, err
	}
	return ent.rm.LinkLoads(x)
}
