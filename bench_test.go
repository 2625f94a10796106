package ictm

import (
	"context"
	"math"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/experiments"
	"ictm/internal/faults"
	"ictm/internal/fit"
	"ictm/internal/linalg"
	"ictm/internal/packet"
	"ictm/internal/routing"
	"ictm/internal/serve"
	"ictm/internal/store"
	"ictm/internal/synth"
	"ictm/internal/topology"
)

// Figure benchmarks regenerate each experiment of the paper end to end
// at a reduced scale (the figure pipelines are deterministic, so the
// shape conclusions match the full-scale runs in EXPERIMENTS.md; run
// cmd/icexperiments for paper scale).
const benchScale = 0.02

func benchFigure(b *testing.B, run func(*experiments.World) (*experiments.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := experiments.NewWorld(experiments.Config{Scale: benchScale})
		if _, err := run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Example regenerates the 3-node worked example (Fig. 2).
func BenchmarkFig2Example(b *testing.B) { benchFigure(b, experiments.Fig2) }

// BenchmarkFig3FitImprovement regenerates the IC-vs-gravity fit
// comparison (Fig. 3).
func BenchmarkFig3FitImprovement(b *testing.B) { benchFigure(b, experiments.Fig3) }

// BenchmarkFig4TraceF regenerates the packet-trace f measurement (Fig. 4).
func BenchmarkFig4TraceF(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig5WeeklyF regenerates the weekly-f stability sweep (Fig. 5).
func BenchmarkFig5WeeklyF(b *testing.B) { benchFigure(b, experiments.Fig5) }

// BenchmarkFig6WeeklyP regenerates the weekly preference overlay (Fig. 6).
func BenchmarkFig6WeeklyP(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig7PCCDF regenerates the preference CCDF fits (Fig. 7).
func BenchmarkFig7PCCDF(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkFig8PvsEgress regenerates the preference-vs-egress scatter
// (Fig. 8).
func BenchmarkFig8PvsEgress(b *testing.B) { benchFigure(b, experiments.Fig8) }

// BenchmarkFig9ASeries regenerates the activity time-series extraction
// (Fig. 9).
func BenchmarkFig9ASeries(b *testing.B) { benchFigure(b, experiments.Fig9) }

// BenchmarkFig10Asymmetry regenerates the routing-asymmetry ablation
// (Fig. 10).
func BenchmarkFig10Asymmetry(b *testing.B) { benchFigure(b, experiments.Fig10) }

// BenchmarkFig11EstOptimal regenerates the all-parameters-measured
// estimation comparison (Fig. 11).
func BenchmarkFig11EstOptimal(b *testing.B) { benchFigure(b, experiments.Fig11) }

// BenchmarkFig12EstStableFP regenerates the previous-week-(f,P)
// estimation comparison (Fig. 12).
func BenchmarkFig12EstStableFP(b *testing.B) { benchFigure(b, experiments.Fig12) }

// BenchmarkFig13EstStableF regenerates the only-f-known estimation
// comparison (Fig. 13).
func BenchmarkFig13EstStableF(b *testing.B) { benchFigure(b, experiments.Fig13) }

// --- sequential-vs-parallel benchmarks of the concurrency layer ---
//
// The Workers option promises bit-identical results for any value, so
// these pairs measure pure wall-clock: the speedup of the parallel
// execution layer is benchmarked, not claimed.

// benchRunAll regenerates every figure with the given worker bound.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := experiments.NewWorld(experiments.Config{Scale: benchScale, Workers: workers})
		if _, err := experiments.RunAll(w, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllExperimentsSequential is the legacy path: one figure at
// a time, one bin at a time.
func BenchmarkRunAllExperimentsSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllExperimentsParallel fans figures and estimation bins
// out over all CPUs.
func BenchmarkRunAllExperimentsParallel(b *testing.B) { benchRunAll(b, 0) }

// benchEstimationWorkers sweeps one synthetic week through the gravity
// pipeline with the given worker bound.
func benchEstimationWorkers(b *testing.B, workers int) {
	b.Helper()
	d := benchSeries(b, 22, 112)
	g, err := topology.Waxman(22, 0.6, 0.4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	est, err := estimation.NewEstimator(rm, estimation.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateSeries(d.Series, GravityPrior{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimationRunSequential estimates bins one at a time.
func BenchmarkEstimationRunSequential(b *testing.B) { benchEstimationWorkers(b, 1) }

// BenchmarkEstimationRunParallel estimates bins on all CPUs.
func BenchmarkEstimationRunParallel(b *testing.B) { benchEstimationWorkers(b, 0) }

// --- micro-benchmarks of the hot kernels ---

func benchSeries(b *testing.B, n, bins int) *Dataset {
	b.Helper()
	sc := GeantLike()
	sc.N = n
	sc.BinsPerWeek = bins
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkModelEvaluate measures one 22-node IC-model evaluation.
func BenchmarkModelEvaluate(b *testing.B) {
	d := benchSeries(b, 22, 14)
	params := &Params{F: 0.25, Activity: d.TrueActivity[0], Pref: d.TruePref}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := params.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitStableFPWeek measures fitting one (reduced) week.
func BenchmarkFitStableFPWeek(b *testing.B) {
	d := benchSeries(b, 22, 56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.StableFP(d.Series, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActivityFromMarginals measures the eq. 8 pseudo-inverse
// recovery for n=22.
func BenchmarkActivityFromMarginals(b *testing.B) {
	d := benchSeries(b, 22, 14)
	x := d.Series.At(0)
	ing, eg := x.Ingress(), x.Egress()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ActivityFromMarginals(0.25, d.TruePref, ing, eg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStableFPPriorFor100 measures the steady-state per-bin cost
// of the stable-fP prior at n=100: one reused instance, so the eq. 8
// decomposition is paid before the timer starts and each op is the two
// dense passes of (QΦ)⁺ plus the model evaluation.
func BenchmarkStableFPPriorFor100(b *testing.B) { benchStableFPPriorFor(b, false) }

// BenchmarkStableFPPriorForFresh100 is the same bin through a new
// instance per op, so every op pays the full decomposition: the per-bin
// cost a prior re-read from the store (or a v1 inline request) pays.
func BenchmarkStableFPPriorForFresh100(b *testing.B) { benchStableFPPriorFor(b, true) }

func benchStableFPPriorFor(b *testing.B, fresh bool) {
	d := benchSeries(b, 100, 2)
	x := d.Series.At(0)
	ing, eg := x.Ingress(), x.Egress()
	prior := &StableFPPrior{F: 0.25, Pref: d.TruePref}
	if _, err := prior.PriorFor(0, ing, eg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prior
		if fresh {
			p = &StableFPPrior{F: 0.25, Pref: d.TruePref}
		}
		if _, err := p.PriorFor(0, ing, eg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTomogravityProject measures one projection step with a
// cached routing factorization (the per-bin cost of estimation).
func BenchmarkTomogravityProject(b *testing.B) {
	g, err := topology.Waxman(22, 0.6, 0.4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := estimation.NewSolver(rm)
	if err != nil {
		b.Fatal(err)
	}
	d := benchSeries(b, 22, 14)
	x := d.Series.At(0)
	y, err := rm.LinkLoads(x)
	if err != nil {
		b.Fatal(err)
	}
	prior, err := GravityFromMarginals(x.Ingress(), x.Egress())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.Project(prior, y, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- solver-startup benchmarks (eager dense SVD vs sparse-first) ---

// benchISPRouting builds the backbone-stub routing matrix of the
// ISPLike family at the given n.
func benchISPRouting(b *testing.B, n int) *RoutingMatrix {
	b.Helper()
	g, err := topology.BackboneStub(n, 0, synth.ISPLike(n).Seed)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	return rm
}

// BenchmarkNewSolverSparse measures the default solver startup at n=50:
// O(nnz) bookkeeping, no factorization. The PR 3 acceptance criterion
// requires >= 10x over BenchmarkNewSolverDenseSVD at this scale.
func BenchmarkNewSolverSparse(b *testing.B) {
	rm := benchISPRouting(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimation.NewSolver(rm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSolverDenseSVD measures the seed's startup on identical
// inputs: the eager Jacobi SVD of the dense R that every run used to pay
// before a single bin was estimated. No production path factors R any
// more; the benchmark keeps the cost the sparse-first solver avoids on
// record. R is materialized outside the timed loop, as the seed cached
// it.
func BenchmarkNewSolverDenseSVD(b *testing.B) {
	dense := benchISPRouting(b, 50).CSR().Dense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.NewSVD(dense); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ISP-like large-topology estimation benchmarks ---

// benchEstimationISPLike runs the full unweighted pipeline (solver
// startup + per-bin LSQR projection + IPF) over a reduced-bin ISPLike
// week at the given n. Infeasible for n in the hundreds before the
// sparse-first solver: the startup SVD alone was O((L+2n)²·n²).
func benchEstimationISPLike(b *testing.B, n int) {
	b.Helper()
	sc := synth.ISPLike(n)
	sc.BinsPerWeek = 7
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	rm := benchISPRouting(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := estimation.NewEstimator(rm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.EstimateSeries(d.Series, GravityPrior{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimationISPLike50 estimates a reduced ISPLike(50) week.
func BenchmarkEstimationISPLike50(b *testing.B) { benchEstimationISPLike(b, 50) }

// BenchmarkEstimationISPLike100 estimates a reduced ISPLike(100) week
// (the scale CI's bench-smoke step exercises every run).
func BenchmarkEstimationISPLike100(b *testing.B) { benchEstimationISPLike(b, 100) }

// BenchmarkEstimationISPLike200 estimates a reduced ISPLike(200) week —
// 40 000 OD flows per bin.
func BenchmarkEstimationISPLike200(b *testing.B) { benchEstimationISPLike(b, 200) }

// --- series benchmarks (blocked EstimateSeries vs a per-bin loop) ---

// benchEstimateSeriesISPLike measures the steady-state series sweep: a
// 32-bin ISPLike week against a pre-built estimation session with one
// worker, solver startup excluded — unlike benchEstimationISPLike,
// which includes it. The Cold lanes estimate the series bin by bin
// (link loads, EstimateBin, RelL2 per bin; one standalone LSQR per
// bin). The Warm lanes run EstimateSeries, whose 16-bin chunks solve
// their bins as LSQRMulti blocks with bitwise-identical results; the
// lane names predate that path and are kept so the pinned baselines
// and CI's -min-ratio floor still apply.
func benchEstimateSeriesISPLike(b *testing.B, n int, blocked bool) {
	b.Helper()
	sc := synth.ISPLike(n)
	sc.BinsPerWeek = 32
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	rm := benchISPRouting(b, n)
	est, err := estimation.NewEstimator(rm, estimation.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocked {
			if _, err := est.EstimateSeries(d.Series, GravityPrior{}); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for t := 0; t < d.Series.Len(); t++ {
			y, err := rm.LinkLoads(d.Series.At(t))
			if err != nil {
				b.Fatal(err)
			}
			x, _, err := est.EstimateBin(GravityPrior{}, t, y)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RelL2(d.Series.At(t), x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEstimateSeriesCold100 estimates the 32-bin ISPLike(100)
// series bin by bin (one standalone LSQR per bin).
func BenchmarkEstimateSeriesCold100(b *testing.B) { benchEstimateSeriesISPLike(b, 100, false) }

// BenchmarkEstimateSeriesWarm100 estimates the same series through
// EstimateSeries (LSQRMulti blocks of up to 16 bins). CI pins the
// Cold/Warm ratio via benchcheck -min-ratio.
func BenchmarkEstimateSeriesWarm100(b *testing.B) { benchEstimateSeriesISPLike(b, 100, true) }

// BenchmarkEstimateSeriesCold200 is the bin-by-bin loop at n=200
// (40 000 OD flows per bin).
func BenchmarkEstimateSeriesCold200(b *testing.B) { benchEstimateSeriesISPLike(b, 200, false) }

// BenchmarkEstimateSeriesWarm200 is EstimateSeries at n=200.
func BenchmarkEstimateSeriesWarm200(b *testing.B) { benchEstimateSeriesISPLike(b, 200, true) }

// --- topology-mutation benchmarks (incremental patch vs full rebuild) ---

// benchPatchSetup builds the live-mutation fixture: the ISPLike(100)
// backbone-stub graph, its routing matrix, an estimation session with
// registered priors, and a single-link flap delta (the first event of
// the scenario's deterministic failure schedule).
func benchPatchSetup(b *testing.B) (*Graph, *RoutingMatrix, *Estimator, TopologyDelta) {
	b.Helper()
	sc := synth.ISPLike(100)
	g, err := topology.BackboneStub(sc.N, 0, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	est, err := estimation.NewEstimator(rm)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range benchPatchPriors() {
		if _, err := est.RegisterPrior(st); err != nil {
			b.Fatal(err)
		}
	}
	sched, err := synth.GenerateFlaps(sc, g, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, rm, est, sched.Events[0].Down()
}

// benchPatchPriors is the registered calibration state both sides of the
// pair must end up holding (carried by Rebase, re-registered by the
// rebuild).
func benchPatchPriors() []PriorState {
	return []PriorState{{Name: "gravity"}, {Name: "ic-stable-f", F: 0.25}}
}

// BenchmarkTopologyPatch measures the live-mutation path a single-link
// failure costs an open estimation session: routing.Patch (2n Dijkstra
// sweeps per side + fraction passes for the touched pairs only, where a
// rebuild runs one for all n² pairs) followed by Estimator.Rebase (prior
// instances reused, nothing re-validated). The incremental-patch
// acceptance criterion requires >= 10x over BenchmarkTopologyRebuild at
// this scale.
func BenchmarkTopologyPatch(b *testing.B) {
	g, rm, est, delta := benchPatchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm, _, err := routing.Patch(rm, g, delta)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.Rebase(pm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyRebuild measures the same mutation from scratch on
// identical inputs: apply the delta, rebuild the full routing matrix
// (2n Dijkstra sweeps + n² ECMP fraction passes), open a fresh
// estimation session, and re-register the priors — the only way to
// follow a topology change before the delta pipeline.
func BenchmarkTopologyRebuild(b *testing.B) {
	g, _, _, delta := benchPatchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ng, _, err := g.Apply(delta)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := routing.Build(ng)
		if err != nil {
			b.Fatal(err)
		}
		est, err := estimation.NewEstimator(rm)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range benchPatchPriors() {
			if _, err := est.RegisterPrior(st); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- weighted-projection benchmarks (dense SVD vs sparse LSQR) ---

// benchWeightedSetup builds the shared fixtures of the weighted
// projection pair: a 22-node routing matrix and its solver plus one
// bin's observation and gravity prior (the default benchmark scale of
// the PR 2 acceptance criterion).
func benchWeightedSetup(b *testing.B) (*RoutingMatrix, *estimation.Solver, *TrafficMatrix, []float64) {
	b.Helper()
	g, err := topology.Waxman(22, 0.6, 0.4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := estimation.NewSolver(rm)
	if err != nil {
		b.Fatal(err)
	}
	d := benchSeries(b, 22, 14)
	x := d.Series.At(0)
	y, err := rm.LinkLoads(x)
	if err != nil {
		b.Fatal(err)
	}
	prior, err := GravityFromMarginals(x.Ingress(), x.Egress())
	if err != nil {
		b.Fatal(err)
	}
	return rm, solver, prior, y
}

// BenchmarkProjectWeightedDense measures the legacy weighted projection
// that BenchmarkProjectWeightedLSQR replaced, on identical inputs: per
// bin, the residual y − R·prior, a copy of the dense R scaled by
// W^{1/2} = diag(sqrt(max(prior, 1e-3·mean))), and the minimum-norm
// solve of that system by a fresh Jacobi SVD. No production path runs
// it; it keeps the replaced cost on record.
func BenchmarkProjectWeightedDense(b *testing.B) {
	rm, _, prior, y := benchWeightedSetup(b)
	dense := rm.CSR().Dense()
	pv := prior.Vec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rm.CSR().MulVec(pv)
		if err != nil {
			b.Fatal(err)
		}
		for k := range res {
			res[k] = y[k] - res[k]
		}
		var mean float64
		for _, v := range pv {
			mean += v
		}
		floor := 1e-3 * mean / float64(len(pv))
		sqrtw := make([]float64, len(pv))
		for c, v := range pv {
			sqrtw[c] = math.Sqrt(max(v, floor))
		}
		rw := dense.Clone()
		for r := 0; r < rw.Rows(); r++ {
			row := rw.Row(r)
			for c := range row {
				row[c] *= sqrtw[c]
			}
		}
		if _, err := linalg.SolveMinNorm(rw, res, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectWeightedLSQR measures the production weighted
// projection on identical inputs; the PR 2 acceptance criterion
// requires >= 10x over BenchmarkProjectWeightedDense at this scale.
func BenchmarkProjectWeightedLSQR(b *testing.B) {
	_, solver, prior, y := benchWeightedSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.Project(prior, y, nil, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- fitter and generator worker-sweep benchmarks ---

// benchFitTimeVarying fits the fully time-varying variant with the
// given worker bound (results are bit-identical for any value, so the
// pair measures pure wall-clock).
func benchFitTimeVarying(b *testing.B, workers int) {
	b.Helper()
	d := benchSeries(b, 22, 56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.TimeVarying(d.Series, fit.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitTimeVaryingSeq runs the per-bin fits one at a time.
func BenchmarkFitTimeVaryingSeq(b *testing.B) { benchFitTimeVarying(b, 1) }

// BenchmarkFitTimeVaryingPar fans the per-bin fits over all CPUs.
func BenchmarkFitTimeVaryingPar(b *testing.B) { benchFitTimeVarying(b, 0) }

// benchSynthGenerate realizes a one-week Geant-like scenario with the
// given worker bound.
func benchSynthGenerate(b *testing.B, workers int) {
	b.Helper()
	sc := GeantLike()
	sc.BinsPerWeek = 112
	sc.Weeks = 1
	sc.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthGenerateSeq generates bins one at a time.
func BenchmarkSynthGenerateSeq(b *testing.B) { benchSynthGenerate(b, 1) }

// BenchmarkSynthGeneratePar generates bins on all CPUs.
func BenchmarkSynthGeneratePar(b *testing.B) { benchSynthGenerate(b, 0) }

// BenchmarkRoutingBuild measures full ECMP routing-matrix construction
// for a 22-node Waxman topology.
func BenchmarkRoutingBuild(b *testing.B) {
	g, err := topology.Waxman(22, 0.6, 0.4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Build(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceMatch measures 5-tuple matching + SYN orientation on a
// half-hour trace.
func BenchmarkTraceMatch(b *testing.B) {
	tr, err := packet.GenerateBidirectional(packet.TraceConfig{
		Duration: 1800, ConnRatePerSide: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := packet.Match(tr.AB, tr.BA)
		if len(m.Connections) == 0 {
			b.Fatal("no connections matched")
		}
	}
}

// BenchmarkIPF measures iterative proportional fitting on a 22-node
// matrix.
func BenchmarkIPF(b *testing.B) {
	d := benchSeries(b, 22, 14)
	x := d.Series.At(0)
	rows, cols := x.Ingress(), x.Egress()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := x.Clone()
		if _, err := estimation.IPF(work, rows, cols, 1e-9, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// benchEstimation runs the estimation pipeline over a small fixture with
// the given session options, for pipeline-variant ablations.
func benchEstimation(b *testing.B, opts ...EstimatorOption) {
	b.Helper()
	d := benchSeries(b, 12, 14)
	g, err := topology.Waxman(12, 0.6, 0.4, 2)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	est, err := NewEstimator(rm, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateSeries(d.Series, GravityPrior{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEstimationWithIPF is the default pipeline (step 3 on).
func BenchmarkAblationEstimationWithIPF(b *testing.B) {
	benchEstimation(b)
}

// BenchmarkAblationEstimationNoIPF drops step 3 (IPF) to measure its
// cost share.
func BenchmarkAblationEstimationNoIPF(b *testing.B) {
	benchEstimation(b, WithSkipIPF(true))
}

// BenchmarkAblationEstimationWeighted swaps step 2 for the
// prior-weighted tomogravity variant (per-bin refactorization).
func BenchmarkAblationEstimationWeighted(b *testing.B) {
	benchEstimation(b, WithWeighted(true))
}

// BenchmarkAblationFitSimplified and ...FitGeneral compare the
// simplified (3-parameter-family) and general (per-pair f) fitters on
// the same series.
func BenchmarkAblationFitSimplified(b *testing.B) {
	d := benchSeries(b, 14, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.StableFP(d.Series, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFitGeneral(b *testing.B) {
	d := benchSeries(b, 14, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.General(d.Series, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFitTryMirror measures the mirror-guard's 2x cost.
func BenchmarkAblationFitTryMirror(b *testing.B) {
	d := benchSeries(b, 14, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.StableFP(d.Series, fit.Options{TryMirror: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving-engine benchmarks (registered handles vs inline v1) ---

// benchEngineBins builds the shared fixture of the engine pair: a
// GeantLike observation batch on the scenario's own topology.
func benchEngineBins(b *testing.B) (topology.Spec, []serve.Bin) {
	b.Helper()
	sc := synth.GeantLike()
	sc.BinsPerWeek = 14
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	spec := sc.Topology()
	g, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]serve.Bin, d.Series.Len())
	for i := range bins {
		y, err := rm.LinkLoads(d.Series.At(i))
		if err != nil {
			b.Fatal(err)
		}
		bins[i] = serve.Bin{T: i, Y: y}
	}
	return spec, bins
}

// BenchmarkEngineRegisteredPrior measures the v2 session path: the
// topology and prior are registered once and every batch references
// them by handle — the steady-state per-request cost the register-once
// API is supposed to win on (the PR 5 acceptance criterion requires
// parity or better against BenchmarkEngineInlinePrior).
func BenchmarkEngineRegisteredPrior(b *testing.B) {
	spec, bins := benchEngineBins(b)
	engine := serve.NewEngine(1)
	if _, _, err := engine.RegisterTopology("bench", spec); err != nil {
		b.Fatal(err)
	}
	handle, _, err := engine.RegisterPrior("bench", estimation.PriorState{Name: "ic-stable-f", F: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	session := serve.SessionSpec{Topology: "bench", Prior: handle}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.EstimateBatch(context.Background(), session, bins)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(bins) {
			b.Fatalf("%d estimates for %d bins", len(out), len(bins))
		}
	}
}

// BenchmarkEngineInlinePrior measures the v1 inline path on identical
// inputs: the topology descriptor and prior state are re-validated on
// every batch.
func BenchmarkEngineInlinePrior(b *testing.B) {
	spec, bins := benchEngineBins(b)
	engine := serve.NewEngine(1)
	stream := serve.StreamSpec{Topology: spec, Prior: estimation.PriorState{Name: "ic-stable-f", F: 0.25}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.EstimateBatchInline(context.Background(), stream, bins)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(bins) {
			b.Fatalf("%d estimates for %d bins", len(out), len(bins))
		}
	}
}

// --- stream grouping benchmarks (a served day vs per-bin solves) ---

// benchDay100 builds the grouping pair's fixture: one day of 24 clean
// hourly ISPLike(100) observations — the shape of an icserve backfill
// request — with its routing matrix and an IC stable-f prior state.
func benchDay100(b *testing.B) (topology.Spec, *RoutingMatrix, []serve.Bin, estimation.PriorState) {
	b.Helper()
	sc := synth.ISPLike(100)
	sc.BinsPerWeek = 24
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	spec := sc.Topology()
	g, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]serve.Bin, d.Series.Len())
	for i := range bins {
		y, err := rm.LinkLoads(d.Series.At(i))
		if err != nil {
			b.Fatal(err)
		}
		bins[i] = serve.Bin{T: i, Y: y}
	}
	return spec, rm, bins, estimation.PriorState{Name: "ic-stable-f", F: 0.25}
}

// BenchmarkEngineDay100 serves the day through Engine.EstimateBatch on
// one worker: the stream's pending bins are estimated in groups, whose
// clean bins share one blocked LSQRMulti solve. The CI gate holds it at
// least 1.3x faster than BenchmarkEstimateBinDay100 (benchcheck
// -min-ratio).
func BenchmarkEngineDay100(b *testing.B) {
	spec, _, bins, state := benchDay100(b)
	engine := serve.NewEngine(1)
	if _, _, err := engine.RegisterTopology("bench", spec); err != nil {
		b.Fatal(err)
	}
	handle, _, err := engine.RegisterPrior("bench", state)
	if err != nil {
		b.Fatal(err)
	}
	session := serve.SessionSpec{Topology: "bench", Prior: handle}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.EstimateBatch(context.Background(), session, bins)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(bins) {
			b.Fatalf("%d estimates for %d bins", len(out), len(bins))
		}
		for _, est := range out {
			if est.Error != "" {
				b.Fatal(est.Error)
			}
		}
	}
}

// BenchmarkEstimateBinDay100 estimates the same day one EstimateBin
// call per bin: one standalone LSQR solve each.
func BenchmarkEstimateBinDay100(b *testing.B) {
	_, rm, bins, state := benchDay100(b)
	est, err := estimation.NewEstimator(rm)
	if err != nil {
		b.Fatal(err)
	}
	prior, err := est.RegisterPrior(state)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bin := range bins {
			if _, _, err := est.EstimateBin(prior, bin.T, bin.Y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationRoutingRingVsWaxman compares routing-matrix build
// cost across topology families of equal size.
func BenchmarkAblationRoutingRing(b *testing.B) {
	g, err := topology.RingChords(22, 14, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Build(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- robustness benchmarks (clean vs masked degraded solve) ---

// benchEstimateBinFixture builds the per-bin estimation fixture of the
// robustness pair: one GeantLike observation and an estimator on the
// scenario's own topology.
func benchEstimateBinFixture(b *testing.B) (*estimation.Estimator, *routing.Matrix, []float64) {
	b.Helper()
	sc := synth.GeantLike()
	sc.BinsPerWeek = 14
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	g, err := sc.Topology().Build()
	if err != nil {
		b.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	y, err := rm.LinkLoads(d.Series.At(0))
	if err != nil {
		b.Fatal(err)
	}
	est, err := estimation.NewEstimator(rm)
	if err != nil {
		b.Fatal(err)
	}
	return est, rm, y
}

// BenchmarkEstimateBinClean measures one per-bin solve on a fully
// reported observation. The robustness PR's acceptance criterion pins
// this path: observation validation and the mask check must stay within
// 5% of the pre-fault-model cost (benchcheck -max-ratio 1.05 against
// BENCH_pr7.json).
func BenchmarkEstimateBinClean(b *testing.B) {
	est, _, y := benchEstimateBinFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateBin(estimation.GravityPrior{}, 0, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateBinLossy measures the same solve degraded by the
// lossy fault profile: ~20% of link reports are NaN, so every iteration
// takes the masked-LSQR path (row-masked operator, no dense fallback)
// instead of the clean projection.
func BenchmarkEstimateBinLossy(b *testing.B) {
	est, rm, y := benchEstimateBinFixture(b)
	faults.NewInjector(faults.Lossy(), 1, rm.L).Apply(0, y, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, diag, err := est.EstimateBin(estimation.GravityPrior{}, 0, y)
		if err != nil {
			b.Fatal(err)
		}
		if !diag.Degraded {
			b.Fatal("lossy observation did not degrade the solve")
		}
	}
}

// benchWarmOpenSpec is the restart-benchmark substrate: the ISP-like
// backbone at n=100, the same scale the solver benchmarks pin.
func benchWarmOpenSpec() topology.Spec { return synth.ISPLike(100).Topology() }

// BenchmarkEngineColdOpen measures a replica opening a registered
// session with nothing but the descriptor: a fresh engine pays the full
// routing.Build (2n Dijkstra sweeps + n² ECMP fraction passes) plus
// solver construction before it can serve — the restart cost the
// shared artifact store exists to avoid.
func BenchmarkEngineColdOpen(b *testing.B) {
	spec := benchWarmOpenSpec()
	state := estimation.PriorState{Name: "gravity"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := serve.NewEngine(1)
		if _, _, err := engine.RegisterTopology("bench", spec); err != nil {
			b.Fatal(err)
		}
		if _, _, err := engine.RegisterPrior("bench", state); err != nil {
			b.Fatal(err)
		}
		if s := engine.Stats(); s.RoutingBuilds != 1 {
			b.Fatalf("cold open paid %d routing builds, want 1", s.RoutingBuilds)
		}
	}
}

// BenchmarkEngineStoreWarmOpen measures the same session reopened from
// a pre-seeded shared store: a fresh engine per iteration warm-starts
// from disk — record walk, matrix decode, solver construction, zero
// routing.Build. The CI gate holds this at least 5x faster than
// BenchmarkEngineColdOpen (benchcheck -min-ratio; see BENCH_pr9.json).
func BenchmarkEngineStoreWarmOpen(b *testing.B) {
	spec := benchWarmOpenSpec()
	dir := b.TempDir()
	seedStore, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := serve.NewEngine(1, serve.WithStore(seedStore))
	if _, _, err := seed.RegisterTopology("bench", spec); err != nil {
		b.Fatal(err)
	}
	if _, _, err := seed.RegisterPrior("bench", estimation.PriorState{Name: "gravity"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		engine := serve.NewEngine(1, serve.WithStore(st))
		topos, priors, err := engine.WarmStart()
		if err != nil {
			b.Fatal(err)
		}
		if topos != 1 || priors != 1 {
			b.Fatalf("warm start restored %d topologies, %d priors; want 1, 1", topos, priors)
		}
		if s := engine.Stats(); s.RoutingBuilds != 0 {
			b.Fatalf("warm open paid %d routing builds, want 0", s.RoutingBuilds)
		}
	}
}
