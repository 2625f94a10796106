package estimation

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"ictm/internal/faults"
	"ictm/internal/linalg"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// stallInputs returns a solver over g's routing matrix whose LSQR budget
// is one iteration — too few for any of these systems to converge — plus
// one bin's observation and a deliberately wrong (gravity) prior.
func stallInputs(t *testing.T, g *topology.Graph) (*Solver, *tm.TrafficMatrix, []float64) {
	t.Helper()
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, rm)
	s.maxIter = 1
	x := tm.New(rm.N)
	v := floatStream(uint64(rm.N))
	for k := range x.Vec() {
		x.Vec()[k] = math.Exp(2 * v())
	}
	y, err := rm.LinkLoads(x)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := GravityPrior{}.PriorFor(0, x.Ingress(), x.Egress())
	if err != nil {
		t.Fatal(err)
	}
	return s, prior, y
}

// stallSolver builds the stall fixture: a paper-scale n=10 system, or
// (large) an n=50 one. The case names keep the size cap of an earlier
// policy, under which a stall at n=10 ("within-cap") escalated to a
// dense SVD and one at n=50 ("above-cap") kept the iterate; today both
// keep the iterate.
func stallSolver(t *testing.T, large bool) (*Solver, *tm.TrafficMatrix, []float64) {
	t.Helper()
	g, err := topology.Waxman(10, 0.6, 0.4, 3)
	if large {
		g, err = topology.BackboneStub(50, 0, 3)
	}
	if err != nil {
		t.Fatal(err)
	}
	return stallInputs(t, g)
}

// iterate is the estimate a stalled solve keeps: prior + W^{1/2}·z for
// LSQR's one-iteration correction z of the (masked, scaled) system,
// recomputed here without the Solver.
func iterate(t *testing.T, s *Solver, prior *tm.TrafficMatrix, y []float64, keep []bool, weighted bool) *tm.TrafficMatrix {
	t.Helper()
	res, err := s.residual(nil, prior, y, keep)
	if err != nil {
		t.Fatal(err)
	}
	var op linalg.Op = s.rm.CSR()
	var sqrtw []float64
	if weighted {
		sqrtw = sqrtWeights(nil, prior)
		op = linalg.NewColScaled(op, sqrtw)
	}
	if keep != nil {
		op = linalg.NewRowMasked(op, keep)
	}
	z, rep, err := linalg.LSQR(op, res, linalg.LSQROptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Fatal("one LSQR iteration converged; the stall test exercises nothing")
	}
	return addCorrection(prior, z, sqrtw)
}

func requireBitwise(t *testing.T, got, want *tm.TrafficMatrix, label string) {
	t.Helper()
	a, b := got.Vec(), want.Vec()
	for k := range b {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("%s: flow %d = %g, want %g", label, k, a[k], b[k])
		}
	}
}

// TestStallPolicy pins the one stall policy shared by all iterative
// solves: a stalled solve, at any size, weighted or not, masked or not,
// keeps LSQR's iterate bit for bit and reports the stall.
func TestStallPolicy(t *testing.T) {
	for _, tc := range []struct {
		name          string
		large, masked bool
		weighted      bool
	}{
		{"unweighted-within-cap", false, false, false},
		{"weighted-within-cap", false, false, true},
		{"unweighted-masked", false, true, false},
		{"weighted-masked", false, true, true},
		{"unweighted-above-cap", true, false, false},
		{"weighted-above-cap", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, prior, y := stallSolver(t, tc.large)
			var keep []bool
			if tc.masked {
				keep = make([]bool, len(y))
				for i := range keep {
					keep[i] = i != 0
				}
			}
			got, pr, err := s.Project(prior, y, keep, tc.weighted)
			if err != nil {
				t.Fatal(err)
			}
			if !pr.Stalled || pr.Iterations != 1 {
				t.Fatalf("projection %+v, want Stalled after 1 iteration", pr)
			}
			requireBitwise(t, got, iterate(t, s, prior, y, keep, tc.weighted), "kept iterate")
		})
	}
}

// TestStallWireFlags: EstimateBin reports every stall, weighted or not,
// as project_stalled with the LSQR iterations it spent, and its estimate
// is the kept iterate clamped and rebalanced by IPF.
func TestStallWireFlags(t *testing.T) {
	for _, tc := range []struct {
		name            string
		weighted, large bool
	}{
		{"unweighted-within-cap", false, false},
		{"weighted-within-cap", true, false},
		{"weighted-above-cap", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, prior, y := stallSolver(t, tc.large)
			opts := options{Weighted: tc.weighted}
			est := &Estimator{solver: s, opts: opts, reg: &priorRegistry{}}
			got, diag, err := est.EstimateBin(GravityPrior{}, 0, y)
			if err != nil {
				t.Fatal(err)
			}
			if !diag.ProjectStalled || diag.LSQRIterations != 1 {
				t.Fatalf("diag %+v, want ProjectStalled after 1 iteration", diag)
			}
			if wire, err := json.Marshal(diag); err != nil || !strings.Contains(string(wire), `"project_stalled":true`) {
				t.Fatalf("wire form %s (%v), want project_stalled", wire, err)
			}
			want := iterate(t, s, prior, y, nil, tc.weighted)
			_, ing, eg, err := s.rm.SplitLoads(y)
			if err != nil {
				t.Fatal(err)
			}
			if err := finishBin(s, want, ing, eg, opts, &BinDiag{}); err != nil {
				t.Fatal(err)
			}
			requireBitwise(t, got, want, "EstimateBin under a stall")
		})
	}
}

// TestWarmBlockedStallMatchesCold: the blocked warm path settles a
// stalled bin by the same policy as Project. With a one-iteration
// budget every bin of both series is counted stalled after one
// iteration; every bin of the cold series is Project's kept iterate
// (clamped and rebalanced), and so is every bin of a warm block that
// starts cold — the first block of each chunk.
func TestWarmBlockedStallMatchesCold(t *testing.T) {
	rm, truth := warmFixture(t, 20)
	run := func(warm bool) (*Estimator, *SeriesResult) {
		est, err := NewEstimator(rm, WithWarmStart(warm))
		if err != nil {
			t.Fatal(err)
		}
		est.solver.maxIter = 1
		r, err := est.EstimateSeries(truth, GravityPrior{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.ProjectStalls != truth.Len() || r.Stats.LSQRIterationsTotal != truth.Len() {
			t.Fatalf("warm=%v stats %+v, want every one of %d bins stalled after 1 iteration", warm, r.Stats, truth.Len())
		}
		return est, r
	}
	est, cold := run(false)
	_, warm := run(true)
	if warm.Stats.WarmStartedBins == 0 {
		t.Fatal("no bin took the blocked warm path")
	}
	s := est.solver
	for b := 0; b < truth.Len(); b++ {
		y, err := rm.LinkLoads(truth.At(b))
		if err != nil {
			t.Fatal(err)
		}
		_, ing, eg, err := rm.SplitLoads(y)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := GravityPrior{}.PriorFor(b, ing, eg)
		if err != nil {
			t.Fatal(err)
		}
		want := iterate(t, s, prior, y, nil, false)
		if err := finishBin(s, want, ing, eg, est.opts, &BinDiag{}); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, cold.Estimates.At(b), want, fmt.Sprintf("cold bin %d", b))
		if b%warmChunkBins < warmBlockK {
			requireBitwise(t, warm.Estimates.At(b), want, fmt.Sprintf("warm bin %d (cold-started block)", b))
		}
	}
}

// TestProjectReportFormsMatchProject: the two result-shape forms kept for
// the icbench stage tracer are Project, bit for bit, with its stall flag
// and iteration count.
func TestProjectReportFormsMatchProject(t *testing.T) {
	s, prior, y := stallSolver(t, false)
	keep := make([]bool, len(y))
	for i := range keep {
		keep[i] = i != 0
	}
	for _, k := range [][]bool{nil, keep} {
		want, pr, err := s.Project(prior, y, k, false)
		if err != nil {
			t.Fatal(err)
		}
		got, stalled, iters, err := s.ProjectReport(prior, y)
		if k != nil {
			got, stalled, iters, err = s.ProjectMaskedReport(prior, y, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		if stalled != pr.Stalled || iters != pr.Iterations {
			t.Fatalf("mask %v: report (%v, %d), Project %+v", k != nil, stalled, iters, pr)
		}
		requireBitwise(t, got, want, "report form")
	}
}

// TestServedShapesNeverStall is the check that the service's traffic
// never needed a stall escalation: on each shape the benchmark serves —
// GeantLike(22) plain and weighted, ISPLike(40) through the lossy fault
// profile and after one link failure applied by routing.Patch (the
// churn workload's PATCH path), ISPLike(100) — no bin stalls, and the
// mean LSQR iterations per solved bin stay within a quarter of the
// default budget 4·(rows+cols).
func TestServedShapesNeverStall(t *testing.T) {
	// The benchmark's scenarios: a GeantLike week of 5-minute bins and
	// ISPLike weeks of hourly bins.
	hourly := func(sc synth.Scenario) synth.Scenario {
		sc.BinsPerWeek, sc.BinSeconds, sc.Weeks = 7*24, 3600, 1
		return sc
	}
	geant := synth.GeantLike()
	geant.Weeks = 1
	for _, tc := range []struct {
		name   string
		sc     synth.Scenario
		day    int // bins per day; the first day is skipped, as the service's workloads skip their calibration day
		bins   int
		opts   []Option
		patch  bool
		priors func(d *synth.Dataset) []Prior
	}{
		{"geant-22", geant, 288, 24, nil, false, icPriors},
		{"geant-22-weighted", geant, 288, 24, []Option{WithWeighted(true)}, false, icPriors},
		{"isp-40-lossy", hourly(synth.ISPLike(40)), 24, 24, []Option{WithFaultInjection(faults.Lossy(), 5)}, false, icPriors},
		{"isp-40-patched", hourly(synth.ISPLike(40)), 24, 24, nil, true, icPriors},
		{"isp-100", hourly(synth.ISPLike(100)), 24, 8, nil, false, func(d *synth.Dataset) []Prior {
			return []Prior{&StableFPrior{F: d.Scenario.F}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := synth.Generate(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			g, err := tc.sc.Topology().Build()
			if err != nil {
				t.Fatal(err)
			}
			rm, err := routing.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			if tc.patch {
				fl, err := synth.GenerateFlaps(tc.sc, g, 1)
				if err != nil {
					t.Fatal(err)
				}
				if rm, _, err = routing.Patch(rm, g, fl.Events[0].Down()); err != nil {
					t.Fatal(err)
				}
			}
			truth, err := d.Series.Slice(tc.day, tc.day+tc.bins)
			if err != nil {
				t.Fatal(err)
			}
			budget := 4 * (rm.Rows() + rm.N*rm.N)
			for _, prior := range tc.priors(d) {
				st := estimateSeries(t, rm, truth, prior, tc.opts...).Stats
				solved := st.Bins - st.PriorFallbacks
				if st.ProjectStalls != 0 {
					t.Errorf("%s: %d of %d bins stalled", prior.Name(), st.ProjectStalls, st.Bins)
				}
				if solved == 0 || st.LSQRIterationsTotal > solved*budget/4 {
					t.Errorf("%s: %d LSQR iterations over %d solved bins, want at most budget/4 = %d per bin",
						prior.Name(), st.LSQRIterationsTotal, solved, budget/4)
				}
			}
		})
	}
}

// icPriors returns gravity and the IC stable-fP prior — the priors the
// service's benchmark registers on GeantLike (the churn workload
// registers the latter) — with the scenario's latent parameters
// standing in for the fitted ones.
func icPriors(d *synth.Dataset) []Prior {
	return []Prior{GravityPrior{}, &StableFPPrior{F: d.Scenario.F, Pref: d.TruePref}}
}
