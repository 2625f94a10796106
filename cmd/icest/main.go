// Command icest runs the TM-estimation comparison of Section 6 on a
// synthetic scenario: it generates ground truth, builds a topology
// (Waxman for the geant/totem presets, backbone-plus-stub for the
// parameterized isp family) and its ECMP routing matrix, runs the
// tomogravity pipeline with the gravity prior and the three IC priors,
// and prints per-prior error summaries.
//
// Usage:
//
//	icest -scenario geant -weeks 2 -scale 0.1 -workers 0
//	icest -scenario isp -n 200 -scale 0.02
//	icest -scenario isp -n 100 -scale 0.02 -fault-profile lossy
//
// -fault-profile corrupts the link observations fed to the estimator
// with a tiered measurement-fault model (internal/faults) — the run
// then appends a per-prior degradation report (degraded bins, dropped
// link equations, prior fallbacks) to the comparison table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ictm/internal/cliflag"
	"ictm/internal/estimation"
	"ictm/internal/faults"
	"ictm/internal/fit"
	"ictm/internal/routing"
	"ictm/internal/stats"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "icest: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against explicit arguments and streams, so tests
// can drive it without spawning a process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("icest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario  = fs.String("scenario", "geant", `preset: "geant", "totem" or "isp" (parameterized by -n)`)
		nodes     = fs.Int("n", 100, `PoP count for the "isp" scenario family (ignored by geant/totem)`)
		weeks     = fs.Int("weeks", 2, "weeks to generate (week 0 calibrates, week 1 is estimated)")
		scale     = fs.Float64("scale", 0.25, "bins-per-week scale factor (1 = full paper scale)")
		seed      = fs.Uint64("seed", 0, "override scenario seed (0 = preset default)")
		dense     = fs.Bool("dense", false, "force the dense SVD reference path for the projection step (cross-check; pays the factorization the default path avoids, once per bin with -weighted)")
		weighted  = fs.Bool("weighted", false, "use prior-weighted tomogravity (sparse LSQR fast path, or the weighted dense reference with -dense)")
		linkNoise = fs.Float64("linknoise", 0, "multiplicative lognormal noise sigma on link loads")
		flaps     = fs.Int("flaps", 0, `link-flap events scheduled over the estimated week ("isp" family only; 0 = steady topology)`)
		workers   = fs.Int("workers", 0, "concurrent workers for generation, fitting and estimation (0 = all CPUs, 1 = sequential); results are identical for any value")
		faultProf = fs.String("fault-profile", "", fmt.Sprintf(`measurement-fault profile corrupting the link observations fed to the estimator: one of %v (empty = clean)`, faults.Names()))
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}

	if *scenario != "isp" {
		cliflag.WarnIgnored(fs, stderr, "icest", fmt.Sprintf("with -scenario %s", *scenario), "n", "flaps")
	}
	if *flaps < 0 {
		return fmt.Errorf("-flaps must be non-negative, got %d", *flaps)
	}
	prof := faults.Clean()
	if *faultProf != "" {
		var err error
		if prof, err = faults.ByName(*faultProf); err != nil {
			return err
		}
	}
	var sc synth.Scenario
	switch *scenario {
	case "geant":
		sc = synth.GeantLike()
	case "totem":
		sc = synth.TotemLike()
	case "isp":
		sc = synth.ISPLike(*nodes)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if *weeks < 2 {
		return fmt.Errorf("need at least 2 weeks (calibration + target)")
	}
	sc.Weeks = *weeks
	if *seed != 0 {
		sc.Seed = *seed
	}
	perDay := int(float64(sc.BinsPerWeek)*(*scale)) / 7
	if perDay < 2 {
		perDay = 2
	}
	sc.BinsPerWeek = perDay * 7
	sc.Workers = *workers
	sc.FaultProfile = *faultProf

	fmt.Fprintf(stderr, "icest: generating %s (n=%d, %d bins/week, %d weeks)\n",
		sc.Name, sc.N, sc.BinsPerWeek, sc.Weeks)
	d, err := synth.Generate(sc)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	calib, err := d.Week(0)
	if err != nil {
		return fmt.Errorf("week 0: %w", err)
	}
	target, err := d.Week(1)
	if err != nil {
		return fmt.Errorf("week 1: %w", err)
	}

	fmt.Fprintln(stderr, "icest: fitting calibration week (stable-fP)")
	calibFit, err := fit.StableFP(calib, fit.Options{Workers: *workers})
	if err != nil {
		return fmt.Errorf("calibration fit: %w", err)
	}
	fmt.Fprintln(stderr, "icest: fitting target week (for the all-measured prior)")
	targetFit, err := fit.StableFP(target, fit.Options{Workers: *workers})
	if err != nil {
		return fmt.Errorf("target fit: %w", err)
	}

	// The scenario names its own evaluation topology (backbone-plus-stub
	// for the ISP family, Waxman for the paper-scale presets); building
	// through the shared descriptor keeps this run byte-identical to what
	// the estimation service would compute for the same scenario.
	g, err := sc.Topology().Build()
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		return fmt.Errorf("routing: %w", err)
	}
	fmt.Fprintf(stderr, "icest: topology has %d directed links, %d measurement rows\n",
		rm.L, rm.Rows())

	fanout, err := estimation.NewFanoutPrior(calib)
	if err != nil {
		return fmt.Errorf("fanout calibration: %w", err)
	}
	priors := []estimation.Prior{
		estimation.GravityPrior{},
		fanout,
		&estimation.ICOptimalPrior{Params: targetFit.Params},
		&estimation.StableFPPrior{F: calibFit.Params.F, Pref: calibFit.Params.Pref},
		&estimation.StableFPrior{F: calibFit.Params.F},
	}
	// One estimation session owns the solver and sweep policy; the
	// priors are the only per-call variation.
	estimator, err := estimation.NewEstimator(rm,
		estimation.WithWeighted(*weighted),
		estimation.WithDense(*dense),
		estimation.WithLinkNoise(*linkNoise, sc.Seed),
		estimation.WithWorkers(*workers),
		// Inert for the clean profile: the injector only engages when a
		// mechanism is active, so the no-fault path is byte-identical to
		// builds that predate fault modelling.
		estimation.WithFaultInjection(prof, sc.Seed),
	)
	if err != nil {
		return err
	}
	results, err := estimator.Compare(target, priors)
	if err != nil {
		return err
	}

	gravMean, _ := stats.FiniteMean(results["gravity"].Errors)
	fmt.Fprintf(stdout, "%-14s %-12s %-12s %-12s %s\n", "prior", "mean RelL2", "p95 RelL2", "vs gravity", "IPF non-conv")
	for _, p := range priors {
		errs := results[p.Name()].Errors
		rs := results[p.Name()].Stats
		p95, _ := stats.Quantile(errs, 0.95)
		mean, dropped := stats.FiniteMean(errs)
		imp := 0.0
		if gravMean != 0 {
			imp = 100 * (gravMean - mean) / gravMean
		}
		fmt.Fprintf(stdout, "%-14s %-12.4f %-12.4f %+-12.1f %d/%d\n",
			p.Name(), mean, p95, imp, rs.IPFNonConverged, rs.Bins)
		if dropped > 0 {
			fmt.Fprintf(stderr, "icest: prior %q: %d non-finite error bins excluded from the mean\n",
				p.Name(), dropped)
		}
		if rs.WeightedDenseFallbacks > 0 {
			fmt.Fprintf(stderr, "icest: prior %q: %d/%d bins fell back to the dense weighted path (LSQR stalled; sweep ran slower than the fast path promises)\n",
				p.Name(), rs.WeightedDenseFallbacks, rs.Bins)
		}
		if rs.ProjectStalls > 0 {
			fmt.Fprintf(stderr, "icest: prior %q: %d/%d bins stalled in the LSQR solve (unweighted: dense reference used when affordable; otherwise the almost-converged iterate)\n",
				p.Name(), rs.ProjectStalls, rs.Bins)
		}
	}
	fmt.Fprintf(stdout, "calibrated f = %.4f (true %.4f)\n", calibFit.Params.F, sc.F)

	// Degradation report: only under an active fault profile, so the
	// clean-path output (and its golden snapshots) stays byte-exact.
	if prof.Active() {
		fmt.Fprintf(stdout, "\nfault profile %s: degradation report\n", prof.Name)
		fmt.Fprintf(stdout, "%-14s %-14s %-14s %s\n", "prior", "degraded bins", "links dropped", "prior fallbacks")
		for _, p := range priors {
			rs := results[p.Name()].Stats
			fmt.Fprintf(stdout, "%-14s %-14s %-14d %d\n",
				p.Name(), fmt.Sprintf("%d/%d", rs.DegradedBins, rs.Bins), rs.LinksDroppedTotal, rs.PriorFallbacks)
		}
	}

	if *flaps > 0 && *scenario == "isp" {
		if prof.Active() {
			fmt.Fprintf(stderr, "icest: note: the flap report re-estimates on clean observations (-fault-profile applies to the steady-topology comparison only)\n")
		}
		return flapReport(stdout, stderr, sc, target, g, rm, estimator, priors, results, *flaps)
	}
	return nil
}

// flapReport re-estimates the target week under a deterministic
// failure/maintenance schedule: during each event's window one
// bidirectional link is out of service, the routing matrix is patched
// incrementally (routing.Patch) and the estimation session rebased onto
// it (Estimator.Rebase) — the live-mutation path the service uses,
// never a from-scratch rebuild. The truth traffic is unchanged; only
// the measurements move with the reroute. The report compares each
// prior's steady-topology error against its error through the flaps.
func flapReport(stdout, stderr io.Writer, sc synth.Scenario, target *tm.Series,
	g *topology.Graph, rm *routing.Matrix, base *estimation.Estimator,
	priors []estimation.Prior, steady map[string]*estimation.SeriesResult, k int) error {
	sched, err := synth.GenerateFlaps(sc, g, k)
	if err != nil {
		return fmt.Errorf("flap schedule: %w", err)
	}
	fmt.Fprintf(stderr, "icest: flapping %d links across the target week\n", k)

	cur, curEst := rm, base
	var curEv synth.FlapEvent
	haveEv := false
	downBins := 0
	flapErrs := make(map[string][]float64, len(priors))
	for tb := 0; tb < target.Len(); tb++ {
		// The schedule spans one week; fold longer targets onto it.
		ev, ok := sched.EventAt(tb % sc.BinsPerWeek)
		switch {
		case ok && (!haveEv || ev != curEv):
			pm, _, err := routing.Patch(rm, g, ev.Down())
			if err != nil {
				return fmt.Errorf("flap bin %d: patch: %w", tb, err)
			}
			pe, err := base.Rebase(pm)
			if err != nil {
				return fmt.Errorf("flap bin %d: rebase: %w", tb, err)
			}
			cur, curEst, curEv, haveEv = pm, pe, ev, true
		case !ok && haveEv:
			cur, curEst, haveEv = rm, base, false
		}
		if ok {
			downBins++
		}
		x := target.At(tb)
		y, err := cur.LinkLoads(x)
		if err != nil {
			return fmt.Errorf("flap bin %d: link loads: %w", tb, err)
		}
		for _, p := range priors {
			est, _, err := curEst.EstimateBin(p, tb, y)
			if err != nil {
				return fmt.Errorf("flap bin %d: prior %q: %w", tb, p.Name(), err)
			}
			rel, err := tm.RelL2(x, est)
			if err != nil {
				return fmt.Errorf("flap bin %d: prior %q: %w", tb, p.Name(), err)
			}
			flapErrs[p.Name()] = append(flapErrs[p.Name()], rel)
		}
	}

	fmt.Fprintf(stdout, "\nflap dynamics: %d events, %d/%d degraded bins\n", k, downBins, target.Len())
	fmt.Fprintf(stdout, "%-14s %-14s %-14s %s\n", "prior", "steady RelL2", "flapped RelL2", "degradation")
	for _, p := range priors {
		sMean, _ := stats.FiniteMean(steady[p.Name()].Errors)
		fMean, dropped := stats.FiniteMean(flapErrs[p.Name()])
		ratio := 0.0
		if sMean != 0 {
			ratio = fMean / sMean
		}
		fmt.Fprintf(stdout, "%-14s %-14.4f %-14.4f %.3fx\n", p.Name(), sMean, fMean, ratio)
		if dropped > 0 {
			fmt.Fprintf(stderr, "icest: flapped prior %q: %d non-finite error bins excluded from the mean\n",
				p.Name(), dropped)
		}
	}
	return nil
}
