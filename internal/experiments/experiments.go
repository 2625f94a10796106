// Package experiments regenerates every figure of the paper's evaluation
// on the synthetic substrates (see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results). Each FigNN
// function returns a structured Result that the CLI and the benchmark
// harness print or assert on.
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"ictm/internal/core"
	"ictm/internal/estimation"
	"ictm/internal/fit"
	"ictm/internal/parallel"
	"ictm/internal/routing"
	"ictm/internal/stats"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// ErrConfig reports invalid experiment configuration.
var ErrConfig = errors.New("experiments: invalid config")

// Config scales the experiments. Scale 1.0 is full paper scale (2016
// five-minute bins per week for the Géant-like data); smaller values
// shrink the bins-per-week proportionally for quick runs, never below
// two weeks of 7 bins/day.
type Config struct {
	Scale float64
	// Workers bounds how many figures RunAll regenerates concurrently
	// and is forwarded to the estimation pipeline's per-chunk fan-out:
	// 0 selects GOMAXPROCS, 1 the plain sequential loop. The bound
	// applies per fan-out level (up to Workers figures × Workers chunks
	// in flight; Go multiplexes them over GOMAXPROCS OS threads).
	// Every figure is deterministic from the scenario seeds, so results
	// are identical for any value.
	Workers int
}

// Default returns cfg with zero fields filled.
func (c Config) Default() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Scale > 1 {
		c.Scale = 1
	}
	return c
}

// Series is one plotted line: X positions and Y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is a regenerated figure.
type Result struct {
	ID      string
	Title   string
	Series  []Series
	Summary map[string]float64
	Notes   string
}

// datasetT abbreviates the dataset type in per-figure loop tables.
type datasetT = synth.Dataset

// World lazily generates and caches datasets, weekly fits, topologies
// and routing matrices shared by the figures. Every cache is a per-key
// once-memo, so a World is safe for concurrent use by several figure
// runners: the first requester of a key computes it, concurrent
// requesters of the same key wait, distinct keys compute in parallel.
// All cached artifacts are deterministic functions of the scenario
// seeds, so computation order never affects results.
type World struct {
	cfg        Config
	datasets   parallel.Memo[*synth.Dataset]
	weekFits   parallel.Memo[*fit.Result]
	routes     parallel.Memo[*routing.Matrix]
	estimators parallel.Memo[*estimation.Estimator]
	gravErrs   parallel.Memo[[]float64]
}

// NewWorld returns an empty cache for the configuration.
func NewWorld(cfg Config) *World {
	return &World{cfg: cfg.Default()}
}

// GravityEstimationErrors returns cached per-bin errors of the
// gravity-prior estimation pipeline for one week of a dataset.
func (w *World) GravityEstimationErrors(d *synth.Dataset, week int) ([]float64, error) {
	key := fmt.Sprintf("%s/w%d", d.Scenario.Name, week)
	return w.gravErrs.Get(key, func() ([]float64, error) {
		est, err := w.Estimator(d)
		if err != nil {
			return nil, err
		}
		truth, err := d.Week(week)
		if err != nil {
			return nil, err
		}
		r, err := est.EstimateSeries(truth, estimation.GravityPrior{})
		if err != nil {
			return nil, err
		}
		return r.Errors, nil
	})
}

// scaledScenario shrinks a preset's bins-per-week by the configured
// scale, keeping whole days (multiples of 7 bins) so the weekend logic
// stays meaningful.
func (w *World) scaledScenario(sc synth.Scenario) synth.Scenario {
	bpw := int(float64(sc.BinsPerWeek) * w.cfg.Scale)
	perDay := bpw / 7
	// At least 4 bins per day so one diurnal harmonic stays below the
	// Nyquist bound in the Fig. 9 analysis.
	if perDay < 4 {
		perDay = 4
	}
	sc.BinsPerWeek = perDay * 7
	return sc
}

// Geant returns the (scaled) Géant-like dataset.
func (w *World) Geant() (*synth.Dataset, error) { return w.dataset(synth.GeantLike()) }

// Totem returns the (scaled) Totem-like dataset.
func (w *World) Totem() (*synth.Dataset, error) { return w.dataset(synth.TotemLike()) }

func (w *World) dataset(sc synth.Scenario) (*synth.Dataset, error) {
	sc = w.scaledScenario(sc)
	sc.Workers = w.cfg.Workers // wall-clock only: output is identical for any value
	return w.datasets.Get(sc.Name, func() (*synth.Dataset, error) {
		d, err := synth.Generate(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: generate %s: %w", sc.Name, err)
		}
		return d, nil
	})
}

// WeekFit returns the cached stable-fP fit of one week of a dataset.
func (w *World) WeekFit(d *synth.Dataset, week int) (*fit.Result, error) {
	key := fmt.Sprintf("%s/w%d", d.Scenario.Name, week)
	return w.weekFits.Get(key, func() (*fit.Result, error) {
		series, err := d.Week(week)
		if err != nil {
			return nil, err
		}
		r, err := fit.StableFP(series, fit.Options{Workers: w.cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", key, err)
		}
		return r, nil
	})
}

// Routing returns a cached routing matrix for a scenario-sized Waxman
// topology (the synthetic stand-in for the Géant/Totem backbones).
func (w *World) Routing(d *synth.Dataset) (*routing.Matrix, error) {
	return w.routes.Get(d.Scenario.Name, func() (*routing.Matrix, error) {
		g, err := topology.Waxman(d.Scenario.N, 0.6, 0.4, d.Scenario.Seed)
		if err != nil {
			return nil, err
		}
		return routing.Build(g)
	})
}

// Estimator returns a cached estimation session for a scenario, shared
// by every estimation figure: one tomogravity solver per topology, with
// the world's worker bound forwarded to the per-chunk fan-out.
func (w *World) Estimator(d *synth.Dataset) (*estimation.Estimator, error) {
	return w.estimators.Get(d.Scenario.Name, func() (*estimation.Estimator, error) {
		rm, err := w.Routing(d)
		if err != nil {
			return nil, err
		}
		return estimation.NewEstimator(rm, estimation.WithWorkers(w.cfg.Workers))
	})
}

// meanOf returns the arithmetic mean of the finite elements of xs
// (0 for empty). Non-finite elements — e.g. per-pair improvements where
// the baseline error was 0 — are excluded so one undefined bin cannot
// poison a figure's summary statistics.
func meanOf(xs []float64) float64 {
	m, _ := stats.FiniteMean(xs)
	return m
}

// indexSeries wraps ys as a Series with X = 0..len-1.
func indexSeries(name string, ys []float64) Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return Series{Name: name, X: xs, Y: ys}
}

// improvementSeries computes per-bin percentage improvement of model
// errors over gravity errors for a fitted week.
func improvementSeries(series *tm.Series, res *fit.Result) ([]float64, error) {
	icErrs, err := fit.RelL2PerBin(res, series)
	if err != nil {
		return nil, err
	}
	gravErrs, err := gravityErrors(series)
	if err != nil {
		return nil, err
	}
	return tm.ImprovementSeries(gravErrs, icErrs)
}

// extremeNodes returns the indices of the largest, median and smallest
// entries of vals (the paper's Fig. 9 node selection).
func extremeNodes(vals []float64) (largest, median, smallest int) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx[0], idx[len(idx)/2], idx[len(idx)-1]
}

// binParamsActivity extracts node i's fitted activity time series.
func binParamsActivity(sp *core.SeriesParams, i int) []float64 {
	out := make([]float64, sp.T)
	for t := 0; t < sp.T; t++ {
		out[t] = sp.Activity[t][i]
	}
	return out
}
