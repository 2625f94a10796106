// Package ictm is the public facade of the independent-connection
// traffic-matrix library: a Go implementation of Erramilli, Crovella &
// Taft, "An Independent-Connection Model for Traffic Matrices"
// (IMC 2006), together with the substrates its evaluation needs.
//
// The facade re-exports the user-facing types from the internal
// packages so downstream code has a single import:
//
//	params := &ictm.Params{F: 0.25, Activity: acts, Pref: prefs}
//	x, err := params.Evaluate()           // build a TM from the model
//	res, err := ictm.FitStableFP(series)  // fit the model to data
//
//	est, err := ictm.NewEstimator(rm, ictm.WithWorkers(0))
//	r, err := est.EstimateSeries(truth, prior) // r.Estimates, r.Errors
//
// Sub-functionality map:
//
//   - model evaluation and closed-form estimators: Params, SeriesParams,
//     Phi, ActivityFromMarginals, MarginalInversion (internal/core)
//   - model fitting: FitStableFP, FitStableF, FitTimeVarying
//     (internal/fit)
//   - gravity baseline: GravityEstimate, GravityFromMarginals
//     (internal/gravity)
//   - synthetic scenarios: GenerateScenario, GeantLike, TotemLike,
//     ISPLike (internal/synth)
//   - topology + routing: NewWaxman, NewRingChords, NewBackboneStub,
//     BuildRouting (internal/topology, internal/routing)
//   - TM estimation: NewEstimator (sessions), priors, PriorState, IPF
//     (internal/estimation)
//   - packet traces: GenerateTrace, AnalyzeTrace (internal/packet)
//   - figure regeneration: RunAllExperiments (internal/experiments)
package ictm

import (
	"io"

	"ictm/internal/core"
	"ictm/internal/estimation"
	"ictm/internal/experiments"
	"ictm/internal/fit"
	"ictm/internal/gravity"
	"ictm/internal/packet"
	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/tmgen"
	"ictm/internal/topology"
)

// Core model types.
type (
	// Params is one bin's simplified-IC-model parameter set (f, A, P).
	Params = core.Params
	// GeneralParams carries per-pair forward ratios (eq. 1).
	GeneralParams = core.GeneralParams
	// SeriesParams holds a fitted parameter set for a whole series.
	SeriesParams = core.SeriesParams
	// Variant selects among the temporal model variants (eqs. 3-5).
	Variant = core.Variant
)

// Temporal variants.
const (
	TimeVarying = core.TimeVarying
	StableF     = core.StableF
	StableFP    = core.StableFP
)

// Traffic-matrix data model.
type (
	// TrafficMatrix is a single-interval OD byte matrix.
	TrafficMatrix = tm.TrafficMatrix
	// TMSeries is a time series of traffic matrices.
	TMSeries = tm.Series
)

// NewTrafficMatrix returns a zero n x n traffic matrix.
func NewTrafficMatrix(n int) *TrafficMatrix { return tm.New(n) }

// NewTMSeries returns an empty series over n nodes.
func NewTMSeries(n, binSeconds int) *TMSeries { return tm.NewSeries(n, binSeconds) }

// RelL2 is the paper's per-bin relative L2 error metric (eq. 6).
func RelL2(truth, est *TrafficMatrix) (float64, error) { return tm.RelL2(truth, est) }

// RelL2Spatial is the per-OD-pair relative L2 error across time.
func RelL2Spatial(truth, est *TMSeries) ([]float64, error) { return tm.RelL2Spatial(truth, est) }

// ErrZeroTruth reports a relative error against an all-zero true matrix
// with a non-zero estimate (the metric is undefined).
var ErrZeroTruth = tm.ErrZeroTruth

// ErrZeroPair is RelL2Spatial's per-pair counterpart of ErrZeroTruth: a
// zero-energy OD pair with a non-zero estimate has no defined relative
// error.
var ErrZeroPair = tm.ErrZeroPair

// Closed-form estimators (eqs. 8, 11-12).
var (
	// ActivityFromMarginals recovers activities from node totals given
	// (f, P) via the eq. 8 pseudo-inverse.
	ActivityFromMarginals = core.ActivityFromMarginals
	// MarginalInversion recovers activities and preferences from node
	// totals given only f (eqs. 11-12); fails with ErrSingularF at f=1/2.
	MarginalInversion = core.MarginalInversion
	// Phi builds the linear operator of eq. 7.
	Phi = core.Phi
	// ErrSingularF reports the f = 1/2 singularity.
	ErrSingularF = core.ErrSingularF
)

// Fitting.
type (
	// FitOptions tune the alternating least-squares fitter.
	FitOptions = fit.Options
	// FitResult carries fitted parameters and diagnostics.
	FitResult = fit.Result
)

// FitStableFP fits the stable-fP variant (one f, one P, per-bin A).
func FitStableFP(s *TMSeries, opts FitOptions) (*FitResult, error) { return fit.StableFP(s, opts) }

// FitStableF fits the stable-f variant (one f, per-bin P and A).
func FitStableF(s *TMSeries, opts FitOptions) (*FitResult, error) { return fit.StableF(s, opts) }

// FitTimeVarying fits all parameters per bin.
func FitTimeVarying(s *TMSeries, opts FitOptions) (*FitResult, error) {
	return fit.TimeVarying(s, opts)
}

// GeneralFitResult carries a fitted general-IC parameter set (per-pair
// forward ratios).
type GeneralFitResult = fit.GeneralResult

// FitGeneral fits the general IC model (eq. 1) — per-pair forward
// ratios — the variant the paper prescribes for networks with severe
// routing asymmetry.
func FitGeneral(s *TMSeries, opts FitOptions) (*GeneralFitResult, error) {
	return fit.General(s, opts)
}

// Gravity baseline.
var (
	// GravityEstimate builds the gravity fit of a matrix from its own
	// marginals.
	GravityEstimate = gravity.Estimate
	// GravityFromMarginals builds the gravity matrix from explicit node
	// totals.
	GravityFromMarginals = gravity.FromMarginals
)

// Synthetic scenarios.
type (
	// Scenario specifies a synthetic ground-truth ensemble.
	Scenario = synth.Scenario
	// Dataset is a generated ensemble plus its latent parameters.
	Dataset = synth.Dataset
)

var (
	// GeantLike is the D1 (Géant) stand-in preset.
	GeantLike = synth.GeantLike
	// TotemLike is the D2 (Totem) stand-in preset.
	TotemLike = synth.TotemLike
	// ISPLike is the parameterized large-topology family: GeantLike's
	// marginal/diurnal shape targets generalized to arbitrary n (pair it
	// with NewBackboneStub(n, 0, seed)).
	ISPLike = synth.ISPLike
	// GenerateScenario realizes a scenario deterministically.
	GenerateScenario = synth.Generate
)

// Topology and routing.
type (
	// Graph is a weighted directed network graph.
	Graph = topology.Graph
	// RoutingMatrix relates OD flows to link loads (Y = R·x).
	RoutingMatrix = routing.Matrix
)

var (
	// NewWaxman generates a Waxman random topology.
	NewWaxman = topology.Waxman
	// NewRingChords generates a ring-plus-chords topology.
	NewRingChords = topology.RingChords
	// NewBackboneStub generates the ISP-style backbone-plus-stub
	// topology behind the ISPLike scenario family (core <= 0 selects the
	// default backbone size).
	NewBackboneStub = topology.BackboneStub
	// BuildRouting constructs the ECMP routing matrix for a graph,
	// assembled directly in sparse (CSR) form.
	BuildRouting = routing.Build
)

// Live topology mutation: deltas, incremental routing updates, and
// failure/maintenance schedules.
type (
	// TopologyDelta is an ordered batch of link mutations (add, remove,
	// reweight) applied with Graph.Apply or PatchRouting.
	TopologyDelta = topology.Delta
	// TopologyDeltaOp is one mutation of a TopologyDelta.
	TopologyDeltaOp = topology.DeltaOp
	// FlapEvent is one scheduled link outage window; FlapSchedule a
	// week's worth of them.
	FlapEvent = synth.FlapEvent
	// FlapSchedule is a deterministic failure/maintenance schedule.
	FlapSchedule = synth.FlapSchedule
)

var (
	// PatchRouting updates a routing matrix for a topology delta
	// incrementally — bit-identical to BuildRouting on the mutated
	// graph, recomputing only the OD pairs the delta touches. Pair it
	// with Estimator.Rebase to move a live estimation session onto the
	// new topology.
	PatchRouting = routing.Patch
	// GenerateFlaps schedules link-flap events over one scenario week.
	GenerateFlaps = synth.GenerateFlaps
)

// TM estimation.
type (
	// Prior produces a starting matrix per bin for TM estimation.
	Prior = estimation.Prior
	// GravityPrior is the baseline prior.
	GravityPrior = estimation.GravityPrior
	// ICOptimalPrior uses fully measured IC parameters (Fig. 11).
	ICOptimalPrior = estimation.ICOptimalPrior
	// StableFPPrior carries (f, P) from a previous week (Fig. 12).
	StableFPPrior = estimation.StableFPPrior
	// StableFPrior knows only f (Fig. 13).
	StableFPrior = estimation.StableFPrior
	// FanoutPrior is the choice-model baseline (calibrated per-origin
	// destination shares).
	FanoutPrior = estimation.FanoutPrior
	// EstimationRunStats aggregates per-run IPF diagnostics.
	EstimationRunStats = estimation.RunStats

	// Estimator is the session-centric estimation entry point: built
	// once per routing matrix, it owns the tomogravity solver, the
	// worker bound, the link-noise policy and the IPF settings, and
	// exposes EstimateBin, EstimateSeries and Compare.
	Estimator = estimation.Estimator
	// EstimatorOption configures NewEstimator / Estimator.With.
	EstimatorOption = estimation.Option
	// EstimationSeriesResult is one prior's series sweep: estimates,
	// per-bin errors and aggregated diagnostics.
	EstimationSeriesResult = estimation.SeriesResult
	// PriorState is the serializable calibration state of a prior — what
	// a client registers once with the online estimation service (and
	// with Estimator.RegisterPrior) instead of re-shipping history.
	PriorState = estimation.PriorState
)

// Estimator options.
var (
	// WithWorkers bounds the per-chunk (and, in Compare, per-prior)
	// fan-out: 0 = GOMAXPROCS, 1 = sequential; results are bit-identical
	// for every value.
	WithWorkers = estimation.WithWorkers
	// WithWeighted selects the prior-weighted tomogravity projection.
	WithWeighted = estimation.WithWeighted
	// WithSkipIPF disables the marginal-fitting step 3.
	WithSkipIPF = estimation.WithSkipIPF
	// WithIPF tunes the proportional-fitting tolerance and sweep budget.
	WithIPF = estimation.WithIPF
	// WithLinkNoise injects seeded lognormal observation noise.
	WithLinkNoise = estimation.WithLinkNoise
)

// NewEstimator builds an estimation session for a routing matrix; see
// Estimator.
func NewEstimator(rm *RoutingMatrix, opts ...EstimatorOption) (*Estimator, error) {
	return estimation.NewEstimator(rm, opts...)
}

// NewFanoutPrior calibrates a fanout prior from a historical series.
var NewFanoutPrior = estimation.NewFanoutPrior

// IPF rescales a matrix to the given row/column totals (step 3). On
// non-convergence it returns an error wrapping ErrIPFNoConverge; the
// matrix still holds the last sweep's state.
var IPF = estimation.IPF

// ErrIPFNoConverge reports that IPF exhausted its sweep budget before
// reaching tolerance.
var ErrIPFNoConverge = estimation.ErrIPFNoConverge

// Packet traces (the D3 stand-in).
type (
	// TraceConfig drives the bidirectional trace generator.
	TraceConfig = packet.TraceConfig
	// Trace is a generated bidirectional flow trace.
	Trace = packet.Trace
	// FBin is a per-bin forward-ratio estimate.
	FBin = packet.FBin
)

var (
	// GenerateTrace synthesizes a bidirectional TCP flow trace.
	GenerateTrace = packet.GenerateBidirectional
	// AnalyzeTrace runs the Section 5.2 f-measurement methodology.
	AnalyzeTrace = packet.AnalyzeTrace
	// DefaultAppMix is the web-dominated application mix.
	DefaultAppMix = packet.DefaultMix
)

// Paper-style TM generation (Section 5.5) and forecasting.
type (
	// GenRecipe specifies a constructive IC-model TM generation.
	GenRecipe = tmgen.Recipe
	// ActivityModel is a fitted cyclostationary activity model.
	ActivityModel = tmgen.ActivityModel
)

var (
	// GenerateRecipe realizes a paper-style generation recipe, returning
	// the latent parameters and the evaluated series.
	GenerateRecipe = tmgen.Generate
	// FitActivityModel fits per-node harmonic activity models.
	FitActivityModel = tmgen.FitActivityModel
	// ExtendFromFit synthesizes future traffic from a fitted model.
	ExtendFromFit = tmgen.ExtendFromFit
)

// Experiments.
type (
	// ExperimentConfig scales the figure regenerations.
	ExperimentConfig = experiments.Config
	// ExperimentResult is one regenerated figure.
	ExperimentResult = experiments.Result
)

// RunAllExperiments regenerates every figure of the paper at the given
// scale, writing a report to out (nil for silent). Figures and the
// estimation bins inside them run concurrently under cfg.Workers
// (0 = GOMAXPROCS, 1 = sequential) with bit-identical results for any
// worker count.
func RunAllExperiments(cfg ExperimentConfig, out io.Writer) ([]*ExperimentResult, error) {
	return experiments.RunAll(experiments.NewWorld(cfg), out)
}
