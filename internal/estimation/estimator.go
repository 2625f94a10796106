package estimation

import (
	"fmt"
	"sync"

	"ictm/internal/faults"
	"ictm/internal/parallel"
	"ictm/internal/routing"
	"ictm/internal/tm"
)

// Estimator is the session-centric entry point of the estimation
// pipeline: build it once from a routing matrix and it owns every
// resource a sweep needs — the tomogravity Solver, the worker bound,
// the link-noise policy and the IPF settings — so per-call signatures
// carry only the data that changes (the prior and the observations).
//
// An Estimator is safe for concurrent use: its configuration is fixed
// at construction (With derives a new value instead of mutating) and
// the underlying Solver is read-only after NewSolver. Results are
// bit-identical for every Workers value, exactly as the wrapped
// pipeline promises.
type Estimator struct {
	solver *Solver
	opts   options
	// reg records the session's registered priors (state + instance) so
	// Rebase can carry them onto a new routing substrate. Shared across
	// With-derived estimators: they are one session over one solver.
	reg *priorRegistry
}

// registeredPrior pairs a prior's serialized calibration state with the
// instance RegisterPrior produced from it.
type registeredPrior struct {
	state PriorState
	prior Prior
}

// priorRegistry is the mutable part of an estimation session: the priors
// registered so far. Guarded by a mutex because RegisterPrior may be
// called concurrently with estimation traffic.
type priorRegistry struct {
	mu   sync.Mutex
	regs []registeredPrior
}

func (r *priorRegistry) add(state PriorState, p Prior) {
	r.mu.Lock()
	r.regs = append(r.regs, registeredPrior{state: state, prior: p})
	r.mu.Unlock()
}

func (r *priorRegistry) snapshot() []registeredPrior {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]registeredPrior(nil), r.regs...)
}

// Option configures an Estimator at construction (NewEstimator) or
// derivation (With).
type Option func(*options)

// WithWorkers bounds how many series chunks (EstimateSeries) or priors
// (Compare) are estimated concurrently: 0 selects GOMAXPROCS, 1 the
// plain sequential loop. Results are bit-identical for every value.
func WithWorkers(n int) Option { return func(o *options) { o.Workers = n } }

// WithWeighted switches the projection step to the prior-weighted
// tomogravity of Zhang et al.: the same LSQR solve, implicitly
// column-scaled by the prior.
func WithWeighted(on bool) Option { return func(o *options) { o.Weighted = on } }

// WithSkipIPF disables the marginal-fitting step 3 (ablation).
func WithSkipIPF(on bool) Option { return func(o *options) { o.SkipIPF = on } }

// WithIPF tunes the proportional-fitting tolerance and sweep budget;
// zero values select the defaults (1e-9, 200).
func WithIPF(tol float64, maxIter int) Option {
	return func(o *options) {
		o.IPFTol = tol
		o.IPFMaxIter = maxIter
	}
}

// WithLinkNoise injects multiplicative lognormal noise (sigma) into the
// observed link loads of EstimateSeries/Compare, seeded so comparisons
// across priors see identical noise. Zero sigma disables it.
func WithLinkNoise(sigma float64, seed uint64) Option {
	return func(o *options) {
		o.LinkNoiseSigma = sigma
		o.NoiseSeed = seed
	}
}

// WithFaultInjection corrupts the observed link loads of
// EstimateSeries/Compare through a tiered measurement-fault profile
// (counter wraparound, sampling noise, stale reports, missing links)
// before estimation sees them — the robustness test harness. Faults are
// keyed per (bin, link) from the seed, so results are bit-identical for
// every worker count and across priors. A zero-value (inactive) profile
// disables injection. Missing links surface as NaN entries, which the
// pipeline masks out of the solve rather than failing on.
func WithFaultInjection(p faults.Profile, seed uint64) Option {
	return func(o *options) {
		o.Fault = p
		o.FaultSeed = seed
	}
}

// NewEstimator builds an estimation session for a routing matrix: it
// constructs (and owns) the shared tomogravity Solver and fixes the
// pipeline configuration from the options.
func NewEstimator(rm *routing.Matrix, opts ...Option) (*Estimator, error) {
	solver, err := NewSolver(rm)
	if err != nil {
		return nil, err
	}
	e := &Estimator{solver: solver, reg: &priorRegistry{}}
	for _, o := range opts {
		o(&e.opts)
	}
	return e, nil
}

// With returns a derived estimator sharing this one's Solver with the
// additional options applied — the cheap way to vary per-session
// settings (weighted projection, SkipIPF, workers) over one pooled
// routing factorization. The receiver is not modified.
func (e *Estimator) With(opts ...Option) *Estimator {
	d := &Estimator{solver: e.solver, opts: e.opts, reg: e.reg}
	for _, o := range opts {
		o(&d.opts)
	}
	return d
}

// N returns the node count of the session's routing substrate
// (estimates are n×n).
func (e *Estimator) N() int { return e.solver.rm.N }

// Solver exposes the session's shared tomogravity solver for callers
// that drive the projection step directly (the icbench stage tracer).
func (e *Estimator) Solver() *Solver { return e.solver }

// RegisterPrior validates serialized calibration state against the
// session's network size and returns the instantiated prior — the
// register-once handle the Estimate*/Compare methods accept. A
// malformed state fails here, not inside the first estimated bin. The
// registration is remembered by the session (shared with With-derived
// estimators), so Rebase can carry it onto a new routing substrate.
func (e *Estimator) RegisterPrior(state PriorState) (Prior, error) {
	p, err := state.Prior(e.N())
	if err != nil {
		return nil, err
	}
	e.reg.add(state, p)
	return p, nil
}

// RegisteredPriors returns the session's registered priors in
// registration order — after a Rebase, the handles valid against the
// new substrate.
func (e *Estimator) RegisteredPriors() []Prior {
	regs := e.reg.snapshot()
	out := make([]Prior, len(regs))
	for i, r := range regs {
		out[i] = r.prior
	}
	return out
}

// Rebase returns an estimator for a new routing matrix that preserves
// everything else about this session: the configured options and every
// registered prior. It is the estimation layer's half of a live
// topology change — routing.Patch produces the new matrix, Rebase puts
// the session on top of it without re-shipping calibration state.
//
// When the node count is unchanged (the usual case: link failures and
// reweightings), registered prior instances are reused as-is — their
// O(n²) calibration backing (fanout matrices, preference vectors) is
// still valid, so no state is re-parsed and no buffers are rebuilt.
// When n changes, each recorded state is re-validated and
// re-instantiated against the new size; a state that no longer fits
// (e.g. a fanout matrix of the old n) fails here, named, instead of
// inside the first estimated bin.
//
// Estimates from the rebased session are bit-identical to those of a
// fresh NewEstimator on the same matrix with the same options and
// priors: the session carries no solver state across the rebase.
func (e *Estimator) Rebase(rm *routing.Matrix) (*Estimator, error) {
	solver, err := NewSolver(rm)
	if err != nil {
		return nil, err
	}
	d := &Estimator{solver: solver, opts: e.opts, reg: &priorRegistry{}}
	sameN := rm.N == e.N()
	for _, r := range e.reg.snapshot() {
		p := r.prior
		if !sameN {
			if p, err = r.state.Prior(rm.N); err != nil {
				return nil, fmt.Errorf("estimation: rebase prior %q: %w", r.prior.Name(), err)
			}
		}
		d.reg.regs = append(d.reg.regs, registeredPrior{state: r.state, prior: p})
	}
	return d, nil
}

// EstimateBin runs the full three-step pipeline for one bin: prior →
// tomogravity projection → clamp + IPF toward the measured marginals.
// IPF non-convergence is not an error: the estimate is returned
// together with a BinDiag recording the shortfall.
//
// The observation is validated first (ErrObservation for wrong length,
// ±Inf, or NaN marginals). NaN internal-link entries degrade instead of
// dying: their equations are dropped from the projection (masked
// solve), and when fewer than ObservabilityFloor of the links survive,
// the projection is skipped entirely and the prior itself is rebalanced
// toward the measured marginals. Either way the bin reports Degraded
// with LinksDropped in its BinDiag and the estimate stays finite.
func (e *Estimator) EstimateBin(prior Prior, t int, y []float64) (*tm.TrafficMatrix, BinDiag, error) {
	diag := BinDiag{IPFConverged: true}
	keep, dropped, ing, eg, p, err := prepareBin(e.solver, prior, t, y)
	if err != nil {
		return nil, diag, err
	}
	est, err := projectBin(e.solver, p, y, keep, dropped, e.opts, &diag)
	if err != nil {
		return nil, diag, fmt.Errorf("estimation: project bin %d: %w", t, err)
	}
	if err := finishBin(e.solver, est, ing, eg, e.opts, &diag); err != nil {
		return nil, diag, fmt.Errorf("estimation: IPF bin %d: %w", t, err)
	}
	return est, diag, nil
}

// SeriesResult is the outcome of estimating a whole series against one
// prior: the estimated series, the per-bin RelL2 errors against the
// truth, and the aggregated run diagnostics.
type SeriesResult struct {
	// Estimates holds one estimated matrix per bin of the truth.
	Estimates *tm.Series
	// Errors is the per-bin RelL2 against the true series.
	Errors []float64
	// Stats aggregates the per-bin diagnostics (IPF sweeps and
	// non-convergences, projection stalls, degraded bins).
	Stats RunStats
}

// EstimateSeries estimates every bin of the true series and reports
// per-bin errors and run diagnostics. The observation vector for each
// bin is Y = R·x(t), optionally perturbed by the session's link-noise
// policy (and fault profile). The series is cut into contiguous chunks
// by parallel.BatchSize — ⌈bins/workers⌉ rounded up to a multiple of
// four, at most maxBlockLanes — which fan out under the session's worker
// bound, each estimated like EstimateBins. Every bin's estimate,
// error and diagnostics are exactly those of EstimateBin on its
// observation, for every worker count; on error, the lowest failing
// bin's is returned.
func (e *Estimator) EstimateSeries(truth *tm.Series, prior Prior) (*SeriesResult, error) {
	rm := e.solver.rm
	if truth.N() != rm.N {
		return nil, fmt.Errorf("%w: series over %d nodes for n=%d routing", ErrInput, truth.N(), rm.N)
	}
	noiseRoot := e.opts.noiseStream()
	// observe produces the clean (pre-fault) observation for bin t: link
	// loads of the truth, perturbed by the session's link-noise policy.
	// It is a pure function of t, so the fault injector can recompute the
	// previous bin's observation as a stale source without any cross-bin
	// ordering dependence — bins stay independently schedulable.
	observe := func(t int) ([]float64, error) {
		y, err := rm.LinkLoads(truth.At(t))
		if err != nil {
			return nil, err
		}
		if noiseRoot != nil {
			noise := noiseRoot.DeriveIndex(uint64(t))
			for i := range y {
				y[i] *= noise.LogNormal(0, e.opts.LinkNoiseSigma)
			}
		}
		return y, nil
	}
	var inj *faults.Injector
	if e.opts.Fault.Active() {
		inj = faults.NewInjector(e.opts.Fault, e.opts.FaultSeed, rm.L)
	}
	bins := truth.Len()
	// When the fault profile consumes the previous bin's clean
	// observation (stale reports), materialize every observation exactly
	// once up front and share it read-only, instead of re-synthesizing
	// bin t-1's loads and noise inside bin t — the old path did the full
	// observation work twice per bin. The precomputed vectors are bit-
	// identical to on-demand synthesis (observe is a pure function of t),
	// so estimates are unchanged; bins just stop paying for their
	// neighbor. Each bin still gets a private copy of its own vector,
	// because Apply corrupts y in place while obs[t] must stay clean for
	// bin t+1.
	var obs [][]float64
	if inj != nil && e.opts.Fault.NeedsPrev() {
		obs = make([][]float64, bins)
		if err := parallel.ForEach(e.opts.Workers, bins, func(t int) error {
			y, err := observe(t)
			if err != nil {
				return err
			}
			obs[t] = y
			return nil
		}); err != nil {
			return nil, err
		}
	}
	// observed returns bin t's observation with faults applied — owned
	// by the caller, safe to mutate and to hold subslices of.
	observed := func(t int) ([]float64, error) {
		var y []float64
		if obs != nil {
			y = append([]float64(nil), obs[t]...)
		} else {
			var err error
			if y, err = observe(t); err != nil {
				return nil, err
			}
		}
		if inj != nil {
			var prev []float64
			if t > 0 && obs != nil {
				prev = obs[t-1]
			}
			inj.Apply(t, y, prev)
		}
		return y, nil
	}
	results := make([]BinResult, bins)
	chunk := max(parallel.BatchSize(bins, e.opts.Workers, maxBlockLanes), 1)
	err := parallel.ForEach(e.opts.Workers, (bins+chunk-1)/chunk, func(c int) error {
		// A failed observation ends the chunk after the bins before it,
		// as it would end a bin-by-bin loop.
		var obsErr error
		group := make([]groupBin, 0, chunk)
		for t := c * chunk; t < min((c+1)*chunk, bins); t++ {
			y, err := observed(t)
			if err != nil {
				obsErr = err
				break
			}
			group = append(group, groupBin{t: t, y: y})
		}
		e.estimateGroup(prior, group)
		for _, b := range group {
			if b.err != nil {
				return b.err
			}
			relErr, err := tm.RelL2(truth.At(b.t), b.est)
			if err != nil {
				return fmt.Errorf("estimation: bin %d: %w", b.t, err)
			}
			results[b.t] = BinResult{Estimate: b.est, RelL2: relErr, Diag: b.diag}
		}
		return obsErr
	})
	if err != nil {
		return nil, err
	}
	out := &SeriesResult{
		Estimates: tm.NewSeries(truth.N(), truth.BinSeconds),
		Errors:    make([]float64, len(results)),
		Stats:     RunStats{Bins: len(results)},
	}
	for t, r := range results {
		if err := out.Estimates.Append(r.Estimate); err != nil {
			return nil, err
		}
		out.Errors[t] = r.RelL2
		out.Stats.IPFSweepsTotal += r.Diag.IPFSweeps
		if !r.Diag.IPFConverged {
			out.Stats.IPFNonConverged++
		}
		if r.Diag.ProjectStalled {
			out.Stats.ProjectStalls++
		}
		out.Stats.LSQRIterationsTotal += r.Diag.LSQRIterations
		if r.Diag.Degraded {
			out.Stats.DegradedBins++
		}
		out.Stats.LinksDroppedTotal += r.Diag.LinksDropped
		if r.Diag.PriorFallback {
			out.Stats.PriorFallbacks++
		}
	}
	return out, nil
}

// Compare sweeps several priors over the same truth, sharing the
// session's solver, and returns per-prior results keyed by prior name;
// two priors with the same name are an ErrInput, reported before any
// estimation. Priors fan out under the session's worker bound (each
// inner series also parallelizes over chunks); per-prior results match
// the sequential path exactly because the link-noise stream is keyed
// by bin, not by consumption order.
func (e *Estimator) Compare(truth *tm.Series, priors []Prior) (map[string]*SeriesResult, error) {
	seen := make(map[string]bool, len(priors))
	for _, p := range priors {
		if seen[p.Name()] {
			return nil, fmt.Errorf("%w: two priors named %q", ErrInput, p.Name())
		}
		seen[p.Name()] = true
	}
	perPrior, err := parallel.Map(e.opts.Workers, len(priors), func(i int) (*SeriesResult, error) {
		r, err := e.EstimateSeries(truth, priors[i])
		if err != nil {
			return nil, fmt.Errorf("estimation: prior %q: %w", priors[i].Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*SeriesResult, len(priors))
	for i, p := range priors {
		out[p.Name()] = perPrior[i]
	}
	return out, nil
}
