package estimation

import (
	"errors"
	"fmt"
	"math"

	"ictm/internal/faults"
	"ictm/internal/rng"
	"ictm/internal/tm"
)

// ErrObservation reports an invalid per-bin observation vector: wrong
// length, a ±Inf anywhere, or a NaN in a marginal row. A NaN in an
// internal-link row is NOT an error — it is the in-band marker for a
// missing link report, which the pipeline degrades around by dropping
// that link's equation from the solve (see BinDiag.LinksDropped).
var ErrObservation = errors.New("estimation: invalid observation")

// options is the estimation pipeline's configuration, set through the
// functional Option values of an Estimator (WithWorkers, WithWeighted,
// ...).
// The zero value is ready to use.
type options struct {
	// SkipIPF disables step 3 (useful for ablation).
	SkipIPF bool
	// IPFTol and IPFMaxIter tune the proportional fitting; zero values
	// select 1e-9 and 200.
	IPFTol     float64
	IPFMaxIter int
	// Weighted switches step 2 from the minimal-L2 correction to the
	// prior-weighted tomogravity of Zhang et al.: deviations from the
	// prior are penalized relative to the prior's own magnitude, so
	// large flows absorb more of the correction. It selects the objective
	// of both the iterative projection and the dense reference.
	Weighted bool
	// Dense selects the dense SVD reference implementation of step 2
	// (Solver.ProjectDense) for the selected objective. It exists for
	// cross-checking the iterative path — they agree to well below 1e-8
	// (unweighted) and 1e-6 (weighted) relative — and pays the SVD the
	// default path avoids: once per solver unweighted, once per bin
	// weighted. Bins with missing link reports cannot run it (the dense
	// reference has no row-mask form): they downgrade to the masked
	// iterative solve and report BinDiag.DenseDowngraded.
	Dense bool
	// LinkNoiseSigma injects multiplicative lognormal noise into the
	// observed link loads (failure injection / SNMP-error emulation).
	// The same noisy observation is used for the prior's marginals and
	// the projection, as a real estimator would experience. Zero
	// disables it.
	LinkNoiseSigma float64
	// NoiseSeed seeds the link-noise stream (so comparisons across
	// priors see identical noise).
	NoiseSeed uint64
	// Workers bounds how many bins (EstimateSeries) or priors
	// (Compare) are estimated concurrently: 0 selects GOMAXPROCS, 1 the
	// plain sequential loop. The bound applies per fan-out level, so
	// Compare can have up to Workers priors × Workers bins in flight;
	// Go still multiplexes them over GOMAXPROCS OS threads, so this
	// overlaps scheduling, not CPU. Results are bit-identical for every
	// value — each bin's link-noise variates come from an independent
	// stream keyed by the bin index (not consumed across bins), and
	// each bin writes only its own result slot.
	Workers int
	// Fault injects a tiered measurement-fault profile (counter
	// wraparound, sampling noise, stale and missing reports) into the
	// observed link loads of EstimateSeries/Compare, after the
	// LinkNoiseSigma perturbation. The zero value (and faults.Clean())
	// disables it. Fault streams are keyed per (bin, link), so faulted
	// runs keep the workers=1 ≡ workers=N bitwise contract.
	Fault faults.Profile
	// FaultSeed seeds the fault streams (so comparisons across priors
	// see identical telemetry faults).
	FaultSeed uint64
	// WarmStart switches EstimateSeries to the warm-started, blocked
	// solve path: bins are partitioned into fixed-size contiguous chunks
	// (a function of the series length only — never of the worker
	// count), and within each chunk the clean unweighted bins are solved
	// in blocks of up to warmBlockK right-hand sides by linalg.LSQRMulti,
	// each block warm-started from the previous block's converged
	// correction (the first block of every chunk starts cold). Output is
	// bit-identical for every Workers value, but NOT bit-identical to
	// the cold default: warm-started solves converge to the same
	// tolerance from a different starting iterate, trading the per-bin
	// minimum-norm tie-break for continuity with the previous bin's
	// correction (see WithWarmStart). Masked, weighted and dense bins
	// always solve exactly as the default path does.
	WarmStart bool
}

// noiseStream returns the root link-noise generator, or nil when noise
// is disabled. Per-bin children must be derived from it with
// DeriveIndex(bin) so that results do not depend on bin execution order.
func (o options) noiseStream() *rng.PCG {
	if o.LinkNoiseSigma <= 0 {
		return nil
	}
	return rng.New(o.NoiseSeed).Derive("estimation/linknoise")
}

// BinDiag carries the non-fatal diagnostics of estimating one bin. The
// json tags are its wire form in the estimation service's responses.
type BinDiag struct {
	// IPFSweeps is the number of IPF sweeps performed (0 under SkipIPF).
	IPFSweeps int `json:"ipf_sweeps"`
	// IPFConverged is false when IPF exhausted its sweep budget before
	// reaching tolerance (ErrIPFNoConverge). The estimate is still
	// usable but honours the measured marginals only approximately.
	IPFConverged bool `json:"ipf_converged"`
	// WeightedDenseFallback is true when the weighted step's iterative
	// solver stalled and the bin escalated to the dense reference
	// (correct but ~500x slower; see Projection.DenseFallback).
	WeightedDenseFallback bool `json:"weighted_dense_fallback,omitempty"`
	// ProjectStalled reports every other stall: the bin's LSQR solve hit
	// its iteration budget before tolerance. The estimate came from the
	// dense reference when the bin was unweighted, fully observed and
	// affordable at the problem's scale, and from the almost-converged
	// iterate otherwise (see Solver.Project).
	ProjectStalled bool `json:"project_stalled,omitempty"`
	// LSQRIterations is the number of LSQR iterations the bin's
	// projection consumed (0 on the dense reference paths, which run no
	// iterative solve). It is the per-bin convergence cost — worth
	// watching as topologies mutate, since a patched routing matrix that
	// suddenly converges slowly signals an ill-conditioned network.
	// Deliberately excluded from the wire form: the service aggregates it
	// in its stats instead, keeping v1/v2 response bytes stable.
	LSQRIterations int `json:"-"`
	// LinksDropped counts the internal-link equations removed from this
	// bin's solve because their reports were missing (NaN). Zero on
	// fully-observed bins, and omitted from the wire then, so clean
	// responses keep their pre-robustness bytes.
	LinksDropped int `json:"links_dropped,omitempty"`
	// Degraded marks a bin estimated from incomplete telemetry: at
	// least one link equation was dropped (masked solve) or the bin
	// fell back to the prior entirely. The estimate is finite and
	// usable; it honours fewer measurements than a clean bin.
	Degraded bool `json:"degraded,omitempty"`
	// PriorFallback marks a degraded bin whose surviving link equations
	// fell below the observability floor (ObservabilityFloor of the
	// internal links): the projection step was skipped and the estimate
	// is the prior itself, rebalanced by IPF toward the (intact)
	// measured marginals.
	PriorFallback bool `json:"prior_fallback,omitempty"`
	// DenseDowngraded marks a bin that requested the dense reference
	// projection (WithDense) but could not run it because link reports
	// were missing: the dense reference has no row-mask form, so the bin was solved by the masked iterative
	// path instead (or fell back to the prior below the observability
	// floor). Previously this downgrade was silent, which let a dense
	// cross-check sweep quietly stop cross-checking under faults. Only
	// ever set on degraded bins, so clean responses keep their exact
	// pre-existing wire bytes.
	DenseDowngraded bool `json:"dense_downgraded,omitempty"`
	// WarmStarted marks a bin whose LSQR solve was warm-started from a
	// previous bin's converged correction (WithWarmStart blocked
	// path; always false on the default cold path and on masked,
	// weighted or dense bins). Local-only like LSQRIterations: the
	// series layer aggregates it into RunStats.WarmStartedBins, keeping
	// response bytes stable.
	WarmStarted bool `json:"-"`
}

// BinResult is the outcome of estimating a single time bin.
type BinResult struct {
	Estimate *tm.TrafficMatrix
	// RelL2 is the error against the true matrix.
	RelL2 float64
	// Diag carries the bin's non-fatal pipeline diagnostics.
	Diag BinDiag
}

// RunStats aggregates the per-bin diagnostics of one estimation run.
type RunStats struct {
	// Bins is the number of bins estimated.
	Bins int
	// IPFSweepsTotal sums IPF sweeps over all bins.
	IPFSweepsTotal int
	// IPFNonConverged counts bins whose IPF stopped at the sweep budget
	// without reaching tolerance.
	IPFNonConverged int
	// WeightedDenseFallbacks counts bins whose weighted projection fell
	// back to the dense reference path because LSQR stalled. A non-zero
	// count on a long sweep means the sweep ran far slower than the
	// fast path promises — worth surfacing to the operator.
	WeightedDenseFallbacks int
	// ProjectStalls counts bins whose projection stalled before
	// tolerance without a weighted dense fallback (see
	// BinDiag.ProjectStalled). A non-zero count is worth surfacing: those
	// bins either paid for the dense reference or carry an
	// almost-converged estimate.
	ProjectStalls int
	// LSQRIterationsTotal sums the LSQR iterations consumed across all
	// bins (BinDiag.LSQRIterations) — the run's total iterative-solver
	// work. Note it is NOT safe to divide by Bins for a mean
	// iterations-to-converge: bins answered by the dense option or by
	// the prior fallback run no iterative solve and contribute 0, so the
	// quotient understates the per-solve cost whenever PriorFallbacks or
	// dense-option bins are present. Divide by the count of iteratively
	// solved bins instead (Bins minus those). A stall that escalated to
	// the dense reference still counts the iterations it spent.
	LSQRIterationsTotal int
	// WarmStartedBins counts bins whose solve was warm-started from a
	// previous bin's converged correction (BinDiag.WarmStarted) — only
	// ever non-zero under WithWarmStart. Together with
	// LSQRIterationsTotal it quantifies what warm-starting saved: the
	// same series estimated cold shows the difference in total
	// iterations.
	WarmStartedBins int
	// DegradedBins counts bins estimated from incomplete telemetry
	// (BinDiag.Degraded); LinksDroppedTotal sums the link equations
	// dropped across all bins.
	DegradedBins      int
	LinksDroppedTotal int
	// PriorFallbacks counts degraded bins that fell below the
	// observability floor and were answered by the prior (rebalanced
	// toward the measured marginals) instead of a masked solve.
	PriorFallbacks int
	// DenseDowngrades counts bins that requested a dense reference
	// projection but were downgraded to an iterative (or prior-fallback)
	// solve because link reports were missing (BinDiag.DenseDowngraded).
	// A non-zero count on a dense cross-check sweep means part of the
	// sweep did not actually exercise the dense path.
	DenseDowngrades int
}

// ObservabilityFloor is the minimum fraction of internal-link equations
// that must survive masking for the projection step to run: strictly
// below it the system is too underdetermined for the correction to mean
// much, and the bin degrades to the registered prior rebalanced by IPF
// toward the measured marginals (which cannot be masked — a NaN there
// is ErrObservation). The boundary is inclusive on the solve side: a
// bin with exactly ObservabilityFloor of its links surviving (e.g. 5 of
// 10) still runs the masked solve — only surviving < floor·L falls back
// to the prior. The boundary semantics are pinned by
// TestObservabilityFloorBoundary.
const ObservabilityFloor = 0.5

// validateObservation checks one bin's observation vector and derives
// its row mask: wrong length and ±Inf anywhere are typed errors
// (ErrObservation), as is NaN in a marginal row; NaN in an internal-
// link row [0, links) marks that link's report missing and drops its
// equation. keep is nil when nothing was dropped (the clean fast path
// allocates nothing).
func validateObservation(y []float64, rows, links int) (keep []bool, dropped int, err error) {
	if len(y) != rows {
		return nil, 0, fmt.Errorf("%w: load vector of %d, want %d", ErrObservation, len(y), rows)
	}
	for i, v := range y {
		if math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("%w: row %d is %v", ErrObservation, i, v)
		}
		if !math.IsNaN(v) {
			continue
		}
		if i >= links {
			return nil, 0, fmt.Errorf("%w: marginal row %d is NaN (marginal rows cannot be masked)", ErrObservation, i)
		}
		if keep == nil {
			keep = make([]bool, rows)
			for j := range keep {
				keep[j] = true
			}
		}
		keep[i] = false
		dropped++
	}
	return keep, dropped, nil
}

// prepareBin runs the pre-projection stage of one bin: observation
// validation (mask derivation), marginal extraction and prior synthesis.
// ing and eg alias y, so they stay valid exactly as long as the caller
// keeps the observation alive. Shared by EstimateBin and the warm
// chunked path, so the two cannot drift in validation or error text.
func prepareBin(s *Solver, prior Prior, t int, y []float64) (keep []bool, dropped int, ing, eg []float64, p *tm.TrafficMatrix, err error) {
	keep, dropped, err = validateObservation(y, s.rm.Rows(), s.rm.L)
	if err != nil {
		return nil, 0, nil, nil, nil, fmt.Errorf("estimation: bin %d: %w", t, err)
	}
	_, ing, eg, err = s.rm.SplitLoads(y)
	if err != nil {
		return nil, 0, nil, nil, nil, err
	}
	p, err = prior.PriorFor(t, ing, eg)
	if err != nil {
		return nil, 0, nil, nil, nil, fmt.Errorf("estimation: prior %q bin %d: %w", prior.Name(), t, err)
	}
	if p.N() != s.rm.N {
		return nil, 0, nil, nil, nil, fmt.Errorf("%w: prior %q returned n=%d, want %d", ErrInput, prior.Name(), p.N(), s.rm.N)
	}
	return keep, dropped, ing, eg, p, nil
}

// projectBin runs the projection stage of one bin, recording its
// diagnostics in diag: a bin below the observability floor falls back
// to the prior, the Dense option sends a fully observed bin to the
// dense reference, and every other bin — masked or not, weighted or
// not — takes Solver.Project. Shared by EstimateBin and the warm chunked
// path (which routes only the clean unweighted bins to the blocked
// solver and sends everything else here).
func projectBin(s *Solver, p *tm.TrafficMatrix, y []float64, keep []bool, dropped int, opts options, diag *BinDiag) (*tm.TrafficMatrix, error) {
	if dropped > 0 {
		diag.Degraded, diag.LinksDropped = true, dropped
		// The dense reference has no row-mask form: the bin is downgraded
		// to the masked iterative solve (or the prior fallback below).
		// Surfaced instead of silent so a dense cross-check sweep knows
		// which bins it did not cross-check.
		diag.DenseDowngraded = opts.Dense
		if float64(s.rm.L-dropped) < ObservabilityFloor*float64(s.rm.L) {
			diag.PriorFallback = true
			return p.Clone(), nil
		}
	} else if opts.Dense {
		return s.ProjectDense(p, y, opts.Weighted)
	}
	est, pr, err := s.Project(p, y, keep, opts.Weighted)
	diag.recordProjection(pr, opts.Weighted)
	return est, err
}

// recordProjection copies a projection's report into the bin's
// diagnostics. The wire flags keep their historical meaning: a weighted
// stall that escalated to the dense reference reports
// weighted_dense_fallback, every other stall project_stalled.
func (d *BinDiag) recordProjection(pr Projection, weighted bool) {
	d.LSQRIterations = pr.Iterations
	d.WeightedDenseFallback = weighted && pr.DenseFallback
	d.ProjectStalled = pr.Stalled && !d.WeightedDenseFallback
}

// finishBin runs the post-projection stage of one bin in place: clamp
// negative flows, then IPF toward the measured marginals (with marginal
// scratch from the solver's pool). IPF non-convergence is recorded in
// diag, not returned; any other IPF error is returned unwrapped for the
// caller to attribute to its bin.
func finishBin(s *Solver, est *tm.TrafficMatrix, ing, eg []float64, opts options, diag *BinDiag) error {
	est.ClampNonNegative()
	if opts.SkipIPF {
		return nil
	}
	sc := s.getScratch()
	sc.ing = growFloat(sc.ing, est.N())
	sc.eg = growFloat(sc.eg, est.N())
	sweeps, err := ipfInto(est, ing, eg, opts.IPFTol, opts.IPFMaxIter, sc.ing, sc.eg)
	s.putScratch(sc)
	diag.IPFSweeps = sweeps
	if err != nil {
		if !errors.Is(err, ErrIPFNoConverge) {
			return err
		}
		diag.IPFConverged = false
	}
	return nil
}
