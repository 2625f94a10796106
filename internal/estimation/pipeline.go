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
	// large flows absorb more of the correction.
	Weighted bool
	// LinkNoiseSigma injects multiplicative lognormal noise into the
	// observed link loads (failure injection / SNMP-error emulation).
	// The same noisy observation is used for the prior's marginals and
	// the projection, as a real estimator would experience. Zero
	// disables it.
	LinkNoiseSigma float64
	// NoiseSeed seeds the link-noise stream (so comparisons across
	// priors see identical noise).
	NoiseSeed uint64
	// Workers bounds how many series bins (EstimateSeries) or priors
	// (Compare) are estimated concurrently: 0 selects GOMAXPROCS, 1 the
	// plain sequential loop. The bound applies per fan-out level, so
	// Compare can have up to Workers priors × Workers bins in flight;
	// Go still multiplexes them over GOMAXPROCS OS threads, so this
	// overlaps scheduling, not CPU. Results are bit-identical for every
	// value — each bin's link-noise variates come from a stream keyed by
	// the bin index.
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
	// ProjectStalled reports that the bin's LSQR solve hit its
	// iteration budget before tolerance; the estimate came from LSQR's
	// almost-converged iterate (see Solver.Project).
	ProjectStalled bool `json:"project_stalled,omitempty"`
	// LSQRIterations is the number of LSQR iterations the bin's
	// projection consumed (0 on a prior fallback, which runs no solve).
	// It is the per-bin convergence cost — worth watching as topologies
	// mutate, since a patched routing matrix that suddenly converges
	// slowly signals an ill-conditioned network. Deliberately excluded
	// from the wire form: the service aggregates it in its stats
	// instead, keeping v1/v2 response bytes stable.
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
	// ProjectStalls counts bins whose projection stalled before
	// tolerance (BinDiag.ProjectStalled). A non-zero count is worth
	// surfacing: those bins carry an almost-converged estimate.
	ProjectStalls int
	// LSQRIterationsTotal sums the LSQR iterations consumed across all
	// bins (BinDiag.LSQRIterations) — the run's total iterative-solver
	// work. Note it is NOT safe to divide by Bins for a mean
	// iterations-to-converge: prior-fallback bins run no solve and
	// contribute 0, so divide by Bins − PriorFallbacks instead.
	LSQRIterationsTotal int
	// DegradedBins counts bins estimated from incomplete telemetry
	// (BinDiag.Degraded); LinksDroppedTotal sums the link equations
	// dropped across all bins.
	DegradedBins      int
	LinksDroppedTotal int
	// PriorFallbacks counts degraded bins that fell below the
	// observability floor and were answered by the prior (rebalanced
	// toward the measured marginals) instead of a masked solve.
	PriorFallbacks int
}

// Add counts one estimated bin and its diagnostics into the totals.
func (s *RunStats) Add(d BinDiag) {
	s.Bins++
	s.IPFSweepsTotal += d.IPFSweeps
	if !d.IPFConverged {
		s.IPFNonConverged++
	}
	if d.ProjectStalled {
		s.ProjectStalls++
	}
	s.LSQRIterationsTotal += d.LSQRIterations
	if d.Degraded {
		s.DegradedBins++
	}
	s.LinksDroppedTotal += d.LinksDropped
	if d.PriorFallback {
		s.PriorFallbacks++
	}
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
// keeps the observation alive.
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
// to the prior, and every other bin — masked or not, weighted or not —
// takes Solver.Project.
func projectBin(s *Solver, p *tm.TrafficMatrix, y []float64, keep []bool, dropped int, opts options, diag *BinDiag) (*tm.TrafficMatrix, error) {
	if dropped > 0 {
		diag.Degraded, diag.LinksDropped = true, dropped
		if float64(s.rm.L-dropped) < ObservabilityFloor*float64(s.rm.L) {
			diag.PriorFallback = true
			return p.Clone(), nil
		}
	}
	est, pr, err := s.Project(p, y, keep, opts.Weighted)
	diag.LSQRIterations, diag.ProjectStalled = pr.Iterations, pr.Stalled
	return est, err
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
