// Package estimation implements the traffic-matrix estimation pipeline
// of Section 6 of the paper:
//
//	Step 1 — choose a prior x_init (gravity, or one of three IC priors
//	         differing in how much side information is assumed);
//	Step 2 — project the prior onto the link-constraint manifold with the
//	         tomogravity least-squares step of Zhang et al.:
//	         x̂ = x_init + R⁺·(y − R·x_init);
//	Step 3 — clamp negatives and run iterative proportional fitting so the
//	         estimate honours the measured node totals.
//
// The three IC priors mirror the paper's scenarios: ICOptimalPrior uses
// fully measured per-bin parameters (Section 6.1); StableFPPrior carries
// f and P from a previous week and recovers activities from marginals by
// pseudo-inverse (Section 6.2, eq. 8); StableFPrior knows only f and
// inverts the marginals in closed form (Section 6.3, eqs. 11-12).
package estimation

import (
	"errors"
	"fmt"
	"sync"

	"ictm/internal/core"
	"ictm/internal/gravity"
	"ictm/internal/tm"
)

// ErrInput reports invalid estimation inputs.
var ErrInput = errors.New("estimation: invalid input")

// Prior produces a traffic-matrix starting point for one time bin from
// the information observable at estimation time: the bin index and the
// measured ingress/egress node totals.
type Prior interface {
	// Name identifies the prior in experiment output.
	Name() string
	// PriorFor returns the bin-t starting matrix.
	PriorFor(t int, ingress, egress []float64) (*tm.TrafficMatrix, error)
}

// GravityPrior is the baseline: X̂_ij = ingress_i · egress_j / total.
type GravityPrior struct{}

// Name implements Prior.
func (GravityPrior) Name() string { return "gravity" }

// PriorFor implements Prior.
func (GravityPrior) PriorFor(_ int, ingress, egress []float64) (*tm.TrafficMatrix, error) {
	return gravity.FromMarginals(ingress, egress)
}

// ICOptimalPrior evaluates fully measured IC parameters per bin — the
// paper's "all parameters available" thought experiment bounding the
// achievable gain (Section 6.1, Fig. 11).
type ICOptimalPrior struct {
	Params *core.SeriesParams
}

// Name implements Prior.
func (p *ICOptimalPrior) Name() string { return "ic-optimal" }

// PriorFor implements Prior.
func (p *ICOptimalPrior) PriorFor(t int, _, _ []float64) (*tm.TrafficMatrix, error) {
	bp, err := p.Params.BinParams(t)
	if err != nil {
		return nil, err
	}
	return bp.Evaluate()
}

// StableFPPrior holds a previously calibrated (f, P) and estimates the
// current bin's activities from the observed marginals via the
// pseudo-inverse of eq. 8 (Section 6.2, Fig. 12).
//
// The eq. 8 operator depends on (f, P) alone, so the first PriorFor
// decomposes it once (core.NewActivityInverse) and every later bin
// reuses the decomposition; concurrent first calls are safe. F and Pref
// must therefore not be mutated after the first PriorFor. The cached
// decomposition holds 3n²+n floats, about 240 KB at n=100 — three times
// a FanoutPrior's n² state.
type StableFPPrior struct {
	F    float64
	Pref []float64

	once sync.Once
	inv  *core.ActivityInverse
	err  error
}

// Name implements Prior.
func (p *StableFPPrior) Name() string { return "ic-stable-fP" }

// PriorFor implements Prior. An invalid (F, Pref) fails with the same
// error on every call.
func (p *StableFPPrior) PriorFor(_ int, ingress, egress []float64) (*tm.TrafficMatrix, error) {
	p.once.Do(func() { p.inv, p.err = core.NewActivityInverse(p.F, p.Pref) })
	if p.err != nil {
		return nil, p.err
	}
	act, err := p.inv.Activities(ingress, egress)
	if err != nil {
		return nil, err
	}
	params := &core.Params{F: p.F, Activity: act, Pref: p.Pref}
	return params.Evaluate()
}

// StableFPrior knows only the network-wide forward ratio f and recovers
// both activities and preferences from each bin's marginals using the
// closed forms of eqs. 11-12 (Section 6.3, Fig. 13).
type StableFPrior struct {
	F float64
}

// Name implements Prior.
func (p *StableFPrior) Name() string { return "ic-stable-f" }

// PriorFor implements Prior.
func (p *StableFPrior) PriorFor(_ int, ingress, egress []float64) (*tm.TrafficMatrix, error) {
	act, pref, err := core.MarginalInversion(p.F, ingress, egress)
	if err != nil {
		return nil, err
	}
	params := &core.Params{F: p.F, Activity: act, Pref: pref}
	return params.Evaluate()
}

// FanoutPrior is the choice-model baseline of Medina et al. (discussed
// in the paper's related work): it carries a previously calibrated
// row-stochastic fanout — each origin's destination shares — and
// combines it with the current bin's measured ingress counts:
//
//	X̂_ij = ingress_i · fanout_ij
//
// Like the stable-fP IC prior it assumes week-scale stability of a
// spatial structure; unlike the IC priors it has n² parameters and no
// bidirectional coupling.
type FanoutPrior struct {
	// Fanout is row-stochastic: Fanout[i][j] sums to 1 over j.
	Fanout [][]float64
}

// NewFanoutPrior calibrates a fanout prior from a historical series
// (mean matrix fanout).
func NewFanoutPrior(history *tm.Series) (*FanoutPrior, error) {
	mean, err := history.MeanMatrix()
	if err != nil {
		return nil, fmt.Errorf("estimation: fanout calibration: %w", err)
	}
	return &FanoutPrior{Fanout: gravity.Fanout(mean)}, nil
}

// Name implements Prior.
func (p *FanoutPrior) Name() string { return "fanout" }

// PriorFor implements Prior.
func (p *FanoutPrior) PriorFor(_ int, ingress, _ []float64) (*tm.TrafficMatrix, error) {
	return gravity.ApplyFanout(ingress, p.Fanout)
}

// compile-time interface checks
var (
	_ Prior = GravityPrior{}
	_ Prior = (*ICOptimalPrior)(nil)
	_ Prior = (*StableFPPrior)(nil)
	_ Prior = (*StableFPrior)(nil)
	_ Prior = (*FanoutPrior)(nil)
)

// validateMarginals is shared input checking for pipeline entry points.
func validateMarginals(n int, ingress, egress []float64) error {
	if len(ingress) != n || len(egress) != n {
		return fmt.Errorf("%w: marginals %d/%d for n=%d", ErrInput, len(ingress), len(egress), n)
	}
	return nil
}
