// Package core implements the paper's primary contribution: the
// independent-connection (IC) model for traffic matrices (Erramilli,
// Crovella & Taft, IMC 2006).
//
// The model views an origin-destination (OD) flow as the superposition of
// connection traffic rather than independent packets. Three physically
// meaningful parameter families compose it:
//
//   - f — the forward ratio: the fraction of a connection aggregate's
//     bytes flowing from initiator to responder. The paper finds f in
//     [0.2, 0.3] for web-dominated backbone traffic.
//   - A_i — the activity of node i: the total byte volume generated by
//     connections initiated at i (both directions).
//   - P_i — the preference of node i: the probability that a connection's
//     responder is reached through i.
//
// The simplified model (constant f across all pairs, eq. 2 of the paper):
//
//	X_ij = f·A_i·p_j + (1-f)·A_j·p_i        with p = P/ΣP
//
// The general model (eq. 1) allows a per-pair forward ratio f_ij. The
// temporal variants (eqs. 3-5) differ only in which parameters are allowed
// to change per time bin; they are expressed here by evaluating a Params
// value per bin with shared or per-bin fields.
package core

import (
	"errors"
	"fmt"
	"math"

	"ictm/internal/tm"
)

// ErrParams reports structurally invalid model parameters.
var ErrParams = errors.New("core: invalid IC parameters")

// ErrSingularF is returned by the closed-form marginal inversion
// (eqs. 11-12) when f = 1/2, where forward and reverse traffic are
// indistinguishable from node totals alone.
var ErrSingularF = errors.New("core: f = 1/2 makes marginal inversion singular")

// Params holds one time bin's worth of simplified-IC-model parameters.
type Params struct {
	// F is the network-wide forward ratio in [0, 1].
	F float64
	// Activity is A_i: per-node connection-traffic volume (bytes).
	Activity []float64
	// Pref is P_i: per-node preference weights. They need not sum to 1;
	// evaluation normalizes internally (the paper's ΣP_i division).
	Pref []float64
}

// Validate checks structural invariants: matching lengths, F in [0,1],
// non-negative activities and preferences with a positive preference sum.
func (p *Params) Validate() error {
	n := len(p.Activity)
	if n == 0 {
		return fmt.Errorf("%w: empty activity vector", ErrParams)
	}
	if len(p.Pref) != n {
		return fmt.Errorf("%w: %d activities vs %d preferences", ErrParams, n, len(p.Pref))
	}
	if math.IsNaN(p.F) || p.F < 0 || p.F > 1 {
		return fmt.Errorf("%w: F = %g not in [0,1]", ErrParams, p.F)
	}
	var sum float64
	for i, v := range p.Activity {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: Activity[%d] = %g", ErrParams, i, v)
		}
	}
	for i, v := range p.Pref {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: Pref[%d] = %g", ErrParams, i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("%w: preference sum %g must be positive", ErrParams, sum)
	}
	return nil
}

// N returns the number of access points.
func (p *Params) N() int { return len(p.Activity) }

// NormalizedPref returns p.Pref scaled to sum to one.
func (p *Params) NormalizedPref() []float64 {
	out := make([]float64, len(p.Pref))
	sum := 0.0
	for _, v := range p.Pref {
		sum += v
	}
	if sum == 0 {
		return out
	}
	for i, v := range p.Pref {
		out[i] = v / sum
	}
	return out
}

// Evaluate produces the traffic matrix implied by the simplified IC model
// (eq. 2): X_ij = f·A_i·p_j + (1-f)·A_j·p_i.
func (p *Params) Evaluate() (*tm.TrafficMatrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	norm := p.NormalizedPref()
	out := tm.New(n)
	f := p.F
	g := 1 - f
	for i := 0; i < n; i++ {
		fa := f * p.Activity[i]
		for j := 0; j < n; j++ {
			out.Set(i, j, fa*norm[j]+g*p.Activity[j]*norm[i])
		}
	}
	return out, nil
}

// GeneralParams holds parameters for the general IC model (eq. 1), in
// which each ordered pair (i, j) carries its own forward ratio F[i][j]
// for connections initiated at i and responded to at j.
type GeneralParams struct {
	F        [][]float64 // n x n forward ratios, entries in [0, 1]
	Activity []float64
	Pref     []float64
}

// Validate checks the general-model invariants.
func (p *GeneralParams) Validate() error {
	n := len(p.Activity)
	if n == 0 {
		return fmt.Errorf("%w: empty activity vector", ErrParams)
	}
	if len(p.Pref) != n || len(p.F) != n {
		return fmt.Errorf("%w: want n=%d for all fields, got |Pref|=%d |F|=%d",
			ErrParams, n, len(p.Pref), len(p.F))
	}
	var sum float64
	for i := range p.F {
		if len(p.F[i]) != n {
			return fmt.Errorf("%w: F row %d has %d entries", ErrParams, i, len(p.F[i]))
		}
		for j, v := range p.F[i] {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return fmt.Errorf("%w: F[%d][%d] = %g", ErrParams, i, j, v)
			}
		}
	}
	for i, v := range p.Activity {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: Activity[%d] = %g", ErrParams, i, v)
		}
	}
	for i, v := range p.Pref {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: Pref[%d] = %g", ErrParams, i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("%w: preference sum %g must be positive", ErrParams, sum)
	}
	return nil
}

// N returns the number of access points.
func (p *GeneralParams) N() int { return len(p.Activity) }

// Evaluate produces the traffic matrix of the general IC model (eq. 1):
//
//	X_ij = f_ij·A_i·p_j + (1 - f_ji)·A_j·p_i
//
// Note the swapped index on the reverse term: traffic from i to j due
// to j's activity is the reverse direction of connections initiated at j
// toward i, whose forward ratio is f_ji.
func (p *GeneralParams) Evaluate() (*tm.TrafficMatrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	sum := 0.0
	for _, v := range p.Pref {
		sum += v
	}
	norm := make([]float64, n)
	for i, v := range p.Pref {
		norm[i] = v / sum
	}
	out := tm.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fwd := p.F[i][j] * p.Activity[i] * norm[j]
			rev := (1 - p.F[j][i]) * p.Activity[j] * norm[i]
			out.Set(i, j, fwd+rev)
		}
	}
	return out, nil
}
