package estimation

import (
	"fmt"
	"math"
)

// PriorState is the serializable calibration state of a prior: what a
// client of the online estimation service ships instead of the
// historical series the calibration was fitted on. It covers every
// prior whose state is a fixed-size parameter block — gravity (no
// state), stable-f (f), stable-fP (f and the preference vector) and
// fanout (the row-stochastic fanout matrix). The ic-optimal prior is
// deliberately absent: it needs fully measured per-bin parameters,
// which is a thought experiment, not an online serving mode.
type PriorState struct {
	// Name selects the prior: "gravity", "ic-stable-f", "ic-stable-fP"
	// or "fanout" (the Prior.Name values).
	Name string `json:"name"`
	// F is the calibrated forward ratio (stable-f, stable-fP).
	F float64 `json:"f,omitempty"`
	// Pref is the calibrated preference vector over the n nodes
	// (stable-fP).
	Pref []float64 `json:"pref,omitempty"`
	// Fanout is the calibrated row-stochastic destination-share matrix
	// (fanout).
	Fanout [][]float64 `json:"fanout,omitempty"`
}

// checkF validates a calibrated forward ratio.
func checkF(f float64) error {
	if math.IsNaN(f) || f <= 0 || f >= 1 {
		return fmt.Errorf("%w: forward ratio f=%g outside (0,1)", ErrInput, f)
	}
	return nil
}

// Prior instantiates the described prior for an n-node network,
// validating the state against the network size so a malformed client
// payload fails at registration instead of inside the first bin.
func (ps PriorState) Prior(n int) (Prior, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: prior state for n=%d", ErrInput, n)
	}
	switch ps.Name {
	case "gravity":
		return GravityPrior{}, nil
	case "ic-stable-f":
		if err := checkF(ps.F); err != nil {
			return nil, err
		}
		return &StableFPrior{F: ps.F}, nil
	case "ic-stable-fP":
		if err := checkF(ps.F); err != nil {
			return nil, err
		}
		if len(ps.Pref) != n {
			return nil, fmt.Errorf("%w: pref vector of %d for n=%d", ErrInput, len(ps.Pref), n)
		}
		var sum float64
		for i, p := range ps.Pref {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				return nil, fmt.Errorf("%w: pref[%d]=%g", ErrInput, i, p)
			}
			sum += p
		}
		// Eq. 8 normalizes by the sum: zero (or an overflowing total)
		// would fail every bin, so it fails registration instead.
		if sum <= 0 || math.IsInf(sum, 1) {
			return nil, fmt.Errorf("%w: pref sums to %g, want a finite positive total", ErrInput, sum)
		}
		return &StableFPPrior{F: ps.F, Pref: ps.Pref}, nil
	case "fanout":
		if len(ps.Fanout) != n {
			return nil, fmt.Errorf("%w: fanout of %d rows for n=%d", ErrInput, len(ps.Fanout), n)
		}
		for i, row := range ps.Fanout {
			if len(row) != n {
				return nil, fmt.Errorf("%w: fanout row %d has %d columns for n=%d", ErrInput, i, len(row), n)
			}
			for j, v := range row {
				if math.IsNaN(v) || v < 0 {
					return nil, fmt.Errorf("%w: fanout[%d][%d]=%g", ErrInput, i, j, v)
				}
			}
		}
		return &FanoutPrior{Fanout: ps.Fanout}, nil
	case "":
		return nil, fmt.Errorf("%w: prior state without a name", ErrInput)
	default:
		return nil, fmt.Errorf("%w: unknown prior %q (want gravity, ic-stable-f, ic-stable-fP or fanout)", ErrInput, ps.Name)
	}
}
