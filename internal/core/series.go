package core

import (
	"fmt"

	"ictm/internal/tm"
)

// Variant identifies one of the paper's temporal model variants
// (eqs. 3-5).
type Variant int

const (
	// TimeVarying lets f, A and P all change per bin (eq. 3).
	TimeVarying Variant = iota
	// StableF holds f constant in time; A and P vary (eq. 4).
	StableF
	// StableFP holds both f and P constant; only A varies (eq. 5).
	StableFP
)

// String returns the variant's conventional name.
func (v Variant) String() string {
	switch v {
	case TimeVarying:
		return "time-varying"
	case StableF:
		return "stable-f"
	case StableFP:
		return "stable-fP"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// DegreesOfFreedom returns the number of free inputs the variant needs
// for a network of n nodes over T bins, as tabulated in Section 5.1:
// time-varying 3nT, stable-f 2nT+1, stable-fP nT+n+1. (For comparison the
// gravity model needs 2nT-1.)
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func (v Variant) DegreesOfFreedom(n, T int) int {
	switch v {
	case TimeVarying:
		return 3 * n * T
	case StableF:
		return 2*n*T + 1
	case StableFP:
		return n*T + n + 1
	default:
		return 0
	}
}

// GravityDegreesOfFreedom returns the gravity model's input count for a
// network of n nodes over T bins (2nT - 1; the grand total ties ingress
// to egress).
//
//iclint:ignore deadexport reached only by its unit tests; deleting it with them is left to a later change (ROADMAP item 7)
func GravityDegreesOfFreedom(n, T int) int { return 2*n*T - 1 }

// SeriesParams holds fitted or specified IC parameters for a whole time
// series under one of the temporal variants. Fields that the variant
// holds constant use the scalar/single-slice forms; per-bin fields are
// indexed [t].
type SeriesParams struct {
	Variant Variant
	N       int
	T       int

	// F is used by StableF and StableFP.
	F float64
	// FPerBin is used by TimeVarying.
	FPerBin []float64

	// Pref is used by StableFP.
	Pref []float64
	// PrefPerBin is used by TimeVarying and StableF.
	PrefPerBin [][]float64

	// Activity is always per bin: Activity[t][i].
	Activity [][]float64
}

// Validate checks shape consistency for the declared variant.
func (sp *SeriesParams) Validate() error {
	if sp.N <= 0 || sp.T <= 0 {
		return fmt.Errorf("%w: N=%d T=%d", ErrParams, sp.N, sp.T)
	}
	if len(sp.Activity) != sp.T {
		return fmt.Errorf("%w: %d activity bins, want %d", ErrParams, len(sp.Activity), sp.T)
	}
	for t, a := range sp.Activity {
		if len(a) != sp.N {
			return fmt.Errorf("%w: activity bin %d has %d nodes, want %d", ErrParams, t, len(a), sp.N)
		}
	}
	switch sp.Variant {
	case TimeVarying:
		if len(sp.FPerBin) != sp.T {
			return fmt.Errorf("%w: %d f bins, want %d", ErrParams, len(sp.FPerBin), sp.T)
		}
		if len(sp.PrefPerBin) != sp.T {
			return fmt.Errorf("%w: %d pref bins, want %d", ErrParams, len(sp.PrefPerBin), sp.T)
		}
	case StableF:
		if len(sp.PrefPerBin) != sp.T {
			return fmt.Errorf("%w: %d pref bins, want %d", ErrParams, len(sp.PrefPerBin), sp.T)
		}
	case StableFP:
		if len(sp.Pref) != sp.N {
			return fmt.Errorf("%w: %d prefs, want %d", ErrParams, len(sp.Pref), sp.N)
		}
	default:
		return fmt.Errorf("%w: unknown variant %d", ErrParams, int(sp.Variant))
	}
	return nil
}

// BinParams assembles the effective simplified-model parameters at bin t.
func (sp *SeriesParams) BinParams(t int) (*Params, error) {
	if t < 0 || t >= sp.T {
		return nil, fmt.Errorf("%w: bin %d out of [0,%d)", ErrParams, t, sp.T)
	}
	p := &Params{Activity: sp.Activity[t]}
	switch sp.Variant {
	case TimeVarying:
		p.F = sp.FPerBin[t]
		p.Pref = sp.PrefPerBin[t]
	case StableF:
		p.F = sp.F
		p.Pref = sp.PrefPerBin[t]
	case StableFP:
		p.F = sp.F
		p.Pref = sp.Pref
	default:
		return nil, fmt.Errorf("%w: unknown variant %d", ErrParams, int(sp.Variant))
	}
	return p, nil
}

// EvaluateSeries materializes the full traffic-matrix series implied by
// the parameters.
func (sp *SeriesParams) EvaluateSeries(binSeconds int) (*tm.Series, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	out := tm.NewSeries(sp.N, binSeconds)
	for t := 0; t < sp.T; t++ {
		p, err := sp.BinParams(t)
		if err != nil {
			return nil, err
		}
		m, err := p.Evaluate()
		if err != nil {
			return nil, fmt.Errorf("bin %d: %w", t, err)
		}
		if err := out.Append(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}
