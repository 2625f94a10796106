// Package netflow models the measurement pipeline behind the paper's
// D1/D2 data sets: traffic matrices there are not directly observed but
// *estimated from packet-sampled flow records* (1-in-1000 sampling on
// Géant/Totem). Sampling is the dominant measurement noise at PoP level,
// so reproducing its statistics matters for every experiment that feeds
// on the synthetic ensembles.
//
// SampleInPlace applies per-OD-entry packet thinning: the byte volume
// is converted to packets, Poisson-thinned at the sampling rate, and
// scaled back. The estimate is unbiased, with variance ≈
// volume·avgPacketBytes/rate.
package netflow

import (
	"errors"
	"fmt"

	"ictm/internal/rng"
	"ictm/internal/tm"
)

// ErrConfig reports invalid sampler configuration.
var ErrConfig = errors.New("netflow: invalid config")

// Config parameterizes the sampling emulation.
type Config struct {
	// Rate is the packet sampling probability (Géant/Totem: 0.001).
	Rate float64
	// AvgPacketBytes converts byte volumes to packet counts.
	AvgPacketBytes float64
	// Seed drives the deterministic sampling noise.
	Seed uint64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Rate <= 0 || c.Rate > 1:
		return fmt.Errorf("%w: rate %g", ErrConfig, c.Rate)
	case c.AvgPacketBytes <= 0:
		return fmt.Errorf("%w: avg packet bytes %g", ErrConfig, c.AvgPacketBytes)
	}
	return nil
}

// SampleInPlace thins x in place with the caller's noise stream — the
// allocation-free form used inside generation loops.
func SampleInPlace(x *tm.TrafficMatrix, cfg Config, r *rng.PCG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sampleVec(x.Vec(), cfg, r)
	return nil
}

func sampleVec(vec []float64, cfg Config, r *rng.PCG) {
	for k, v := range vec {
		if v <= 0 {
			continue
		}
		expected := v / cfg.AvgPacketBytes * cfg.Rate
		sampled := r.Poisson(expected)
		vec[k] = float64(sampled) / cfg.Rate * cfg.AvgPacketBytes
	}
}
