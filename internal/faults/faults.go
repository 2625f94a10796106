// Package faults models tiered measurement-error profiles for link-load
// telemetry: the named bundles of SNMP counter wraparound, packet-
// sampling noise, delayed/stale reports and missing per-bin link
// reports that real collection infrastructures exhibit, in the spirit
// of the low/mid/high-accuracy sensor bundles of inertial-sensor
// simulators. A profile is a deterministic seeded transform on a load
// series: the Injector corrupts the internal-link rows of observation
// vectors with per-(bin, link) random streams derived from one seed, so
// the faulted dataset is bit-identical for any evaluation order or
// worker count.
//
// Faults apply only to the internal-link rows [0, L) of the routing row
// layout: the ingress/egress marginal rows are the estimator's anchor
// and a NaN there is a validation error, not a degradation
// (estimation.ErrObservation).
package faults

import (
	"fmt"
	"math"
	"sort"

	"ictm/internal/rng"
)

// Profile is a named bundle of measurement-fault mechanisms. The zero
// value (and Clean()) disables every mechanism. Each mechanism is
// applied independently per (bin, link); see Injector.Apply for the
// composition order.
type Profile struct {
	// Name identifies the profile ("clean", "snmp-coarse", ...).
	Name string `json:"name"`
	// NoiseSigma is the s.d. of multiplicative lognormal counter noise
	// (SNMP polling error). Zero disables it.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// WrapMod is the counter modulus in bytes (1<<32 for 32-bit SNMP
	// octet counters): a per-bin byte count at or above it wraps to
	// count mod WrapMod, the classic under-read of a saturated 32-bit
	// counter polled too slowly. Zero disables it. Links whose per-bin
	// volume stays below the modulus are unaffected, exactly as in
	// production.
	WrapMod float64 `json:"wrap_mod,omitempty"`
	// SampleRate, when positive, re-measures the load through 1/N
	// packet sampling: bytes become an expected packet count at
	// AvgPacketBytes, a Poisson draw thins them at this rate, and the
	// sampled count is scaled back up (the netflow estimator). The
	// relative error grows as loads shrink — small flows vanish
	// entirely at 1/1000.
	SampleRate     float64 `json:"sample_rate,omitempty"`
	AvgPacketBytes float64 `json:"avg_packet_bytes,omitempty"`
	// StaleProb is the per-(bin, link) probability that the report is
	// delayed: the link repeats the previous bin's (pre-fault)
	// observation instead of the current one. The first bin has no
	// predecessor and never goes stale.
	StaleProb float64 `json:"stale_prob,omitempty"`
	// MissProb is the per-(bin, link) probability that the report is
	// missing entirely: the entry becomes NaN, the estimation layer's
	// in-band marker for "drop this link equation" (masked solve).
	MissProb float64 `json:"miss_prob,omitempty"`
}

// Clean is the no-fault profile: observations pass through untouched.
func Clean() Profile { return Profile{Name: "clean"} }

// SNMPCoarse models 5-minute SNMP polling of 32-bit octet counters:
// modest multiplicative polling noise, counter wraparound at 2^32
// bytes, and occasionally delayed reports.
func SNMPCoarse() Profile {
	return Profile{
		Name:       "snmp-coarse",
		NoiseSigma: 0.05,
		WrapMod:    float64(uint64(1) << 32),
		StaleProb:  0.02,
	}
}

// Sampled1K models 1/1000 packet-sampled flow export: the only error
// source is the sampling estimator itself, which is unbiased but noisy
// — catastrophically so for small flows.
func Sampled1K() Profile {
	return Profile{
		Name:           "sampled-1k",
		SampleRate:     0.001,
		AvgPacketBytes: 800,
	}
}

// Lossy models a degraded collection infrastructure: noisy counters,
// frequent delays, and 20% of link reports missing per bin — the
// regime the masked solve and the prior-fallback floor exist for.
func Lossy() Profile {
	return Profile{
		Name:       "lossy",
		NoiseSigma: 0.1,
		StaleProb:  0.05,
		MissProb:   0.2,
	}
}

// profiles maps the registered profile names.
func profiles() map[string]Profile {
	return map[string]Profile{
		"clean":       Clean(),
		"snmp-coarse": SNMPCoarse(),
		"sampled-1k":  Sampled1K(),
		"lossy":       Lossy(),
	}
}

// Names lists the registered profile names, sorted.
func Names() []string {
	m := profiles()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a registered profile name.
func ByName(name string) (Profile, error) {
	if p, ok := profiles()[name]; ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("faults: unknown profile %q (want one of %v)", name, Names())
}

// Active reports whether the profile perturbs observations at all: the
// zero value and Clean() are inactive, so callers can thread a Profile
// unconditionally and pay nothing on the clean path.
func (p Profile) Active() bool {
	return p.NoiseSigma > 0 || p.WrapMod > 0 || p.SampleRate > 0 ||
		p.StaleProb > 0 || p.MissProb > 0
}

// NeedsPrev reports whether applying the profile to a bin requires the
// previous bin's observation (the stale-report mechanism).
func (p Profile) NeedsPrev() bool { return p.StaleProb > 0 }

// Injector applies a profile to observation vectors deterministically:
// the variates for link i of bin t come from a stream derived as
// root → DeriveIndex(t) → DeriveIndex(i), a pure function of (seed, t,
// i) — never consumed across bins or links — so faulted series are
// bit-identical for any worker count and bin evaluation order.
//
// An Injector is safe for concurrent use: it holds only the profile and
// construction-time seed material (rng.PCG.DeriveIndex reads, never
// advances, the parent state).
type Injector struct {
	prof  Profile
	root  *rng.PCG
	links int
}

// NewInjector prepares an injector for observation vectors whose first
// links entries are the internal-link rows (routing.Matrix.L). Entries
// at and beyond links — the marginal rows — are never touched.
func NewInjector(p Profile, seed uint64, links int) *Injector {
	return &Injector{prof: p, root: rng.New(seed).Derive("faults/" + p.Name), links: links}
}

// Apply corrupts the internal-link entries of the bin-t observation y
// in place. prev is the previous bin's pre-fault observation (used by
// the stale-report mechanism; nil for the first bin, which then never
// goes stale). Per link, the mechanisms compose in measurement order:
// sampling re-estimation first (the collector sees sampled packets),
// then counter noise, then wraparound (the counter register is the last
// thing the poller reads), then report delay, then report loss.
func (inj *Injector) Apply(t int, y, prev []float64) {
	if !inj.prof.Active() {
		return
	}
	p := inj.prof
	bin := inj.root.DeriveIndex(uint64(t))
	n := inj.links
	if n > len(y) {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		r := bin.DeriveIndex(uint64(i))
		v := y[i]
		if p.SampleRate > 0 {
			expected := v / p.AvgPacketBytes * p.SampleRate
			v = float64(r.Poisson(expected)) / p.SampleRate * p.AvgPacketBytes
		}
		if p.NoiseSigma > 0 {
			v *= r.LogNormal(0, p.NoiseSigma)
		}
		if p.WrapMod > 0 && v >= p.WrapMod {
			v = math.Mod(v, p.WrapMod)
		}
		if p.StaleProb > 0 && r.Float64() < p.StaleProb && prev != nil && i < len(prev) {
			v = prev[i]
		}
		if p.MissProb > 0 && r.Float64() < p.MissProb {
			v = math.NaN()
		}
		y[i] = v
	}
}

// ApplySeries corrupts a whole series of observation vectors in place,
// bin t drawing its staleness source from bin t-1's clean (pre-fault)
// values. It is the batch form icgen's -fault-profile uses; the
// estimation pipeline applies bins independently through Apply.
func (inj *Injector) ApplySeries(loads [][]float64) {
	var prev []float64
	for t, y := range loads {
		var clean []float64
		if inj.prof.NeedsPrev() {
			clean = append([]float64(nil), y...)
		}
		inj.Apply(t, y, prev)
		prev = clean
	}
}
