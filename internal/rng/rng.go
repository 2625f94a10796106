// Package rng provides a small, deterministic pseudo-random number
// generator with the distribution samplers used by the synthetic-data
// substrates: normal, lognormal, truncated normal, exponential and
// Zipf.
//
// The generator is a PCG-XSH-RR 64/32 pair combined into 64-bit output.
// Unlike math/rand's default source it is trivially seedable into
// independent named streams, so every experiment in this repository is
// reproducible bit-for-bit from a scenario seed, and sub-generators for
// different model components (activities, preferences, noise...) do not
// perturb each other when one component draws more variates.
package rng

import (
	"math"
)

// PCG is a permuted-congruential generator (PCG-XSH-RR variant, two
// 32-bit outputs combined per 64-bit value). The zero value is NOT valid;
// use New or NewStream.
type PCG struct {
	state uint64
	inc   uint64
	// seed retains the construction seed so Derive can produce
	// deterministic child streams regardless of how many variates have
	// been consumed.
	seed uint64

	// cached second normal variate from Box-Muller
	hasSpare bool
	spare    float64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator on an explicit stream; distinct stream
// values yield statistically independent sequences for the same seed.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: (stream << 1) | 1, seed: seed}
	p.state = 0
	p.next32()
	p.state += seed
	p.next32()
	return p
}

// Derive returns a new independent generator derived from p's seed
// material and the given label, without consuming variates from p's
// sequence. Use it to give each model component its own stream.
func (p *PCG) Derive(label string) *PCG {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewStream(p.seed^h, p.inc^h)
}

// DeriveIndex returns the i-th numbered child stream of p, analogous to
// Derive but keyed by an integer. The index is mixed with a SplitMix64
// finalizer so adjacent indices yield decorrelated streams. Like Derive
// it reads only p's construction-time seed material, so it is safe to
// call concurrently from several goroutines on the same parent — the
// property the per-bin link-noise keying in the estimation pipeline
// relies on.
func (p *PCG) DeriveIndex(i uint64) *PCG {
	h := i + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return NewStream(p.seed^h, p.inc^h)
}

func (p *PCG) next32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (p *PCG) Uint64() uint64 {
	return uint64(p.next32())<<32 | uint64(p.next32())
}

// Float64 returns a uniform value in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := p.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Norm returns a standard normal variate (Box-Muller with caching).
func (p *PCG) Norm() float64 {
	if p.hasSpare {
		p.hasSpare = false
		return p.spare
	}
	var u, v, s float64
	for {
		u = 2*p.Float64() - 1
		v = 2*p.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	p.spare = v * f
	p.hasSpare = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (p *PCG) Normal(mean, sd float64) float64 {
	return mean + sd*p.Norm()
}

// LogNormal returns a lognormal variate with log-mean mu and log-sd sigma.
func (p *PCG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*p.Norm())
}

// TruncNormal returns a normal(mean, sd) variate truncated to [lo, hi]
// by rejection; it panics if lo > hi. For the mild truncations used in
// this repository rejection is efficient; as a safety valve the value is
// clamped after 1000 rejections.
func (p *PCG) TruncNormal(mean, sd, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	for i := 0; i < 1000; i++ {
		v := p.Normal(mean, sd)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (p *PCG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	return -math.Log(1-p.Float64()) / rate
}

// Zipf returns an integer in [1, n] with P[k] proportional to 1/k^s,
// via inverse-CDF on precomputed weights (suitable for the small n used
// here). It panics if n <= 0.
func (p *PCG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("rng: Zipf with n <= 0")
	}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := p.Float64() * total
	var cum float64
	for k := 1; k <= n; k++ {
		cum += 1 / math.Pow(float64(k), s)
		if u <= cum {
			return k
		}
	}
	return n
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and a normal approximation above 30 (adequate
// for the sampling-noise emulation it backs).
func (p *PCG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := p.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	prod := 1.0
	for {
		prod *= p.Float64()
		if prod <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
