// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// Reproducibility is a hard requirement for the measurement-study
// substrate: the same seed must regenerate the exact same 2.5-year SNR
// fleet on every run so that figures and tests are stable. The stdlib
// math/rand global source is process-wide mutable state and math/rand/v2
// offers no stable cross-version stream guarantee for helper methods, so
// we implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64
// ourselves. Both algorithms are public domain and tiny.
//
// Source is NOT safe for concurrent use; use Split to derive independent
// child streams for concurrent producers.
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output. It is
// used to expand a 64-bit seed into the 256-bit xoshiro state and to
// derive child seeds in Split.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var s Source
	x := seed
	for i := range s.s {
		s.s[i] = splitMix64(&x)
	}
	// xoshiro must not start in the all-zero state. SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives an independent child stream. The child's seed is drawn
// from the parent, so splitting is itself deterministic: the n-th child
// of a given parent is always the same stream.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits → uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire-style bounded rejection would be faster, but modulo bias is
	// negligible for n << 2^64 and this path is not hot.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal variate with the given parameters of
// the underlying normal (mu, sigma).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Poisson returns a Poisson variate with mean lambda. For small lambda
// it uses Knuth's product method; for large lambda the PTRS rejection
// method would be better but our lambdas are small (events per window).
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation keeps the loop bounded for large means.
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Pareto returns a Pareto variate with scale xm>0 and shape alpha>0.
// Used for heavy-tailed outage durations.
func (r *Source) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Categorical samples an index from the (unnormalized, non-negative)
// weight vector w. It panics if all weights are zero or w is empty.
func (r *Source) Categorical(w []float64) int {
	var total float64
	for _, x := range w {
		if x < 0 {
			panic("rng: negative categorical weight")
		}
		total += x
	}
	if len(w) == 0 || total <= 0 {
		panic("rng: Categorical needs positive total weight")
	}
	u := r.Float64() * total
	for i, x := range w {
		u -= x
		if u < 0 {
			return i
		}
	}
	return len(w) - 1 // float round-off: last non-zero bucket
}
