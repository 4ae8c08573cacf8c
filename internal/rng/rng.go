// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every stochastic quantity in the simulation — a bit cell's critical
// voltage, a per-access fault draw, a workload phase boundary — must be a
// pure function of the chip seed and a stable identity (structure id, set,
// way, bit, access counter). That way a simulated chip has a fixed
// "personality": the same weak cache lines trip the same errors run after
// run, which is the empirical property the paper's speculation system
// depends on (MICRO 2014, §II-D).
//
// The package offers two layers:
//
//   - Hash: a stateless SplitMix64-style mixing function over a key tuple.
//     Use it when the identity of the draw is naturally a coordinate
//     (e.g. "bit 13 of way 2 of set 77 of the L2D on core 3").
//     Extend folds one more key into a cached Hash prefix, so a loop
//     over many coordinates sharing a prefix pays one mix per draw.
//   - Stream: a cheap sequential generator seeded from a Hash, for code
//     that needs many draws in a row (e.g. a workload's arrival process).
package rng

import "math"

// mix64 is the SplitMix64 finalizer: a bijective mixing of a 64-bit value
// with good avalanche behaviour. It is the core primitive for both the
// stateless hash and the sequential stream.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// golden is the SplitMix64 sequence increment (2^64 / phi, odd).
const golden = 0x9e3779b97f4a7c15

// Hash mixes a seed with an arbitrary-length key tuple into a uniformly
// distributed 64-bit value. Hash is stateless: the same inputs always
// produce the same output, and flipping any single input bit reshuffles
// the output completely.
func Hash(seed uint64, key ...uint64) uint64 {
	h := mix64(seed + golden)
	for _, k := range key {
		h = mix64(h ^ mix64(k+golden))
	}
	return h
}

// KeyMix returns the per-key term Hash folds in for key k. Hot loops
// that extend one cached prefix with many keys (every cell of an SRAM
// line) can tabulate it once and pay one mix64 per key in Extend.
func KeyMix(k uint64) uint64 { return mix64(k + golden) }

// Extend folds one more key into a Hash value, given the key's KeyMix:
// Extend(Hash(seed, a...), KeyMix(b)) == Hash(seed, a..., b).
func Extend(h, keyMix uint64) uint64 { return mix64(h ^ keyMix) }

// Uniform converts a hash value to a float64 uniformly distributed in
// [0, 1). It uses the top 53 bits, so every representable value is an
// exact multiple of 2^-53.
func Uniform(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// UniformAt is shorthand for Uniform(Hash(seed, key...)).
func UniformAt(seed uint64, key ...uint64) float64 {
	return Uniform(Hash(seed, key...))
}

// Normal converts a pair of hash-derived uniforms into a standard normal
// deviate using the Box-Muller transform. Deterministic in its inputs.
func Normal(h1, h2 uint64) float64 {
	u1 := Uniform(h1)
	u2 := Uniform(h2)
	// Guard against log(0): Uniform can return exactly 0.
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormalAt draws a standard normal deviate identified by (seed, key...).
// The two Box-Muller uniforms are derived by extending the key, so distinct
// keys give independent deviates.
func NormalAt(seed uint64, key ...uint64) float64 {
	h1 := Hash(seed, key...)
	h2 := mix64(h1 ^ golden)
	return Normal(h1, h2)
}

// NormalInv converts a single hash value to a standard normal deviate via
// the Acklam inverse-CDF approximation (max relative error ~1.15e-9). It
// is roughly 3x cheaper than Box-Muller and needs only one hash, which
// matters when scanning millions of SRAM cells.
func NormalInv(h uint64) float64 {
	p := Uniform(h)
	// Keep p strictly inside (0,1); the tails beyond ~1e-16 map to
	// about +/-8.2 sigma, far beyond any cell this simulation can meet.
	if p < 1e-16 {
		p = 1e-16
	} else if p > 1-1e-16 {
		p = 1 - 1e-16
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// NormalInvAt draws a standard normal deviate identified by (seed, key...)
// using the single-hash inverse-CDF path.
func NormalInvAt(seed uint64, key ...uint64) float64 {
	return NormalInv(Hash(seed, key...))
}

// Stream is a sequential SplitMix64 generator for hot loops that need many
// draws under one identity. The zero value is a valid generator seeded
// with 0; prefer NewStream to tie the stream to a hashed identity.
type Stream struct {
	state uint64
}

// NewStream returns a Stream whose sequence is determined by
// Hash(seed, key...).
func NewStream(seed uint64, key ...uint64) *Stream {
	return &Stream{state: Hash(seed, key...)}
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Float64 returns the next uniform deviate in [0, 1).
func (s *Stream) Float64() float64 {
	return Uniform(s.Uint64())
}

// Normal returns the next standard normal deviate.
func (s *Stream) Normal() float64 {
	return Normal(s.Uint64(), s.Uint64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bernoulli reports true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Fork derives an independent child stream. The child's sequence depends
// on the parent's current state and the supplied key, so forks taken at
// different points or with different keys do not collide.
func (s *Stream) Fork(key uint64) *Stream {
	return &Stream{state: Hash(s.state, key)}
}

// State returns the stream's internal state word. Together with SetState
// it lets a checkpoint capture a stream mid-sequence and resume it with
// bit-exact continuation.
func (s *Stream) State() uint64 { return s.state }

// SetState overwrites the stream's internal state word, positioning the
// sequence exactly where a previous State call observed it.
func (s *Stream) SetState(state uint64) { s.state = state }
