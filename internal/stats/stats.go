// Package stats provides the small statistical toolbox used by the
// simulator: summary statistics, histograms, and samplers for the
// binomial/Poisson event counts that the statistical workload model
// draws each control tick.
package stats

import (
	"math"
	"sort"

	"eccspec/internal/rng"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element (0 for an empty slice).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (0 for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation (0 for fewer than two
// elements).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using nearest-
// rank on a sorted copy. Returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c[rank]
}

// SamplePoisson draws from a Poisson distribution with the given mean.
// It uses Knuth's method for small means and a rounded normal
// approximation for large ones.
func SamplePoisson(s *rng.Stream, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*s.Normal()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// SamplePoissonFast draws from a Poisson distribution with the given
// mean, producing the same value and consuming the same stream draws as
// SamplePoisson for every (state, mean) pair — the two are drop-in
// interchangeable mid-stream.
//
// The speedup is the n = 0 case, which dominates the per-line event
// sampling of the chip's hot tick path (per-line means are ~1e-3): the
// first uniform is drawn before exp(-mean) is computed, and when it
// already sits at or below 1 - mean - eps it must also sit at or below
// exp(-mean) (exp(-m) >= 1 - m, with eps covering the float rounding of
// the exp call), so the draw resolves to zero with one comparison and
// no exp. Only draws that land inside the mean-wide acceptance window
// pay for the exponential.
func SamplePoissonFast(s *rng.Stream, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		// Normal-approximation regime: delegate before any draw so the
		// stream position stays aligned with SamplePoisson.
		return SamplePoisson(s, mean)
	}
	return ResumePoisson(s, mean, s.Float64())
}

// ResumePoisson finishes a SamplePoissonFast draw whose first uniform,
// u, the caller has already drawn from s, for a mean in (0, 50]: it
// returns what SamplePoissonFast would have returned and leaves s where
// SamplePoissonFast would have left it. A caller that can bound the
// mean from above draws u first and skips computing the exact mean
// whenever u resolves to zero under the bound.
func ResumePoisson(s *rng.Stream, mean, u float64) int {
	// exp(-m) computed in float64 is at least exp(-m)(1 - 2^-52)
	// >= (1 - m) - 2^-52, so u <= 1 - m - 1e-15 implies u <= exp(-m)
	// under the exact comparison Knuth's loop would have made.
	if u <= 1-mean-1e-15 {
		return 0
	}
	// Resume Knuth's loop exactly where SamplePoisson would be after
	// its first multiplication (p = 1 * u).
	l := math.Exp(-mean)
	k := 0
	p := u
	for {
		if p <= l {
			return k
		}
		k++
		p *= s.Float64()
	}
}

// SampleBinomial draws from Binomial(n, p). It dispatches on the regime:
// exact Bernoulli loop for small n, Poisson approximation for rare
// events, normal approximation otherwise, and symmetry for p > 1/2.
func SampleBinomial(s *rng.Stream, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - SampleBinomial(s, n, 1-p)
	case n <= 32:
		k := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				k++
			}
		}
		return k
	case float64(n)*p < 25:
		k := SamplePoisson(s, float64(n)*p)
		if k > n {
			return n
		}
		return k
	default:
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		v := mean + sd*s.Normal()
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int(v + 0.5)
	}
}

// Histogram counts values into uniform bins over [lo, hi); values outside
// the range clamp to the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram creates a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram range")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one value.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
