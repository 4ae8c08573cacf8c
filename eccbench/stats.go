package main

import "sort"

// minTailSamples is the sample count below which no percentile is
// reported: with fewer than 40 samples even the 75th percentile has
// fewer than ten samples beyond it, so it would not describe a tail.
const minTailSamples = 40

// beyondTail is how many samples must lie beyond a reported percentile.
const beyondTail = 10

// tailLadder lists the percentiles a summary may report, highest first,
// in tenths of a percent so that the rank arithmetic stays exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// summary is a timing distribution reduced to what a run can support:
// the median always, and a tail percentile only when at least
// beyondTail samples lie beyond it.
type summary struct {
	N      int
	Median float64
	// TailP is the reported percentile (0 when N < minTailSamples) and
	// Tail its value.
	TailP float64
	Tail  float64
}

// summarize reduces samples to a summary. It does not modify xs.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, Median: median(s)}
	if n < minTailSamples {
		return out
	}
	for _, p := range tailLadder {
		if n*(1000-p) >= beyondTail*1000 {
			out.TailP = float64(p) / 10
			out.Tail = nearestRank(s, p)
			break
		}
	}
	return out
}

// percentile returns the given percentile (in tenths of a percent) of
// xs, and false when the samples cannot support it: fewer than
// minTailSamples, or fewer than beyondTail samples beyond it.
func percentile(xs []float64, tenths int) (float64, bool) {
	n := len(xs)
	if n < minTailSamples || n*(1000-tenths) < beyondTail*1000 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, tenths), true
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the percentile of sorted samples given in tenths
// of a percent, by the nearest-rank rule: the smallest sample with at
// least that share of the samples at or below it.
func nearestRank(s []float64, tenths int) float64 {
	k := (tenths*len(s) + 999) / 1000
	if k < 1 {
		k = 1
	}
	return s[k-1]
}
