package sram

import (
	"math"
	"testing"

	"eccspec/internal/rng"
	"eccspec/internal/variation"
)

// sameBits reports whether two profiles hold identical cells in the
// same order, every field compared exactly.
func sameBits(a, b *Profile) bool {
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return false
		}
	}
	return true
}

// TestRankedScanMatchesScalar holds the hash-ranked scan to the full
// per-cell scan over 147,456 lines: 6 seeds, both operating points,
// the four structure kinds a chip profiles, three cores each.
func TestRankedScanMatchesScalar(t *testing.T) {
	kinds := []variation.Kind{variation.KindL2D, variation.KindL2I, variation.KindRegFile, variation.KindL1D}
	points := []variation.Params{variation.LowVoltage(), variation.HighVoltage()}
	lines := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, pt := range points {
			m := variation.New(seed*7919, pt)
			for _, kind := range kinds {
				for _, core := range []int{0, 3, 7} {
					a := NewArray(m, core, kind, 128, 8)
					for s := 0; s < a.Sets; s++ {
						for w := 0; w < a.Ways; w++ {
							got, want := a.scanLineRanked(s, w), a.scanLine(s, w)
							if !sameBits(got, want) {
								t.Fatalf("seed %d %s %s core %d line %d/%d: ranked %+v, scalar %+v",
									seed, pt.Name, kind, core, s, w, got.Bits, want.Bits)
							}
							lines++
						}
					}
				}
			}
		}
	}
	if lines < 100000 {
		t.Fatalf("compared only %d lines", lines)
	}
}

// TestAgedArrayTakesScalarPath checks that an aged array's profiles
// come from the full scan, aging included: the ranked scan, which
// orders cells by their unaged hash, would build different profiles.
func TestAgedArrayTakesScalarPath(t *testing.T) {
	a := testArray(37)
	a.SetAge(40000)
	differs := 0
	for s := 0; s < a.Sets; s++ {
		for w := 0; w < a.Ways; w++ {
			got := a.LineProfile(s, w)
			if !sameBits(got, a.scanLine(s, w)) {
				t.Fatalf("aged line %d/%d: profile is not the full scan's", s, w)
			}
			if !sameBits(got, a.scanLineRanked(s, w)) {
				differs++
			}
		}
	}
	if differs == 0 {
		t.Fatal("aging changed no profile; the test cannot tell the scan paths apart")
	}
}

// normalInvNoise scans n consecutive raw hash values (top 53 bits)
// from r0 and returns NormalInv's largest step back below its running
// maximum and how many values that step back spans at most.
func normalInvNoise(r0 uint64, n int) (drop float64, reach uint64) {
	runMax := math.Inf(-1)
	var at uint64
	for i := 0; i < n; i++ {
		r := r0 + uint64(i)
		z := rng.NormalInv(r << 11)
		if z >= runMax {
			runMax, at = z, r
			continue
		}
		drop = math.Max(drop, runMax-z)
		if r-at > reach {
			reach = r - at
		}
	}
	return drop, reach
}

// TestCandidateWindowCoversNormalInvNoise pins scanLineRanked's
// exactness argument: over dense samples of the upper half of the raw
// hash range, plus both Acklam branch boundaries and the centre,
// NormalInv steps back by far less, over far fewer values, than it
// climbs across candidateWindow, so a cell ranked further than the
// window below a word's second-highest hash has a strictly lower Vcrit
// than both top-ranked cells.
func TestCandidateWindowCoversNormalInvNoise(t *testing.T) {
	const one = uint64(1) << 53
	const pLow = 0.02425 // rng.NormalInv's branch boundaries
	var maxDrop float64
	var maxReach uint64
	note := func(r0 uint64, n int) {
		d, r := normalInvNoise(r0, n)
		maxDrop = math.Max(maxDrop, d)
		if r > maxReach {
			maxReach = r
		}
	}
	const runs, runLen = 1 << 13, 1 << 10
	for k := uint64(0); k < runs; k++ {
		note(one/2+k*(one/2/runs), runLen)
	}
	for _, p := range []float64{pLow, 0.5, 1 - pLow} {
		note(uint64(p*float64(one))-1<<16, 1<<17)
	}
	if maxDrop == 0 {
		t.Fatal("measured no float noise; the samples miss the branch boundaries")
	}
	// The smallest climb across the window, flattest at p = 0.5.
	minGap := math.Inf(1)
	for k := uint64(0); k < runs; k++ {
		r := one/2 + k*(one/2/runs)
		if r+candidateWindow >= one {
			break
		}
		minGap = math.Min(minGap, rng.NormalInv((r+candidateWindow)<<11)-rng.NormalInv(r<<11))
	}
	t.Logf("NormalInv noise: drop %.3g over <= %d values; window climb >= %.3g", maxDrop, maxReach, minGap)
	if maxReach*64 > candidateWindow {
		t.Errorf("noise spans %d values, too close to the %d-value window", maxReach, candidateWindow)
	}
	if minGap < 100*maxDrop {
		t.Errorf("window climb %.3g is not far above the noise %.3g", minGap, maxDrop)
	}
	// The climb left after the noise on both sides must survive the
	// sigma scaling and base offset rounded to Vcrit (< 2 V) without a
	// tie, at the smallest SigmaRandom of either operating point.
	sigma := math.Inf(1)
	for _, pt := range []variation.Params{variation.LowVoltage(), variation.HighVoltage()} {
		for _, kp := range pt.Kinds {
			sigma = math.Min(sigma, kp.SigmaRandom)
		}
	}
	ulp2 := math.Nextafter(2, 3) - 2
	if sigma*(minGap-2*maxDrop) < 64*ulp2 {
		t.Errorf("Vcrit gap %.3g does not clear float rounding (%.3g)", sigma*(minGap-2*maxDrop), ulp2)
	}
	// Below the ranked floor the scan evaluates every cell; words ranked
	// above it keep their whole window inside the measured half.
	if rankedFloor-candidateWindow < one/2 {
		t.Errorf("ranked floor %d lets the window leave the upper half", uint64(rankedFloor))
	}
}

// TestQuietMatchesFlipProbability checks Quiet against its threshold
// and against the exact per-line flip probability around it.
func TestQuietMatchesFlipProbability(t *testing.T) {
	a := testArray(53)
	for s := 0; s < 8; s++ {
		for w := 0; w < a.Ways; w++ {
			p := a.LineProfile(s, w)
			clean := p.CleanAbove()
			for _, v := range []float64{clean - 0.002, clean, clean + 1e-6, clean + 0.01} {
				quiet := a.Quiet(s, w, v)
				if quiet && a.FlipProbability(s, w, v) != 0 {
					t.Fatalf("line %d/%d at %.6f V: quiet but flip probability %g", s, w, v, a.FlipProbability(s, w, v))
				}
				if quiet != (v > clean) {
					t.Fatalf("line %d/%d at %.6f V: Quiet %v, clean threshold %.6f", s, w, v, quiet, clean)
				}
			}
		}
	}
}
