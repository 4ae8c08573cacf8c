package sram

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"eccspec/internal/ecc"
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
// per-cell scan over 393,216 lines: 6 seeds, both operating points,
// the four structure kinds a chip profiles, all eight cores.
func TestRankedScanMatchesScalar(t *testing.T) {
	kinds := []variation.Kind{variation.KindL2D, variation.KindL2I, variation.KindRegFile, variation.KindL1D}
	points := []variation.Params{variation.LowVoltage(), variation.HighVoltage()}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			lines := 0
			for _, pt := range points {
				m := variation.New(seed*7919, pt)
				for _, kind := range kinds {
					for core := 0; core < 8; core++ {
						a := NewArray(m, core, kind, 128, 8)
						for s := 0; s < a.Sets; s++ {
							for w := 0; w < a.Ways; w++ {
								got, want := a.scanLineRanked(s, w), a.scanLine(s, w)
								if !sameBits(got, want) {
									t.Fatalf("%s %s core %d line %d/%d: ranked %+v, scalar %+v",
										pt.Name, kind, core, s, w, got.Bits, want.Bits)
								}
								lines++
							}
						}
					}
				}
			}
			if lines != 2*4*8*128*8 {
				t.Fatalf("compared %d lines", lines)
			}
		})
	}
}

// referenceWord is the selection the ranked scan must reproduce: every
// cell of word w, given its raw hash, offered to wordTop in position
// order.
func referenceWord(raw *[ecc.CodewordBits]uint64, d *variation.LineDraws, base float64, w int) [weakBitsPerWord]WeakBit {
	var top wordTop
	for cw, r := range raw {
		top.offer(w*ecc.CodewordBits+cw, base+d.Random(r<<11))
	}
	return top.bits
}

// TestWordSelectorMatchesInsertion drives the ranked scan's word
// selection with synthetic raw hashes: random words, words whose third
// hash lies inside or just outside candidateWindow of the second,
// words whose second hash sits at rankedFloor, equal hashes, and near
// ties where NormalInv's float noise can invert two cells' order. For
// each, keyTop3 must hold the word's three top keys, pick must decline
// exactly the undecided words, and both pick and candidateWord must
// match the reference insertion.
func TestWordSelectorMatchesInsertion(t *testing.T) {
	a := testArray(11)
	d := a.Model.LineDraws(a.Core, a.Kind, 0, 0)
	src := rng.NewStream(11, 0x7e57)
	const one = uint64(1) << 53
	// word returns a word of raw hashes below floor with the given hashes
	// planted at the given positions.
	word := func(floor uint64, plant map[int]uint64) *[ecc.CodewordBits]uint64 {
		var raw [ecc.CodewordBits]uint64
		for cw := range raw {
			raw[cw] = src.Uint64() % floor
			if r, ok := plant[cw]; ok {
				raw[cw] = r
			}
		}
		return &raw
	}
	type tcase struct {
		name   string
		raw    *[ecc.CodewordBits]uint64
		picked bool
	}
	hi := one - one/8
	var cases []tcase
	for i := 0; i < 2000; i++ {
		cases = append(cases, tcase{"random", word(one, nil), true})
	}
	for _, c := range []struct {
		name       string
		r2, r3     uint64
		picked     bool
		firstAbove uint64
	}{
		{"third inside window", hi, hi - candidateWindow + 1, false, 7},
		{"third at window edge", hi, hi - candidateWindow, false, 7},
		{"third just outside window", hi, hi - candidateWindow - 1, true, 7},
		{"second below floor", rankedFloor - 1, 0, false, 7},
		{"second at floor", rankedFloor, 0, true, 7},
		{"top two equal", hi, hi - 2*candidateWindow, true, 0},
		{"second and third equal", hi, hi, false, 7},
	} {
		for _, pos := range [][3]int{{3, 40, 71}, {71, 0, 35}, {35, 71, 0}} {
			plant := map[int]uint64{pos[0]: c.r2 + c.firstAbove, pos[1]: c.r2, pos[2]: c.r3}
			cases = append(cases, tcase{c.name, word(max(c.r3, 1), plant), c.picked})
		}
	}
	// Near ties: two top hashes a few values apart just above
	// rankedFloor, where their Vcrits round equal, and at NormalInv's
	// upper branch boundary, where its float noise orders their Vcrits
	// against their hashes.
	for _, c := range []uint64{rankedFloor, uint64((1-0.02425)*float64(one)) - 1<<15} {
		for i := 0; i < 200; i++ {
			at := c + src.Uint64()%(1<<16)
			r1, r2 := at+src.Uint64()%16, at+src.Uint64()%16
			if r1 == r2 {
				continue
			}
			plant := map[int]uint64{src.Intn(36): r1, 36 + src.Intn(36): r2}
			cases = append(cases, tcase{"near tie", word(c-2*candidateWindow, plant), true})
		}
	}
	// All cells equal: the first two positions win.
	var flat [ecc.CodewordBits]uint64
	for cw := range flat {
		flat[cw] = hi
	}
	cases = append(cases, tcase{"all equal", &flat, false})

	ties, inversions := 0, 0
	for i, c := range cases {
		var keys []uint64
		var tk keyTop3
		for cw, r := range c.raw {
			k := r<<cellBits | uint64(cw)
			keys = append(keys, k)
			tk = tk.push(k)
		}
		slices.Sort(keys)
		n := len(keys)
		if tk != (keyTop3{keys[n-1], keys[n-2], keys[n-3]}) {
			t.Fatalf("case %d (%s): top keys %x, want %x", i, c.name, tk, keys[n-3:])
		}
		w := i % WordsPerLine
		want := referenceWord(c.raw, &d, a.base, w)
		var got [weakBitsPerWord]WeakBit
		picked := tk.pick(&d, a.base, w, &got)
		if picked != c.picked {
			t.Fatalf("case %d (%s): pick decided %v, want %v", i, c.name, picked, c.picked)
		}
		if picked && got != want {
			t.Fatalf("case %d (%s): picked %+v, insertion %+v", i, c.name, got, want)
		}
		if want[0].Vcrit == want[1].Vcrit {
			ties++
		} else if c.raw[want[0].CodewordPos()] < c.raw[want[1].CodewordPos()] {
			inversions++
		}
		var fallback [weakBitsPerWord]WeakBit
		candidateWord(c.raw, tk.k2>>cellBits, &d, a.base, w, &fallback)
		if fallback != want {
			t.Fatalf("case %d (%s): candidate pass %+v, insertion %+v", i, c.name, fallback, want)
		}
	}
	if ties == 0 || inversions == 0 {
		t.Fatalf("%d Vcrit ties and %d hash-order inversions; the near ties exercise neither", ties, inversions)
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

// TestQuietMatchesFlipProbability checks the clean column against each
// line's profile and against the exact per-line flip probability
// around it: above its entry a line's flip probability is zero.
func TestQuietMatchesFlipProbability(t *testing.T) {
	a := testArray(53)
	a.SetTemperature(63)
	col := a.CleanColumn()
	for s := 0; s < a.Sets; s++ {
		for w := 0; w < a.Ways; w++ {
			clean := col[s*a.Ways+w]
			if want := a.LineProfile(s, w).CleanAbove(); clean != want {
				t.Fatalf("line %d/%d: column says clean above %.6f V, profile %.6f V", s, w, clean, want)
			}
			if s >= 8 {
				continue
			}
			for _, vEff := range []float64{clean - 0.002, clean, clean + 1e-6, clean + 0.01} {
				v := vEff + a.Model.TempShift(a.Temperature())
				if a.EffectiveVoltage(v) > clean && a.FlipProbability(s, w, v) != 0 {
					t.Fatalf("line %d/%d at %.6f V: quiet but flip probability %g", s, w, v, a.FlipProbability(s, w, v))
				}
			}
		}
	}
}
