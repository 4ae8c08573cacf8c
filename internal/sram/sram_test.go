package sram

import (
	"math"
	"testing"

	"eccspec/internal/ecc"
	"eccspec/internal/variation"
)

func testArray(seed uint64) *Array {
	m := variation.New(seed, variation.LowVoltage())
	return NewArray(m, 0, variation.KindL2D, 64, 8)
}

func TestNewArrayPanicsOnBadGeometry(t *testing.T) {
	m := variation.New(1, variation.LowVoltage())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArray(m, 0, variation.KindL2D, 0, 8)
}

func TestLineProfileShape(t *testing.T) {
	a := testArray(42)
	p := a.LineProfile(3, 2)
	if len(p.Bits) != WordsPerLine*weakBitsPerWord {
		t.Fatalf("profile has %d bits, want %d", len(p.Bits), WordsPerLine*weakBitsPerWord)
	}
	// Sorted descending by Vcrit.
	for i := 1; i < len(p.Bits); i++ {
		if p.Bits[i].Vcrit > p.Bits[i-1].Vcrit {
			t.Fatal("profile not sorted by descending Vcrit")
		}
	}
	// Exactly two entries per word.
	perWord := map[int]int{}
	for _, b := range p.Bits {
		perWord[b.Word()]++
		if b.Pos < 0 || b.Pos >= BitsPerLine {
			t.Fatalf("bit position %d out of range", b.Pos)
		}
		if b.CodewordPos() < 0 || b.CodewordPos() >= ecc.CodewordBits {
			t.Fatalf("codeword position %d out of range", b.CodewordPos())
		}
	}
	for w, n := range perWord {
		if n != weakBitsPerWord {
			t.Fatalf("word %d has %d profiled bits", w, n)
		}
	}
}

func TestLineProfileCached(t *testing.T) {
	a := testArray(42)
	p1 := a.LineProfile(1, 1)
	p2 := a.LineProfile(1, 1)
	if p1 != p2 {
		t.Fatal("profile not cached")
	}
}

func TestLineProfileDeterministic(t *testing.T) {
	a1 := testArray(7)
	a2 := testArray(7)
	p1 := a1.LineProfile(5, 3)
	p2 := a2.LineProfile(5, 3)
	if len(p1.Bits) != len(p2.Bits) {
		t.Fatal("profiles differ in size")
	}
	for i := range p1.Bits {
		if p1.Bits[i] != p2.Bits[i] {
			t.Fatalf("profiles differ at %d: %+v vs %+v", i, p1.Bits[i], p2.Bits[i])
		}
	}
}

func TestProfileVmaxIsTop(t *testing.T) {
	a := testArray(11)
	p := a.LineProfile(0, 0)
	if p.Vmax() != p.Bits[0].Vcrit {
		t.Fatal("Vmax is not the weakest cell's Vcrit")
	}
	empty := &Profile{}
	if empty.Vmax() != 0 {
		t.Fatal("empty profile Vmax should be 0")
	}
}

func TestPairVcritBelowVmax(t *testing.T) {
	a := testArray(13)
	p := a.LineProfile(2, 4)
	pv := p.PairVcrit()
	if pv <= 0 {
		t.Fatal("pair Vcrit should exist with 2 bits/word profiles")
	}
	if pv > p.Vmax() {
		t.Fatalf("pair Vcrit %v above Vmax %v", pv, p.Vmax())
	}
	if (&Profile{}).PairVcrit() != 0 {
		t.Fatal("empty profile PairVcrit should be 0")
	}
	// Word 0 has one cell; word 1's second-weakest of three, offered
	// out of order, beats word 2's tied pair.
	mixed := &Profile{Bits: []WeakBit{
		{Pos: 0, Vcrit: 0.9}, {Pos: 74, Vcrit: 0.7}, {Pos: 73, Vcrit: 0.85},
		{Pos: 144, Vcrit: 0.6}, {Pos: 72, Vcrit: 0.8}, {Pos: 145, Vcrit: 0.6},
	}}
	if pv := mixed.PairVcrit(); pv != 0.8 {
		t.Fatalf("PairVcrit %v, want word 1's second-weakest 0.8", pv)
	}
	if pv := (&Profile{Bits: []WeakBit{{Pos: 0, Vcrit: 0.9}}}).PairVcrit(); pv != 0 {
		t.Fatalf("PairVcrit %v of a one-cell profile, want 0", pv)
	}
	if pv := (&Profile{Bits: []WeakBit{{Pos: 144, Vcrit: 0.6}, {Pos: 145, Vcrit: 0.6}}}).PairVcrit(); pv != 0.6 {
		t.Fatalf("PairVcrit %v of a tied pair, want 0.6", pv)
	}
}

func TestSampleFlipsCleanAtHighVoltage(t *testing.T) {
	a := testArray(17)
	for i := 0; i < 1000; i++ {
		if f := a.SampleFlips(i%64, i%8, 0.95); f != nil {
			t.Fatalf("flips at 950mV (far above any Vcrit): %v", f)
		}
	}
}

func TestSampleFlipsCertainAtVeryLowVoltage(t *testing.T) {
	a := testArray(17)
	f := a.SampleFlips(0, 0, 0.30)
	if len(f) == 0 {
		t.Fatal("no flips at 300mV, far below every Vcrit")
	}
}

func TestSampleFlipsRateMatchesSigmoid(t *testing.T) {
	a := testArray(19)
	p := a.LineProfile(0, 0)
	weak := p.Bits[0]
	// Probe right at the weakest cell's Vcrit: it alone should flip
	// ~50% of the time (other cells are far weaker contributors as long
	// as the gap to the second cell is large).
	gap := weak.Vcrit - p.Bits[1].Vcrit
	if gap < 5*weak.Width {
		t.Skip("weakest two cells too close for isolated-rate check on this seed")
	}
	const n = 4000
	hits := 0
	for i := 0; i < n; i++ {
		if len(a.SampleFlips(0, 0, weak.Vcrit)) > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("flip rate at Vcrit = %v, want ~0.5", rate)
	}
}

func TestFlipProbabilityMonotone(t *testing.T) {
	a := testArray(23)
	prev := 1.1
	for v := 0.40; v <= 0.90; v += 0.005 {
		p := a.FlipProbability(7, 3, v)
		if p > prev+1e-12 {
			t.Fatalf("line flip probability not monotone decreasing at %v", v)
		}
		prev = p
	}
}

func TestFlipProbabilityRampWidth(t *testing.T) {
	// Fig. 13: the 0->100% ramp of a line's error probability spans
	// roughly 20-50 mV. Our per-cell widths (2-6 mV) with logistic tails
	// put the 1%..99% ramp in that ballpark.
	a := testArray(29)
	var v1, v99 float64
	for v := 0.90; v >= 0.30; v -= 0.0005 {
		p := a.FlipProbability(0, 0, v)
		if v1 == 0 && p >= 0.01 {
			v1 = v
		}
		if v99 == 0 && p >= 0.99 {
			v99 = v
			break
		}
	}
	ramp := v1 - v99
	if ramp < 0.005 || ramp > 0.120 {
		t.Fatalf("ramp width %v V outside plausible range", ramp)
	}
}

func TestWeakestLineIsGlobalMax(t *testing.T) {
	a := testArray(31)
	set, way, p := a.WeakestLine()
	for s := 0; s < a.Sets; s++ {
		for w := 0; w < a.Ways; w++ {
			if a.LineProfile(s, w).Vmax() > p.Vmax() {
				t.Fatalf("line (%d,%d) weaker than reported weakest (%d,%d)", s, w, set, way)
			}
		}
	}
}

func TestWeakestLineDiffersAcrossCores(t *testing.T) {
	// Paper §II-D: weak line addresses vary core to core.
	m := variation.New(101, variation.LowVoltage())
	coords := map[[2]int]bool{}
	for core := 0; core < 8; core++ {
		a := NewArray(m, core, variation.KindL2D, 64, 8)
		s, w, _ := a.WeakestLine()
		coords[[2]int{s, w}] = true
	}
	if len(coords) < 4 {
		t.Fatalf("weakest lines suspiciously clustered: %d distinct of 8", len(coords))
	}
}

func TestAgingInvalidatesProfiles(t *testing.T) {
	a := testArray(37)
	before := a.LineProfile(1, 1).Vmax()
	a.SetAge(20000)
	after := a.LineProfile(1, 1).Vmax()
	if after < before {
		t.Fatalf("aging lowered Vmax: %v -> %v", before, after)
	}
	if after == before {
		t.Fatalf("aging left Vmax unchanged: %v", after)
	}
	if a.Age() != 20000 {
		t.Fatal("Age not recorded")
	}
}

func TestTemperatureShiftsEffectiveVoltage(t *testing.T) {
	a := testArray(41)
	probeV := a.LineProfile(0, 0).Vmax() // mid-ramp, where shifts are visible
	p40 := a.FlipProbability(0, 0, probeV)
	a.SetTemperature(90) // far beyond the paper's 20C excursion
	p90 := a.FlipProbability(0, 0, probeV)
	if p90 <= p40 {
		t.Fatalf("hotter array should fail more: %v vs %v", p90, p40)
	}
	if a.Temperature() != 90 {
		t.Fatal("Temperature not recorded")
	}
}

func TestTemperature20CNoMeasurableEffect(t *testing.T) {
	// Paper §III-D: +/-20C did not measurably change error behaviour.
	// Verify the error-onset voltage moves by less than one 5 mV step.
	a := testArray(43)
	onset := func() float64 {
		for v := 0.90; v >= 0.30; v -= 0.001 {
			if a.FlipProbability(0, 0, v) >= 0.5 {
				return v
			}
		}
		return 0
	}
	v40 := onset()
	a.SetTemperature(60)
	v60 := onset()
	if math.Abs(v60-v40) >= 0.005 {
		t.Fatalf("onset moved %v V over 20C, exceeds one control step", v60-v40)
	}
}

func TestSampleFlipsPanicsOutOfRange(t *testing.T) {
	a := testArray(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SampleFlips(64, 0, 0.7)
}

func TestLinesCount(t *testing.T) {
	a := testArray(1)
	if a.Lines() != 64*8 {
		t.Fatalf("Lines() = %d", a.Lines())
	}
}

// BenchmarkLineProfileScan characterizes one whole array per op, as a
// chip's specimen build does, and reports the cost per line: the
// array's profile index and slabs are shared by its 512 lines.
func BenchmarkLineProfileScan(b *testing.B) {
	m := variation.New(42, variation.LowVoltage())
	lines := 0
	for i := 0; i < b.N; i++ {
		a := NewArray(m, i%8, variation.KindL2D, 64, 8)
		for s := 0; s < a.Sets; s++ {
			for w := 0; w < a.Ways; w++ {
				a.LineProfile(s, w)
			}
		}
		lines += a.Lines()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
}

func BenchmarkSampleFlips(b *testing.B) {
	a := testArray(42)
	a.LineProfile(0, 0) // warm the profile cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SampleFlips(0, 0, 0.66)
	}
}
