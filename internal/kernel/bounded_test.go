package kernel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"eccspec/internal/ecc"
	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/stats"
	"eccspec/internal/variation"
)

// exactSample is the per-line loop without the bounded path: every
// line that clears the guards gets its exact probabilities from
// lineProbabilities and its draws from SamplePoissonFast.
func (t *Table) exactSample(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, trueMean float64, fatal bool, counts []LineCount) {
	vEff := v - t.arr.Model.TempShift(t.arr.Temperature())
	var first, second [sram.WordsPerLine]float64
	for _, i := range t.allIdx {
		if t.vmax[i] < cutoff {
			break
		}
		if vEff > t.vsafe[i] {
			continue
		}
		ps, pu := t.lineProbabilities(int(i), vEff, &first, &second)
		if ps > 0 {
			n := stats.SamplePoissonFast(stream, perLine*ps)
			corrected += n
			trueMean += perLine * ps
			if n > 0 {
				counts = append(counts, LineCount{Set: int(t.set[i]), Way: int(t.way[i]), N: n})
			}
		}
		if pu > 0 && stats.SamplePoissonFast(stream, fatalPerLine*pu) > 0 {
			fatal = true
		}
	}
	return corrected, trueMean, fatal, counts
}

// edgeX are ramp-width offsets x = (Vcrit-vEff)/w at which the bounded
// path changes behaviour: the liveness edge at -8, the table's top
// phiMaxX, the exact path's pf = 1 edge at 8, and table cell
// boundaries.
var edgeX = []float64{
	-8, math.Nextafter(-8, -9), math.Nextafter(-8, 0), -8 + 1e-12, -8 - 1e-12,
	-7.99, -7.9, -6, -4, -4 + 1.0/phiSteps, -1, 0, 0.5, 1, 3, 6,
	phiMaxX, math.Nextafter(phiMaxX, 0), math.Nextafter(phiMaxX, 9), 7.99,
	8, math.Nextafter(8, 9), 8.5,
}

// randomLines builds n synthetic lines whose cells sit at random and
// edge offsets from vEff. Words are drawn from a few per line, so many
// words hold two cells; some cells have a non-positive width.
func randomLines(r *rand.Rand, n int, vEff float64) []Line {
	lines := make([]Line, n)
	for i := range lines {
		nb := 1 + r.Intn(6)
		nWords := 1 + r.Intn(sram.WordsPerLine)
		bits := make([]sram.WeakBit, nb)
		for k := range bits {
			w := 0.002 + 0.02*r.Float64()
			switch r.Intn(20) {
			case 0:
				w = 0
			case 1:
				w = -0.001
			}
			var x float64
			switch r.Intn(3) {
			case 0:
				x = edgeX[r.Intn(len(edgeX))]
			case 1:
				x = -8 + 3*r.Float64() // live but tiny pf
			default:
				x = -10 + 20*r.Float64()
			}
			wx := w
			if wx <= 0 {
				wx = 0.01
			}
			bits[k] = sram.WeakBit{
				Pos:   r.Intn(nWords)*ecc.CodewordBits + r.Intn(ecc.CodewordBits),
				Vcrit: vEff + x*wx,
				Width: w,
			}
		}
		sort.SliceStable(bits, func(a, b int) bool { return bits[a].Vcrit > bits[b].Vcrit })
		lines[i] = Line{Set: i / 8, Way: i % 8, Profile: &sram.Profile{Bits: bits}}
	}
	sort.SliceStable(lines, func(a, b int) bool { return lines[a].Profile.Vmax() > lines[b].Profile.Vmax() })
	return lines
}

// TestBoundedSampleMatchesExact holds Sample (bounded path and its
// fallbacks) to the exact per-line loop over random profiles, voltages,
// temperatures and access counts: equal counts, per-line counts, fatal
// flags, TrueMean and final stream positions.
func TestBoundedSampleMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := variation.New(5, variation.LowVoltage())
	arr := sram.NewArray(m, 0, variation.KindL2D, 64, 8)
	bounded, fallback := 0, 0
	for trial := 0; trial < 400; trial++ {
		tempC := 30 + 60*r.Float64()
		arr.SetTemperature(tempC)
		v := 0.55 + 0.2*r.Float64()
		vEff := v - m.TempShift(tempC)
		table := Build(arr, variation.KindL2D, randomLines(r, 64, vEff))
		cutoff := math.Inf(-1)
		if trial%4 == 0 {
			cutoff = vEff - 0.01
		}
		for draw := 0; draw < 20; draw++ {
			var perLine float64
			switch draw % 5 {
			case 0:
				perLine = math.Pow(10, -3+4*r.Float64())
			case 1:
				// Straddle the bound's 50 limit for lines with ps ~ 1.
				perLine = 30 + 40*r.Float64()
			case 2:
				perLine = math.Pow(10, 2+4*r.Float64())
			case 3:
				perLine = []float64{0, 5e-324, 1e-320, 1e-300, minBoundedPerLine, 1e-200}[r.Intn(6)]
			default:
				perLine = 0.5 + r.Float64()
			}
			fatalPerLine := perLine * 0.01
			seed := uint64(trial*100 + draw)
			sRef := rng.NewStream(seed, 0xEC)
			sKer := rng.NewStream(seed, 0xEC)
			wc, wm, wf, wl := table.exactSample(sRef, v, cutoff, perLine, fatalPerLine)
			gc, gf, gl := table.SampleAll(sKer, v, cutoff, perLine, fatalPerLine)
			gm := table.TrueMean()
			if gc != wc || gf != wf || gm != wm {
				t.Fatalf("trial %d draw %d perLine %g: bounded (%d, %v, %g) vs exact (%d, %v, %g)",
					trial, draw, perLine, gc, gf, gm, wc, wf, wm)
			}
			if len(gl) != len(wl) {
				t.Fatalf("trial %d draw %d: %d per-line counts vs %d", trial, draw, len(gl), len(wl))
			}
			for i := range gl {
				if gl[i] != wl[i] {
					t.Fatalf("trial %d draw %d: count[%d] %+v vs %+v", trial, draw, i, gl[i], wl[i])
				}
			}
			if sKer.State() != sRef.State() {
				t.Fatalf("trial %d draw %d perLine %g: stream states diverge (%#x vs %#x)",
					trial, draw, perLine, sKer.State(), sRef.State())
			}
		}
		var first, second [sram.WordsPerLine]float64
		for i := range table.vmax {
			if vEff > table.vsafe[i] {
				continue
			}
			if _, ok := table.sampleBounded(i, rng.NewStream(1), vEff, 1, &first, &second); ok {
				bounded++
			} else {
				fallback++
			}
		}
	}
	// The random profiles must reach both sides of every line decision.
	if bounded < 1000 || fallback < 1000 {
		t.Fatalf("lines taking the bounded path %d, falling back %d: want both >= 1000", bounded, fallback)
	}
}

// computedPhi is the flip probability exactly as lineProbabilities
// computes it for a cell at ramp offset x in [-8, 8].
func computedPhi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// TestPhiHiBoundsComputedPhi sweeps every table cell densely: the entry
// the bounded path looks up for x must bound the computed pf(x), the
// entries must not fall, and pf must be nonzero from x = -8 on, so that
// a live cell always makes ps > 0.
func TestPhiHiBoundsComputedPhi(t *testing.T) {
	for j := 1; j < len(phiHi); j++ {
		if phiHi[j] < phiHi[j-1] {
			t.Fatalf("phiHi[%d] = %g below phiHi[%d] = %g", j, phiHi[j], j-1, phiHi[j-1])
		}
	}
	const perCell = 512
	check := func(x float64) {
		j := int((x+8)*phiSteps) + 1
		if pf := computedPhi(x); !(pf > 0 && pf <= phiHi[j]) {
			t.Fatalf("x %v: computed pf %g, table entry %d = %g", x, pf, j, phiHi[j])
		}
	}
	for c := 0; -8+float64(c)/phiSteps < phiMaxX; c++ {
		lo := -8 + float64(c)/phiSteps
		for k := 0; k <= perCell; k++ {
			if x := lo + float64(k)/(perCell*phiSteps); x <= phiMaxX {
				check(x)
			}
		}
		// The cell's ends, ulp by ulp.
		x, y := lo, lo
		for k := 0; k < 64; k++ {
			check(x)
			if y >= -8 {
				check(y)
			}
			x = math.Nextafter(x, 9)
			y = math.Nextafter(y, -9)
		}
	}
	// pf's smallest values, where erf's rounding is largest relative
	// to pf.
	for x := -8.0; x < -7.5; x = math.Nextafter(x+1e-7, 0) {
		check(x)
	}
}
