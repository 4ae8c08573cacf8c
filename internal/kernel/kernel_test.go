package kernel_test

// Property test for the batch kernel's contract against the scalar
// reference: Sample replays the scalar per-line loop
// (sram.ErrorProbabilities plus per-line Poisson draws) bit for bit —
// same counts, same stream draws — across voltages and temperatures,
// and TrueMean returns the scalar loop's expected-event sum exactly.

import (
	"math"
	"sort"
	"testing"

	"eccspec/internal/kernel"
	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/stats"
	"eccspec/internal/variation"
)

const (
	testSets = 64
	testWays = 8
)

// buildLines collects every line of a fresh array in the chip's
// sensitive-line order (descending onset voltage) and returns the array
// with its flattened table.
func buildLines(seed uint64) (*sram.Array, []kernel.Line) {
	m := variation.New(seed, variation.LowVoltage())
	a := sram.NewArray(m, 0, variation.KindL2D, testSets, testWays)
	lines := make([]kernel.Line, 0, testSets*testWays)
	for set := 0; set < testSets; set++ {
		for way := 0; way < testWays; way++ {
			lines = append(lines, kernel.Line{Set: set, Way: way, Profile: a.LineProfile(set, way)})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool {
		return lines[i].Profile.Vmax() > lines[j].Profile.Vmax()
	})
	return a, lines
}

// scalarSample is the pre-kernel reference loop: per line in table
// order, exact probabilities from the sram model and one Poisson draw
// per nonzero probability.
func scalarSample(a *sram.Array, lines []kernel.Line, stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, trueMean float64, fatal bool, counts []kernel.LineCount) {
	for _, ln := range lines {
		if ln.Profile.Vmax() < cutoff {
			break
		}
		ps, pu := a.ErrorProbabilities(ln.Set, ln.Way, v)
		if ps > 0 {
			n := stats.SamplePoisson(stream, perLine*ps)
			corrected += n
			trueMean += perLine * ps
			if n > 0 {
				counts = append(counts, kernel.LineCount{Set: ln.Set, Way: ln.Way, N: n})
			}
		}
		if pu > 0 && stats.SamplePoisson(stream, fatalPerLine*pu) > 0 {
			fatal = true
		}
	}
	return corrected, trueMean, fatal, counts
}

func TestSampleMatchesScalarReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		a, lines := buildLines(seed)
		table := kernel.Build(a, variation.KindL2D, lines)
		vmax := lines[0].Profile.Vmax()
		const perLine, fatalPerLine = 750.0, 7.5
		draw := uint64(0)
		for _, tempC := range []float64{45, 61.5} {
			a.SetTemperature(tempC)
			// Sweep from well above the weakest onset (nothing live) down
			// into the regime where hundreds of lines have nonzero
			// probabilities, exercising both guards and the live path.
			for dv := -0.085; dv <= 0.02; dv += 0.0025 {
				v := vmax + dv
				cutoff := math.Inf(-1)
				if draw%3 == 0 {
					// Every third point: a finite onset cutoff, as the
					// chip's workload sampling uses.
					cutoff = v - 0.04
				}
				draw++
				sRef := rng.NewStream(seed, 0xEC, draw)
				sKer := rng.NewStream(seed, 0xEC, draw)
				wc, wm, wf, wl := scalarSample(a, lines, sRef, v, cutoff, perLine, fatalPerLine)
				gc, gf, gl := table.SampleAll(sKer, v, cutoff, perLine, fatalPerLine)
				gm := table.TrueMean()
				if gc != wc || gm != wm || gf != wf {
					t.Fatalf("seed %d v %.4f temp %.1f: kernel (%d, %g, %v) vs scalar (%d, %g, %v)",
						seed, v, tempC, gc, gm, gf, wc, wm, wf)
				}
				if len(gl) != len(wl) {
					t.Fatalf("seed %d v %.4f: %d per-line counts vs %d", seed, v, len(gl), len(wl))
				}
				for i := range gl {
					if gl[i] != wl[i] {
						t.Fatalf("seed %d v %.4f: count[%d] %+v vs %+v", seed, v, i, gl[i], wl[i])
					}
				}
				if sKer.State() != sRef.State() {
					t.Fatalf("seed %d v %.4f temp %.1f: stream states diverge (%#x vs %#x)",
						seed, v, tempC, sKer.State(), sRef.State())
				}
			}
		}
	}
}
