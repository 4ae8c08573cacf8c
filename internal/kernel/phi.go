package kernel

import "math"

// The bounded sampling path bounds a live cell's flip probability
// pf(x) = 0.5*(1+Erf(x/√2)), x = (Vcrit-vEff)/Width, from above with a
// table instead of an erf evaluation.
const (
	// phiSteps is the number of table cells per ramp width.
	phiSteps = 64
	// phiMaxX is the highest x the table bounds; cells above it send
	// the line to the exact path. Near x = 8 the bound is close to 1
	// and saves no exact evaluation anyway.
	phiMaxX = 8 - 4.0/phiSteps
	// phiRelMargin and phiAbsMargin lift each entry above the computed
	// pf anywhere in its cell. The computed pf is monotone only up to
	// erf's rounding: a few 1e-16 absolute near pf = 0, and a relative
	// error below 1e-14 from rounding x/√2. The relative margin also
	// covers the rounding of summing up to sram.WordsPerLine bounds.
	phiRelMargin = 1e-12
	phiAbsMargin = 1e-15
	// productSlack bounds how far rounding can lift the computed
	// ps = 1 - Π(1-pf) above the union bound Σ pf: each of up to
	// sram.WordsPerLine factors and products rounds by at most 2^-53,
	// about 2e-15 in all.
	productSlack = 1e-14
)

// phiHi[j] bounds the computed pf from above for every x in
// [g(j-1), g(j)], g(j) = -8 + j/phiSteps: it is the computed pf at
// g(j), the cell's upper end, lifted by the margins. pf rises with x,
// so the entries rise with j. Entry int((x+8)*phiSteps)+1 covers x.
var phiHi = func() (t [16*phiSteps + 1]float64) {
	for j := range t {
		g := -8 + float64(j)/phiSteps
		t[j] = 0.5*(1+math.Erf(g/math.Sqrt2))*(1+phiRelMargin) + phiAbsMargin
	}
	return t
}()
