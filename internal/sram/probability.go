package sram

import "eccspec/internal/variation"

// ErrorProbabilities returns, for one read of the line at voltage v, the
// probability of a correctable event (at least one flip, but no word
// with two) and of an uncorrectable event (some word with two flips).
// One pass, no allocation — this is the hot call of the per-tick
// statistical workload model.
func (a *Array) ErrorProbabilities(set, way int, v float64) (pSingle, pUncorrectable float64) {
	p := a.LineProfile(set, way)
	vEff := a.EffectiveVoltage(v)
	var first, second [WordsPerLine]float64
	anyClean := 1.0
	for _, b := range p.Bits {
		pf := variation.FlipProbability(b.Vcrit, b.Width, vEff)
		if pf == 0 {
			continue
		}
		anyClean *= 1 - pf
		w := b.Word()
		if first[w] == 0 {
			first[w] = pf
		} else if second[w] == 0 {
			second[w] = pf
		}
	}
	uncClean := 1.0
	for w := 0; w < WordsPerLine; w++ {
		if second[w] > 0 {
			uncClean *= 1 - first[w]*second[w]
		}
	}
	pAny := 1 - anyClean
	pUncorrectable = 1 - uncClean
	return pAny - pUncorrectable, pUncorrectable
}
