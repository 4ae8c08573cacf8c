// Package kernel holds the struct-of-arrays batch kernels behind the
// chip's per-tick hot path.
//
// The scalar tick loop walked every sensitive line of every array each
// tick and paid an erf evaluation per profiled cell, even though at
// operating voltages all but a handful of lines have flip probabilities
// that are zero to double precision. A Table flattens one array's
// sensitive-line profiles into sorted columns (line onset voltages,
// per-line and per-bit conservative "certainly clean" thresholds), so
// a whole array's tick can be sampled with one comparison per line.
//
// Even a line that can flip almost never does: its Poisson mean is
// ~1e-3, so its one uniform draw nearly always resolves to zero. The
// kernel therefore bounds each such line's probability from above with
// a monotone table of the normal CDF, draws the uniform, and computes
// the exact erf-based probability only when the draw lands inside the
// bound's acceptance window.
//
// Sample (and SampleAll, its register-file form) reproduces the scalar
// loop's stream draws bit for bit, and every probability it computes
// with the scalar loop's floating-point operations, so simulation stays
// byte-identical to the pre-kernel implementation. TrueMean recomputes
// the exact expected event count of the last Sample for the callers
// that read it.
package kernel

import (
	"math"

	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/stats"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

// Line is one sensitive line handed to Build, in the same descending-
// onset-voltage order the chip's sensitive-line lists use.
type Line struct {
	Set, Way int
	Profile  *sram.Profile
}

// LineCount reports one line's sampled corrected-event count. The
// slice returned by Sample is scratch owned by the Table and is
// overwritten by the next Sample.
type LineCount struct {
	Set, Way int
	N        int
}

// Table is the struct-of-arrays view of one array's sensitive lines.
// It is built once per (array, age epoch).
type Table struct {
	arr  *sram.Array
	kind variation.Kind

	// Per-line columns, ordered by descending onset voltage (the
	// chip's sensitive-line order).
	set   []int32
	way   []int32
	vmax  []float64 // Profile.Vmax per line
	vsafe []float64 // Profile.CleanAbove per line
	start []int32   // bit-column range per line; len(start) == lines+1
	// prof holds each line's profile, whose cells (descending Vcrit)
	// the exact probability math reads. Only the few live lines of a
	// tick get that far, so the cells are not copied into columns.
	prof []*sram.Profile

	// Per-bit columns, flattened line by line. safeOrd/safeV hold each
	// line's cell indices (into its profile) re-sorted by descending
	// "certainly clean" threshold (WeakBit.CleanAbove). At any
	// operating voltage the cells that can flip are exactly a prefix of
	// this order, so the per-bit threshold test becomes a prefix scan
	// with an early break instead of a walk over the whole profile. A
	// line has sram.BitsPerLine cells, so a uint16 index suffices.
	safeOrd []uint16
	safeV   []float64
	cand    []uint16 // lineProbabilities scratch: live cells of one line

	// fpIdx caches the workload footprint as the indices of the
	// exercised lines (vmax order preserved), so the sampling loop never
	// visits unexercised lines; wl identifies the workload instance it
	// was built for. allIdx is the identity order used when the
	// footprint is off.
	wl     *workload.Workload
	fpIdx  []int32
	allIdx []int32

	counts []LineCount // Sample scratch

	// last records the operating point of the last Sample or
	// SampleAll, which TrueMean replays.
	last struct {
		vEff, cutoff, perLine float64
		footprint             bool
	}
}

// Build flattens the given sensitive lines (descending onset voltage)
// into a Table over the array. Every column is sized exactly up front.
func Build(arr *sram.Array, kind variation.Kind, lines []Line) *Table {
	bits, maxBits := 0, 0
	for _, ln := range lines {
		n := len(ln.Profile.Bits)
		bits += n
		if n > maxBits {
			maxBits = n
		}
	}
	t := &Table{
		arr:     arr,
		kind:    kind,
		set:     make([]int32, len(lines)),
		way:     make([]int32, len(lines)),
		vmax:    make([]float64, len(lines)),
		vsafe:   make([]float64, len(lines)),
		start:   make([]int32, len(lines)+1),
		prof:    make([]*sram.Profile, len(lines)),
		safeOrd: make([]uint16, bits),
		safeV:   make([]float64, bits),
		cand:    make([]uint16, 0, maxBits),
		allIdx:  make([]int32, len(lines)),
	}
	j := 0
	for i, ln := range lines {
		t.set[i] = int32(ln.Set)
		t.way[i] = int32(ln.Way)
		t.vmax[i] = ln.Profile.Vmax()
		t.vsafe[i] = ln.Profile.CleanAbove()
		t.prof[i] = ln.Profile
		t.allIdx[i] = int32(i)
		lo := j
		for k, b := range ln.Profile.Bits {
			t.safeOrd[j] = uint16(k)
			t.safeV[j] = b.CleanAbove()
			j++
		}
		t.start[i+1] = int32(j)
		sortSafeDesc(t.safeOrd[lo:j], t.safeV[lo:j])
	}
	return t
}

// sortSafeDesc orders a line's bit indices by descending clean
// threshold, permuting the thresholds alongside. Lines hold a handful
// of bits, so an insertion sort suffices. How ties are ordered cannot
// matter: lineProbabilities takes the prefix of thresholds at or above
// the voltage, which is the same set of bits in any tie order, and
// re-sorts it by index.
func sortSafeDesc(ord []uint16, safe []float64) {
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && safe[j] > safe[j-1]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
			safe[j], safe[j-1] = safe[j-1], safe[j]
		}
	}
}

// Lines returns the number of sensitive lines in the table.
func (t *Table) Lines() int { return len(t.vmax) }

// EnsureFootprint (re)builds the cached workload-exercise mask. The
// mask is pure in (workload seed, kind, set, way), so it is keyed by
// workload instance and rebuilt only when the core's workload changes.
func (t *Table) EnsureFootprint(wl *workload.Workload) {
	if t.wl == wl {
		return
	}
	t.wl = wl
	t.fpIdx = t.fpIdx[:0]
	for i := range t.set {
		if wl.Exercises(t.kind, int(t.set[i]), int(t.way[i])) {
			t.fpIdx = append(t.fpIdx, int32(i))
		}
	}
}

// Sample is the exact batch kernel: one tick's worth of accesses over
// the table's lines at raw voltage v, drawing event counts from stream.
// perLine is the per-line access count, fatalPerLine the per-line
// exposure for uncorrectable sampling (perLine * FatalRateFactor), and
// cutoff the onset voltage below which lines are skipped (-Inf to
// disable, register-file mode). When footprint is true, lines outside
// the cached workload mask are skipped.
//
// The results and stream draws are bit-for-bit those of the scalar
// loop it replaces (sram.Array.ErrorProbabilities plus per-line
// stats.SamplePoissonFast draws): the threshold guards only skip cells
// whose exact flip probability is zero, and a line's exact probability
// is skipped only when its draw resolves to zero under an upper bound
// (see sampleBounded).
func (t *Table) Sample(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, fatal bool, counts []LineCount) {
	return t.sample(stream, v, cutoff, perLine, fatalPerLine, true)
}

// SampleAll is Sample without the workload-footprint mask (register
// file: exercised continuously and completely).
func (t *Table) SampleAll(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, fatal bool, counts []LineCount) {
	return t.sample(stream, v, cutoff, perLine, fatalPerLine, false)
}

// minBoundedPerLine is the smallest per-line access count the bounded
// path takes. A line with a live cell has ps >= 2^-53, so above this
// perLine*ps cannot underflow to zero, and the uniform the bounded
// path draws is one SamplePoissonFast would have drawn too.
const minBoundedPerLine = 1e-280

func (t *Table) sample(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64, footprint bool) (corrected int, fatal bool, counts []LineCount) {
	t.counts = t.counts[:0]
	vEff := v - t.arr.Model.TempShift(t.arr.Temperature())
	t.last.vEff, t.last.cutoff, t.last.perLine, t.last.footprint = vEff, cutoff, perLine, footprint
	bounded := perLine >= minBoundedPerLine
	var first, second [sram.WordsPerLine]float64
	idx := t.allIdx
	if footprint {
		idx = t.fpIdx
	}
	for _, i := range idx {
		if t.vmax[i] < cutoff {
			break
		}
		if vEff > t.vsafe[i] {
			// Every cell of the line is provably clean: the scalar
			// loop would compute (0, 0) and draw nothing.
			continue
		}
		n, ok := 0, false
		if bounded {
			n, ok = t.sampleBounded(int(i), stream, vEff, perLine, &first, &second)
		}
		if !ok {
			ps, pu := t.lineProbabilities(int(i), vEff, &first, &second)
			if ps > 0 {
				n = stats.SamplePoissonFast(stream, perLine*ps)
			}
			if pu > 0 && stats.SamplePoissonFast(stream, fatalPerLine*pu) > 0 {
				fatal = true
			}
		}
		if n > 0 {
			corrected += n
			t.counts = append(t.counts, LineCount{Set: int(t.set[i]), Way: int(t.way[i]), N: n})
		}
	}
	return corrected, fatal, t.counts
}

// sampleBounded draws line i's corrected-event count without the
// line's exact probability whenever it can. It declines (ok false,
// nothing drawn) unless the line's uncorrectable probability is exactly
// zero and its corrected-event mean has a bound of at most 50, the
// largest mean SamplePoissonFast samples with Knuth's loop. Otherwise
// it draws SamplePoissonFast's first uniform u, returns 0 when u
// resolves to zero under the bound, and else computes the exact mean
// and resumes the draw from u. The bound is the union bound over the
// live cells of phiHi's per-cell bounds plus productSlack, and
// SamplePoissonFast's zero test, u <= 1-m-1e-15, is monotone in m, so
// a draw that is zero under the bound is zero under the exact mean.
func (t *Table) sampleBounded(i int, stream *rng.Stream, vEff, perLine float64, first, second *[sram.WordsPerLine]float64) (n int, ok bool) {
	lo, hi := t.start[i], t.start[i+1]
	safeV := t.safeV[lo:hi]
	safeOrd := t.safeOrd[lo:hi]
	bits := t.prof[i].Bits
	var words uint8
	psHi := 0.0
	for k := 0; k < len(safeV); k++ {
		if vEff > safeV[k] {
			break
		}
		b := &bits[safeOrd[k]]
		w := b.Width
		if w <= 0 {
			return 0, false
		}
		// The live test and x are lineProbabilities' own: a cell flips
		// with nonzero probability exactly when x >= -8.
		x := (b.Vcrit - vEff) / w
		if x < -8 {
			continue
		}
		if !(x <= phiMaxX) {
			return 0, false
		}
		// A second live cell in one codeword makes pu nonzero, and
		// then a fatal draw follows the corrected one.
		m := uint8(1) << b.Word()
		if words&m != 0 {
			return 0, false
		}
		words |= m
		psHi += phiHi[int((x+8)*phiSteps)+1]
	}
	if words == 0 {
		// No live cell: ps and pu are exactly 0, and nothing is drawn.
		return 0, true
	}
	meanHi := perLine * (psHi + productSlack)
	if !(meanHi <= 50) {
		return 0, false
	}
	u := stream.Float64()
	if u <= 1-meanHi-1e-15 {
		return 0, true
	}
	ps, _ := t.lineProbabilities(i, vEff, first, second)
	return stats.ResumePoisson(stream, perLine*ps, u), true
}

// TrueMean returns the expected corrected-event count of the table's
// last Sample or SampleAll: perLine*ps summed over the lines it
// sampled, in the same order and with the same float operations as the
// exact per-line loop. It draws nothing. It is exact only until the
// table's next Sample, SampleAll or EnsureFootprint.
func (t *Table) TrueMean() float64 {
	last := &t.last
	idx := t.allIdx
	if last.footprint {
		idx = t.fpIdx
	}
	var first, second [sram.WordsPerLine]float64
	trueMean := 0.0
	for _, i := range idx {
		if t.vmax[i] < last.cutoff {
			break
		}
		if last.vEff > t.vsafe[i] {
			continue
		}
		if ps, _ := t.lineProbabilities(int(i), last.vEff, &first, &second); ps > 0 {
			trueMean += last.perLine * ps
		}
	}
	return trueMean
}

// lineProbabilities is the batch-table replay of
// sram.Array.ErrorProbabilities for line i at effective voltage vEff:
// identical accumulation order over the cells whose flip probability is
// nonzero, with threshold guards skipping only provably-zero cells.
func (t *Table) lineProbabilities(i int, vEff float64, first, second *[sram.WordsPerLine]float64) (ps, pu float64) {
	// The live cells — those the scalar loop's threshold guards would
	// not skip — are a prefix of the line's descending-threshold order.
	// Collect them, then restore profile order (ascending index) so the
	// accumulation below replays the scalar loop's float operations
	// exactly. The prefix is tiny, so insertion sort suffices, and the
	// standard two-profiled-cells-per-word line fits in stack scratch.
	var candBuf [2 * sram.WordsPerLine]uint16
	lo, hi := t.start[i], t.start[i+1]
	cand := candBuf[:0]
	if int(hi-lo) > len(candBuf) {
		cand = t.cand[:0]
	}
	safeV := t.safeV[lo:hi]
	safeOrd := t.safeOrd[lo:hi]
	for k := 0; k < len(safeV); k++ {
		if vEff > safeV[k] {
			break
		}
		cand = append(cand, safeOrd[k])
	}
	for a := 1; a < len(cand); a++ {
		x := cand[a]
		b := a - 1
		for b >= 0 && cand[b] > x {
			cand[b+1] = cand[b]
			b--
		}
		cand[b+1] = x
	}
	// Word occupancy is tracked in bitmasks instead of clearing the
	// first/second arrays between lines: with ~1 live cell per line the
	// arrays are almost entirely untouched, and stale entries are masked
	// out by the occupancy bits. WordsPerLine is 8, so a byte suffices.
	anyClean := 1.0
	var haveFirst, haveSecond uint8
	bits := t.prof[i].Bits
	for _, k := range cand {
		b := &bits[k]
		// variation.FlipProbability, manually inlined (the call sits on
		// the hot path's dominant loop and is too branchy for the
		// compiler to inline): bit-for-bit the same arithmetic.
		var pf float64
		if w := b.Width; w <= 0 {
			if vEff < b.Vcrit {
				pf = 1
			}
		} else {
			x := (b.Vcrit - vEff) / w
			switch {
			case x > 8:
				pf = 1
			case x < -8:
				pf = 0
			default:
				pf = 0.5 * (1 + math.Erf(x/math.Sqrt2))
			}
		}
		if pf == 0 {
			continue
		}
		anyClean *= 1 - pf
		w := b.Word()
		if haveFirst&(1<<w) == 0 {
			haveFirst |= 1 << w
			first[w] = pf
		} else if haveSecond&(1<<w) == 0 {
			haveSecond |= 1 << w
			second[w] = pf
		}
	}
	pu = 0.0
	if haveSecond != 0 {
		uncClean := 1.0
		for w := 0; w < sram.WordsPerLine; w++ {
			if haveSecond&(1<<w) != 0 {
				uncClean *= 1 - first[w]*second[w]
			}
		}
		pu = 1 - uncClean
	}
	pAny := 1 - anyClean
	return pAny - pu, pu
}
