// Package kernel holds the struct-of-arrays batch kernels behind the
// chip's per-tick hot path.
//
// The scalar tick loop walked every sensitive line of every array each
// tick and paid an erf evaluation per profiled cell, even though at
// operating voltages all but a handful of lines have flip probabilities
// that are zero to double precision. A Table flattens one array's
// sensitive-line profiles into sorted columns (line onset voltages,
// per-line and per-bit conservative "certainly clean" thresholds), so
// a whole array's tick can be sampled with one comparison per line and
// exact probability math only for the few lines that can actually flip.
//
// Two kernels operate on a Table:
//
//   - Sample is the exact kernel: it reproduces the scalar loop's
//     floating-point operations and stream draws bit for bit, so
//     full-fidelity simulation stays byte-identical to the pre-kernel
//     implementation.
//   - Rates is the aggregate kernel for adaptive-fidelity fast-forward:
//     it sums the per-line event probabilities at a quantized
//     (voltage, temperature) point and memoizes the sums, so a stable
//     domain advances with one Poisson draw per (core, bank) instead
//     of a per-line walk. The quantized operating point is part of the
//     memo key, which is also the invalidation rule: any rail-target,
//     droop, or temperature change that moves the quantized point
//     recomputes, and recomputation always evaluates at the quantized
//     point itself so a cold cache (e.g. after checkpoint restore)
//     returns the same values a warm one would.
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

// rateEntry is one memoized aggregate evaluation; see Rates.
type rateEntry struct {
	ok     bool
	fp     bool
	wl     *workload.Workload
	vq, tq float64
	ps, pu float64
	repSet int32
	repWay int32
}

// rateEntries sizes the aggregate memo: enough buckets to cover the
// tick-to-tick droop jitter around a setpoint at both of the adjacent
// quantized temperatures without thrashing.
const rateEntries = 32

// Table is the struct-of-arrays view of one array's sensitive lines.
// It is built once per (array, age epoch) and shared by both kernels.
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

	// exercised caches the workload footprint mask; wl identifies the
	// workload instance it was built for. fpIdx is the mask compacted
	// into line indices (vmax order preserved) so the sampling loop
	// never visits unexercised lines; allIdx is the identity order used
	// when the mask is off.
	wl        *workload.Workload
	exercised []bool
	fpIdx     []int32
	allIdx    []int32

	counts []LineCount // Sample scratch

	rates     [rateEntries]rateEntry
	rateClock int
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
	if cap(t.exercised) < len(t.set) {
		t.exercised = make([]bool, len(t.set))
	}
	t.exercised = t.exercised[:len(t.set)]
	t.fpIdx = t.fpIdx[:0]
	for i := range t.exercised {
		t.exercised[i] = wl.Exercises(t.kind, int(t.set[i]), int(t.way[i]))
		if t.exercised[i] {
			t.fpIdx = append(t.fpIdx, int32(i))
		}
	}
	// The footprint is part of the aggregate's identity.
	for i := range t.rates {
		t.rates[i].ok = false
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
// The floating-point operations and stream draws are bit-for-bit those
// of the scalar loop it replaces (sram.Array.ErrorProbabilities plus
// per-line Poisson draws): the per-line and per-bit threshold guards
// only skip cells whose exact flip probability is zero, which
// contribute nothing to either probability and consume no draws.
func (t *Table) Sample(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, trueMean float64, fatal bool, counts []LineCount) {
	return t.sample(stream, v, cutoff, perLine, fatalPerLine, true)
}

// SampleAll is Sample without the workload-footprint mask (register
// file: exercised continuously and completely).
func (t *Table) SampleAll(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64) (corrected int, trueMean float64, fatal bool, counts []LineCount) {
	return t.sample(stream, v, cutoff, perLine, fatalPerLine, false)
}

func (t *Table) sample(stream *rng.Stream, v, cutoff, perLine, fatalPerLine float64, footprint bool) (corrected int, trueMean float64, fatal bool, counts []LineCount) {
	t.counts = t.counts[:0]
	vEff := v - t.arr.Model.TempShift(t.arr.Temperature())
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
		ps, pu := t.lineProbabilities(int(i), vEff, &first, &second)
		if ps > 0 {
			n := stats.SamplePoissonFast(stream, perLine*ps)
			corrected += n
			trueMean += perLine * ps
			if n > 0 {
				t.counts = append(t.counts, LineCount{Set: int(t.set[i]), Way: int(t.way[i]), N: n})
			}
		}
		if pu > 0 && stats.SamplePoissonFast(stream, fatalPerLine*pu) > 0 {
			fatal = true
		}
	}
	return corrected, trueMean, fatal, t.counts
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

// quantize rounds the operating point onto the aggregate-memo grid:
// half-millivolt voltage buckets and tenth-degree temperature buckets.
func quantize(v, tempC float64) (vq, tq float64) {
	return float64(int64(v*2000+0.5)) / 2000, float64(int64(tempC*10+0.5)) / 10
}

// Rates returns the table's summed per-access correctable and
// uncorrectable event probabilities at the quantized operating point
// nearest (v, current temperature), plus a representative line (the
// live line with the highest onset voltage) for event attribution.
// footprint selects whether the workload mask applies.
//
// Used by adaptive-fidelity fast-forward: corrected events for a whole
// (core, bank) follow Poisson(perLine * ps). Evaluations are memoized
// per (quantized voltage, quantized temperature, footprint identity);
// the quantized key doubles as the invalidation rule for rail and
// temperature changes, and because the sums are computed at the
// quantized point itself, a cold cache reproduces a warm one's values
// exactly.
func (t *Table) Rates(v float64, footprint bool) (ps, pu float64, repSet, repWay int) {
	vq, tq := quantize(v, t.arr.Temperature())
	wl := t.wl
	if !footprint {
		wl = nil
	}
	for i := range t.rates {
		e := &t.rates[i]
		if e.ok && e.fp == footprint && e.wl == wl && e.vq == vq && e.tq == tq {
			return e.ps, e.pu, int(e.repSet), int(e.repWay)
		}
	}
	var first, second [sram.WordsPerLine]float64
	vEff := vq - t.arr.Model.TempShift(tq)
	repSet, repWay = -1, -1
	for i := range t.vmax {
		if footprint && !t.exercised[i] {
			continue
		}
		if vEff > t.vsafe[i] {
			continue
		}
		lps, lpu := t.lineProbabilities(i, vEff, &first, &second)
		if lps > 0 || lpu > 0 {
			if repSet < 0 {
				repSet, repWay = int(t.set[i]), int(t.way[i])
			}
			ps += lps
			pu += lpu
		}
	}
	e := &t.rates[t.rateClock%rateEntries]
	t.rateClock++
	*e = rateEntry{ok: true, fp: footprint, wl: wl, vq: vq, tq: tq,
		ps: ps, pu: pu, repSet: int32(repSet), repWay: int32(repWay)}
	return ps, pu, repSet, repWay
}
