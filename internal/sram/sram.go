// Package sram models the fault behaviour of on-chip SRAM arrays under
// low-voltage operation.
//
// An Array represents one physical structure (e.g. core 3's L2 data
// cache). Each 64-byte cache line is stored as eight SECDED codewords of
// 72 bits, so a line spans 576 bit cells. Each cell has a fixed critical
// voltage from the process-variation model (internal/variation); reading
// the line at an effective voltage near or below a cell's critical
// voltage flips that cell's stored bit with a probability that ramps up
// as the voltage deficit grows.
//
// Faults in this model are access faults — timing failures or read
// disturbs — not retention failures: a line that is merely *holding* data
// at low voltage does not decay, matching the paper's §V-E experiment
// (write high, dwell low, read high, observe zero errors).
//
// Enumerating 576 cells per read would be wasteful: at operating voltages
// all but the weakest few cells have flip probabilities that are zero to
// double precision. Each line therefore carries a profile of its weakest
// cells — the top two per codeword — which exactly captures both
// single-bit (correctable) behaviour, governed by the line's weakest
// cell, and double-bit (uncorrectable) behaviour, governed by the
// strongest *pair* within one codeword.
//
// A profile is computed once per line and age epoch, on first use; the
// chip characterizes the arrays its closed loop samples eagerly, at
// specimen build. The scan ranks cells by their raw variation hash and
// evaluates the inverse normal CDF only for the few cells that can be
// among a word's top two (see scanLineRanked), which reproduces the
// full per-cell scan bit for bit. Aged arrays keep the full scan, since
// per-cell aging drift breaks the hash-to-Vcrit order.
package sram

import (
	"sort"

	"eccspec/internal/ecc"
	"eccspec/internal/rng"
	"eccspec/internal/variation"
)

// LineBytes is the cache line size in bytes.
const LineBytes = 64

// WordsPerLine is the number of SECDED codewords per line.
const WordsPerLine = LineBytes / 8

// BitsPerLine is the number of stored bit cells per line (data + check).
const BitsPerLine = WordsPerLine * ecc.CodewordBits

// weakBitsPerWord is how many of each codeword's weakest cells the line
// profile retains. Two per word is exact for single- and double-bit
// statistics; triple-bit events at operating voltages are negligible
// because the third-weakest cell of a word sits far down the tail.
const weakBitsPerWord = 2

// WeakBit describes one vulnerable cell within a line.
type WeakBit struct {
	// Pos is the bit position within the line, 0..575. Word index is
	// Pos / 72; position within the codeword is Pos % 72.
	Pos int
	// Vcrit is the cell's critical voltage (aging included), in volts.
	Vcrit float64
	// Width is the cell's flip-probability sigmoid width, in volts.
	Width float64
}

// CleanMarginV widens the "certainly clean" threshold of a cell
// (CleanAbove) so float rounding in a one-comparison guard can never
// disagree with the exact (vcrit-v)/width < -8 test inside
// variation.FlipProbability: the guard may only ever skip cells whose
// exact flip probability is zero.
const CleanMarginV = 1e-9

// CleanAbove returns the effective voltage above which the cell's flip
// probability is exactly zero: more than 8 ramp widths, plus
// CleanMarginV, above its critical voltage.
func (b WeakBit) CleanAbove() float64 { return b.Vcrit + 8*b.Width + CleanMarginV }

// Word returns the codeword index (0..7) containing the bit.
func (b WeakBit) Word() int { return b.Pos / ecc.CodewordBits }

// CodewordPos returns the bit's position within its codeword (0..71).
func (b WeakBit) CodewordPos() int { return b.Pos % ecc.CodewordBits }

// Profile is a line's cached weak-cell summary, ordered by descending
// Vcrit (weakest cell first).
type Profile struct {
	Bits []WeakBit
	// clean caches CleanAbove for Array.Quiet, which the calibration
	// sweep asks of every line at every step; set when the array
	// scans the line.
	clean float64
}

// Vmax returns the line's highest critical voltage — the voltage at which
// this line first begins to produce errors. Returns 0 for an empty
// profile.
func (p *Profile) Vmax() float64 {
	if len(p.Bits) == 0 {
		return 0
	}
	return p.Bits[0].Vcrit
}

// CleanAbove returns the highest CleanAbove of the profile's cells: a
// read of the line at any effective voltage above it flips nothing.
// Returns 0 for an empty profile.
func (p *Profile) CleanAbove() float64 {
	clean := 0.0
	for _, b := range p.Bits {
		if c := b.CleanAbove(); c > clean {
			clean = c
		}
	}
	return clean
}

// PairVcrit returns, over all codewords of the line, the best double-flip
// voltage: the maximum over words of the *second*-weakest cell's Vcrit.
// Reads at or below this voltage can plausibly flip two bits in one
// codeword, producing an uncorrectable error. Returns 0 if no word has
// two profiled cells.
func (p *Profile) PairVcrit() float64 {
	second := make(map[int][]float64, WordsPerLine)
	for _, b := range p.Bits {
		second[b.Word()] = append(second[b.Word()], b.Vcrit)
	}
	best := 0.0
	for _, vs := range second {
		if len(vs) >= 2 {
			sort.Sort(sort.Reverse(sort.Float64Slice(vs)))
			if vs[1] > best {
				best = vs[1]
			}
		}
	}
	return best
}

// Array is one SRAM structure: a (sets x ways) grid of cache lines with a
// fixed weak-cell map derived from the chip's variation model.
type Array struct {
	Model *variation.Model
	Core  int
	Kind  variation.Kind
	Sets  int
	Ways  int

	// tempC is the current operating temperature in Celsius. The shift
	// it induces is uniform across cells, so it is applied at sample
	// time rather than baked into profiles.
	tempC float64
	// ageHours is the accumulated operating age; changing it rebuilds
	// profiles lazily because aging is per-cell.
	ageHours float64

	// base is the Vcrit every cell shares: the structure's mean plus
	// its systematic offsets.
	base float64
	// profiles is indexed by lineKey; nil entries are not yet scanned.
	// Allocated on first use, so arrays nobody profiles (most L1s and
	// the L3) cost nothing; dropped by SetAge.
	profiles []*Profile
	// lastKey/lastProf short-circuit the profile lookup for the most
	// recently profiled line — the monitor reads its watched line
	// dozens of times per tick. Cleared by SetAge with the profiles.
	lastKey  int
	lastProf *Profile
	// profSlab/bitSlab are the unused tails of the blocks new profiles
	// are carved from; see newProfile.
	profSlab []Profile
	bitSlab  []WeakBit
	stream   *rng.Stream

	// flips is SampleFlips' scratch, reused so steady-state fault
	// sampling allocates nothing.
	flips []int

	// memo caches the flip probabilities of the most recently sampled
	// line at one operating point; see SampleFlips.
	memo flipMemo
}

// flipMemo holds the per-bit flip probabilities of one line at one
// (voltage, temperature) operating point. The monitor reads its watched
// line dozens of times per tick at a fixed point and calibration reads
// each line several times per step, so the erf evaluations behind the
// probabilities are recomputed only when the line, the voltage, or the
// temperature actually changes. The profile pointer doubles as the age
// invalidation: SetAge drops the cached profiles, so a stale entry can
// never match.
type flipMemo struct {
	profile *Profile
	v       float64
	tempC   float64
	pfs     []float64 // flip probability per active (pf > 0) bit
	pos     []int     // bit position per active bit
}

// NewArray constructs an SRAM array backed by the given variation model.
func NewArray(m *variation.Model, core int, kind variation.Kind, sets, ways int) *Array {
	if sets <= 0 || ways <= 0 {
		panic("sram: non-positive geometry")
	}
	return &Array{
		Model:  m,
		Core:   core,
		Kind:   kind,
		Sets:   sets,
		Ways:   ways,
		tempC:  40,
		base:   m.P.Kinds[kind].Mu + m.Systematic(core, kind),
		stream: rng.NewStream(m.Seed, 0x5a17, uint64(core), uint64(kind)),
	}
}

// Lines returns the total number of lines in the array.
func (a *Array) Lines() int { return a.Sets * a.Ways }

// SetTemperature sets the operating temperature in Celsius.
func (a *Array) SetTemperature(c float64) { a.tempC = c }

// Temperature returns the current operating temperature in Celsius.
func (a *Array) Temperature() float64 { return a.tempC }

// SetAge sets the array's operating age in hours and invalidates cached
// profiles, because aging drift is per-cell.
func (a *Array) SetAge(hours float64) {
	if hours != a.ageHours {
		a.ageHours = hours
		a.profiles = nil
		a.lastProf = nil
	}
}

// Age returns the array's operating age in hours.
func (a *Array) Age() float64 { return a.ageHours }

// StreamState returns the fault-sampling stream's position; capturing it
// lets a restored array reproduce the exact flip sequence an
// uninterrupted run would have seen.
func (a *Array) StreamState() uint64 { return a.stream.State() }

// SetStreamState repositions the fault-sampling stream (checkpoint
// restore).
func (a *Array) SetStreamState(state uint64) { a.stream.SetState(state) }

// lineKey maps (set, way) to the profile cache key.
func (a *Array) lineKey(set, way int) int { return set*a.Ways + way }

// LineProfile returns the weak-cell profile of a line, computing and
// caching it on first use. Each line is scanned once per age epoch.
func (a *Array) LineProfile(set, way int) *Profile {
	a.checkCoords(set, way)
	key := a.lineKey(set, way)
	if a.lastProf != nil && a.lastKey == key {
		return a.lastProf
	}
	if a.profiles == nil {
		a.profiles = make([]*Profile, a.Lines())
	}
	p := a.profiles[key]
	if p == nil {
		if a.ageHours > 0 {
			p = a.scanLine(set, way)
		} else {
			p = a.scanLineRanked(set, way)
		}
		p.clean = p.CleanAbove()
		a.profiles[key] = p
	}
	a.lastKey, a.lastProf = key, p
	return p
}

// Quiet reports whether a read of line (set, way) at voltage v provably
// flips nothing: the effective voltage sits above every profiled cell's
// CleanAbove, so each flip probability is exactly zero and SampleFlips
// would draw nothing from the fault stream.
func (a *Array) Quiet(set, way int, v float64) bool {
	return v-a.Model.TempShift(a.tempC) > a.LineProfile(set, way).clean
}

// wordTop keeps one codeword's weakBitsPerWord highest-Vcrit cells in
// descending order. Among equal Vcrit, the cell offered first ranks
// first, so offering cells in position order makes the result a pure
// function of the word's (Vcrit, position) pairs.
type wordTop struct {
	bits [weakBitsPerWord]WeakBit
	n    int
}

func (t *wordTop) offer(pos int, v float64) {
	if t.n == weakBitsPerWord && v <= t.bits[t.n-1].Vcrit {
		return
	}
	wb := WeakBit{Pos: pos, Vcrit: v}
	for i := 0; i < weakBitsPerWord; i++ {
		if i >= t.n || wb.Vcrit > t.bits[i].Vcrit {
			copy(t.bits[i+1:], t.bits[i:weakBitsPerWord-1])
			t.bits[i] = wb
			if t.n < weakBitsPerWord {
				t.n++
			}
			break
		}
	}
}

// scanLine evaluates every cell of a line, aging included, and keeps
// the top weakBitsPerWord cells of each codeword; sigmoid widths are
// only drawn for the selected cells. It is the scan for aged arrays,
// and the reference scanLineRanked is held to.
func (a *Array) scanLine(set, way int) *Profile {
	bitsOut := make([]WeakBit, 0, WordsPerLine*weakBitsPerWord)
	for w := 0; w < WordsPerLine; w++ {
		var top wordTop
		for cw := 0; cw < ecc.CodewordBits; cw++ {
			pos := w*ecc.CodewordBits + cw
			v := a.base + a.Model.CellRandom(a.Core, a.Kind, set, way, pos)
			if a.ageHours > 0 {
				v += a.Model.AgingShift(a.Core, a.Kind, set, way, pos, a.ageHours)
			}
			top.offer(pos, v)
		}
		bitsOut = append(bitsOut, top.bits[:top.n]...)
	}
	for i := range bitsOut {
		bitsOut[i].Width = a.Model.CellWidth(a.Core, a.Kind, set, way, bitsOut[i].Pos)
	}
	sort.Sort(byVcritDesc(bitsOut))
	return &Profile{Bits: bitsOut}
}

// bitMix tabulates rng.KeyMix of every bit position of a line, so a
// scan extends the line's cached draw prefix with one mix per cell.
var bitMix = func() (t [BitsPerLine]uint64) {
	for i := range t {
		t[i] = rng.KeyMix(uint64(i))
	}
	return t
}()

// candidateWindow is how far below a word's second-highest raw cell
// hash (the hash's top 53 bits, which rng.NormalInv maps to a normal
// deviate) scanLineRanked still evaluates cells. NormalInv is monotone
// in those bits only up to float noise: near its branch boundaries it
// steps back by about 1e-12 over a few hundred adjacent values. Across
// 2^20 values it climbs by at least 2.9e-10 even where it is flattest
// (p = 0.5), so a cell further below cannot reach, or after the sigma
// scaling and base offset are rounded tie, either top-ranked cell's
// Vcrit. TestCandidateWindowCoversNormalInvNoise measures both figures.
const candidateWindow = 1 << 20

// rankedFloor is the lowest second-highest raw hash for which a word
// is ranked, so that the window stays inside the upper half of the
// range, where its bound is measured; lower raw hashes map to negative
// deviates, below all of it. Under the floor every cell of the word is
// evaluated, which with 72 cells per word happens with probability
// about 73 * 2^-72.
const rankedFloor = 1<<52 + candidateWindow

// scanLineRanked computes the same profile as scanLine for an unaged
// line. It draws each cell's raw hash with one rng.Extend of the line's
// cached prefix, ranks each word's cells by it, and evaluates the
// normal deviate (the scan's dominant cost) only for the cells within
// candidateWindow of the word's second-highest hash — two, almost
// always. Offering those in position order reproduces scanLine's
// insertion exactly, since every other cell ranks below both
// top-ranked cells in Vcrit.
func (a *Array) scanLineRanked(set, way int) *Profile {
	d := a.Model.LineDraws(a.Core, a.Kind, set, way)
	// Every word has more than weakBitsPerWord cells, so the profile
	// size is fixed.
	p := a.newProfile(WordsPerLine * weakBitsPerWord)
	bits := p.Bits
	var raw [ecc.CodewordBits]uint64
	for w := 0; w < WordsPerLine; w++ {
		keys := bitMix[w*ecc.CodewordBits : (w+1)*ecc.CodewordBits]
		var r1, r2 uint64 // the two highest raw hashes, r1 >= r2
		for cw, km := range keys {
			r := d.RandomHash(km) >> 11
			raw[cw] = r
			if r > r2 {
				if r > r1 {
					r1, r2 = r, r1
				} else {
					r2 = r
				}
			}
		}
		lo := uint64(0)
		if r2 >= rankedFloor {
			lo = r2 - candidateWindow
		}
		var top wordTop
		for cw, r := range raw {
			if r >= lo {
				top.offer(w*ecc.CodewordBits+cw, a.base+d.Random(r<<11))
			}
		}
		copy(bits[w*weakBitsPerWord:], top.bits[:])
	}
	for i := range bits {
		bits[i].Width = d.Width(bitMix[bits[i].Pos])
	}
	sortByVcritDesc(bits)
	return p
}

// profileSlabLines is how many lines' profiles newProfile carves from
// one block.
const profileSlabLines = 128

// newProfile returns a profile with room for n bits, carved from
// blocks shared with the array's other profiles: characterizing a
// whole array then allocates a few blocks instead of two objects per
// line.
func (a *Array) newProfile(n int) *Profile {
	if len(a.profSlab) == 0 || len(a.bitSlab) < n {
		lines := min(profileSlabLines, a.Lines())
		a.profSlab = make([]Profile, lines)
		a.bitSlab = make([]WeakBit, lines*WordsPerLine*weakBitsPerWord)
	}
	p := &a.profSlab[0]
	a.profSlab = a.profSlab[1:]
	p.Bits = a.bitSlab[:n:n]
	a.bitSlab = a.bitSlab[n:]
	return p
}

// sortByVcritDesc orders a fixed-size profile's bits exactly as
// sort.Sort(byVcritDesc(bits)) does. Without ties in Vcrit every
// correct sort yields that one order, so an insertion sort of a copy
// serves, at a fraction of the cost, for the ~12k profiles a chip
// characterizes; a tie falls back to sort.Sort on the untouched bits.
func sortByVcritDesc(bits []WeakBit) {
	sorted := *(*[WordsPerLine * weakBitsPerWord]WeakBit)(bits)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Vcrit > sorted[j-1].Vcrit; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Vcrit == sorted[i-1].Vcrit {
			sort.Sort(byVcritDesc(bits))
			return
		}
	}
	copy(bits, sorted[:])
}

// byVcritDesc orders weak bits by descending critical voltage.
type byVcritDesc []WeakBit

func (s byVcritDesc) Len() int           { return len(s) }
func (s byVcritDesc) Less(i, j int) bool { return s[i].Vcrit > s[j].Vcrit }
func (s byVcritDesc) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// SampleFlips simulates one read of the line at effective voltage v and
// returns the positions (0..575) of the bits that flip on this access.
// The returned slice is empty when nothing flips — the overwhelmingly
// common case at safe voltages — and is scratch owned by the array,
// overwritten by the next SampleFlips; callers that need the positions
// beyond the current access must copy them.
func (a *Array) SampleFlips(set, way int, v float64) []int {
	p := a.LineProfile(set, way)
	m := &a.memo
	if m.profile != p || m.v != v || m.tempC != a.tempC {
		// Rebuild the active-bit table for this (line, operating point).
		// Cells with pf == 0 consume no stream draws in the sampling
		// loop below, so caching only the active cells replays the
		// exact draw sequence an unmemoized scan would produce.
		m.profile, m.v, m.tempC = p, v, a.tempC
		m.pfs, m.pos = m.pfs[:0], m.pos[:0]
		vEff := v - a.Model.TempShift(a.tempC)
		for _, b := range p.Bits {
			pf := variation.FlipProbability(b.Vcrit, b.Width, vEff)
			if pf <= 0 {
				// Profile is sorted by descending Vcrit: once a cell
				// is certainly safe, every later cell is safer still
				// only if widths were equal; widths differ, so keep
				// scanning while the deficit could matter. A cheap
				// cutoff: cells more than 10 standard widths above v
				// cannot flip.
				if b.Vcrit < vEff-10*a.Model.P.WidthMax {
					break
				}
				continue
			}
			m.pfs = append(m.pfs, pf)
			m.pos = append(m.pos, b.Pos)
		}
	}
	flips := a.flips[:0]
	for i, pf := range m.pfs {
		if a.stream.Bernoulli(pf) {
			flips = append(flips, m.pos[i])
		}
	}
	a.flips = flips
	return flips
}

// FlipProbability returns the probability that a specific profiled line
// produces at least one flipped bit on a single read at voltage v. Used
// for analytic characterization (Fig. 13-style curves) without sampling.
func (a *Array) FlipProbability(set, way int, v float64) float64 {
	p := a.LineProfile(set, way)
	vEff := v - a.Model.TempShift(a.tempC)
	clean := 1.0
	for _, b := range p.Bits {
		clean *= 1 - variation.FlipProbability(b.Vcrit, b.Width, vEff)
	}
	return 1 - clean
}

// WeakestLine scans the whole array and returns the coordinates and
// profile of the line with the highest Vmax — the line that will report
// correctable errors at the highest supply voltage. This is what the
// calibration cache sweep discovers empirically; tests use it as ground
// truth.
func (a *Array) WeakestLine() (set, way int, p *Profile) {
	best := -1.0
	for s := 0; s < a.Sets; s++ {
		for w := 0; w < a.Ways; w++ {
			lp := a.LineProfile(s, w)
			if lp.Vmax() > best {
				best = lp.Vmax()
				set, way, p = s, w, lp
			}
		}
	}
	return set, way, p
}

// checkCoords panics on out-of-range line coordinates.
func (a *Array) checkCoords(set, way int) {
	if set < 0 || set >= a.Sets || way < 0 || way >= a.Ways {
		panic("sram: line coordinates out of range")
	}
}
