// Package cache implements the simulated cache hierarchy: set-associative
// write-back caches whose stored words are protected by SECDED ECC
// (internal/ecc) and whose bit cells fail per the SRAM fault model
// (internal/sram).
//
// Reads are the only faulting operation. On every line read the SRAM
// model samples which (if any) weak cells flip at the current effective
// voltage; the flips are injected into a transient copy of the stored
// codewords and each word is decoded. A single flipped bit per word is
// corrected and surfaces as a benign correctable-error Event — the
// feedback signal the voltage speculation system consumes. Two flips in
// one word are an uncorrectable error, which the chip treats as fatal.
// Flips are transient (access faults, not retention faults): stored data
// is unaffected, matching the paper's §V-E characterization.
//
// Caches support de-configuring individual lines. Calibration removes the
// designated weak line from normal allocation so it can be dedicated to
// the ECC monitor's continuous self-test.
package cache

import (
	"fmt"

	"eccspec/internal/ecc"
	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/variation"
)

// Config describes one cache's geometry.
type Config struct {
	// Name is the structure label ("L1I", "L2D", ...) used in events.
	Name string
	// Kind selects the variation class of the array's cells.
	Kind variation.Kind
	// Sets and Ways define the geometry; line size is fixed at 64 B.
	Sets int
	Ways int
	// HitLatency is the access time in cycles (Table I).
	HitLatency int
}

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * sram.LineBytes }

// Event records one ECC event observed during a line read.
type Event struct {
	// Cache is the structure name the event occurred in.
	Cache string
	// Core is the owning core id (-1 for shared structures).
	Core int
	// Set, Way locate the line; Word is the 0..7 codeword index.
	Set, Way, Word int
	// Status is Corrected or Uncorrectable (Clean reads produce no
	// event).
	Status ecc.Status
	// BitPos is the corrected codeword bit position, -1 if unknown.
	BitPos int
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s core%d set%d way%d word%d: %s",
		e.Cache, e.Core, e.Set, e.Way, e.Word, e.Status)
}

// Stats accumulates cache activity counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Corrected     uint64
	Uncorrectable uint64
}

// line is one cache line's storage and bookkeeping.
type line struct {
	tag      uint64
	valid    bool
	disabled bool
	lastUse  uint64
	words    [sram.WordsPerLine]ecc.Codeword
}

// Cache is one set-associative, ECC-protected cache backed by a faulty
// SRAM array.
type Cache struct {
	cfg  Config
	core int
	arr  *sram.Array
	// lines is allocated on first access: a large cache that nothing
	// reads (the shared L3 of a chip without uncore speculation) costs
	// no storage, and an untouched line is the zero line either way.
	lines []line
	clock uint64
	stats Stats

	// events is ReadLine's scratch, reused so steady-state monitor
	// probing allocates nothing.
	events []Event
}

// New constructs a cache for the given core (use -1 for shared caches)
// backed by the chip's variation model.
func New(cfg Config, core int, m *variation.Model) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("cache: non-positive geometry")
	}
	arrCore := core
	if core < 0 {
		// Shared structures get a synthetic coordinate outside the
		// core id space so their variation draws are independent.
		arrCore = 0x1000 + int(cfg.Kind)
	}
	return &Cache{
		cfg:  cfg,
		core: core,
		arr:  sram.NewArray(m, arrCore, cfg.Kind, cfg.Sets, cfg.Ways),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Array exposes the underlying SRAM fault model (used by calibration
// ground-truth checks and characterization experiments).
func (c *Cache) Array() *sram.Array { return c.arr }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the activity counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr / sram.LineBytes) % uint64(c.cfg.Sets))
}

// tagOf returns the tag for an address.
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr / sram.LineBytes / uint64(c.cfg.Sets)
}

// lineAt returns the line storage at (set, way).
func (c *Cache) lineAt(set, way int) *line {
	if c.lines == nil {
		c.lines = make([]line, c.cfg.Sets*c.cfg.Ways)
	}
	return &c.lines[set*c.cfg.Ways+way]
}

// Lookup reports whether addr is resident and in which way.
func (c *Cache) Lookup(addr uint64) (way int, hit bool) {
	set := c.SetIndex(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.lineAt(set, w)
		if ln.valid && !ln.disabled && ln.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// patternFor derives the canonical fill pattern for an address: workload
// accesses don't carry real program data, so lines are filled with a
// reproducible address-derived pattern that lets tests verify end-to-end
// data integrity through fills, evictions, faults, and ECC correction.
func patternFor(addr uint64, word int) uint64 {
	return rng.Hash(0xDA7A, addr/sram.LineBytes, uint64(word))
}

// PatternFor exposes the canonical fill pattern (tests and self-checks).
func PatternFor(addr uint64, word int) uint64 { return patternFor(addr, word) }

// Fill ensures addr is resident: if it already is, the line is only
// touched; otherwise a line is allocated with the canonical pattern,
// evicting the least recently used non-disabled way. It returns the way
// used. Fill panics if every way in the set is disabled — the
// calibration protocol de-configures at most one line per cache.
func (c *Cache) Fill(addr uint64) int {
	set := c.SetIndex(addr)
	if way, hit := c.Lookup(addr); hit {
		c.clock++
		c.lineAt(set, way).lastUse = c.clock
		return way
	}
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.lineAt(set, w)
		if ln.disabled {
			continue
		}
		if !ln.valid {
			victim = w
			break
		}
		if ln.lastUse < oldest {
			oldest = ln.lastUse
			victim = w
		}
	}
	if victim < 0 {
		panic("cache: all ways disabled in set")
	}
	ln := c.lineAt(set, victim)
	ln.tag = c.tagOf(addr)
	ln.valid = true
	c.clock++
	ln.lastUse = c.clock
	for w := 0; w < sram.WordsPerLine; w++ {
		ln.words[w] = ecc.Encode(patternFor(addr, w))
	}
	c.stats.Fills++
	return victim
}

// WriteLine stores data words into a physical line (set, way), marking it
// valid with the given tag address. Writes are modelled as always clean:
// the paper's write paths complete correctly at the voltages under study
// (§V-E writes its test patterns at a raised voltage to guarantee this).
func (c *Cache) WriteLine(set, way int, data [sram.WordsPerLine]uint64) {
	ln := c.lineAt(set, way)
	// Encode is pure, and the dominant caller (the ECC monitor) writes
	// the same test pattern into every word of the line, so reuse the
	// previous word's codeword when the data repeats.
	for w := 0; w < sram.WordsPerLine; w++ {
		if w > 0 && data[w] == data[w-1] {
			ln.words[w] = ln.words[w-1]
			continue
		}
		ln.words[w] = ecc.Encode(data[w])
	}
	ln.valid = true
	c.clock++
	ln.lastUse = c.clock
}

// WriteLineEncoded stores a pre-encoded line image with the same
// bookkeeping as WriteLine. The ECC monitor rotates through a handful
// of fixed test patterns every probe cycle; encoding each pattern once
// and replaying the images keeps SECDED encoding off the probe train.
func (c *Cache) WriteLineEncoded(set, way int, words *[sram.WordsPerLine]ecc.Codeword) {
	ln := c.lineAt(set, way)
	ln.words = *words
	ln.valid = true
	c.clock++
	ln.lastUse = c.clock
}

// ReadResult reports the outcome of a physical line read.
type ReadResult struct {
	// Data is the decoded line contents (corrected where possible).
	Data [sram.WordsPerLine]uint64
	// Events lists the ECC events raised by this read. The slice is
	// scratch owned by the cache and is overwritten by its next
	// ReadLine; callers that need events beyond the current read must
	// copy them.
	Events []Event
	// Fatal is true when any word suffered an uncorrectable error.
	Fatal bool
}

// ReadLine performs a physical read of line (set, way) at effective
// voltage v: weak cells may flip transiently, and each codeword is pushed
// through the SECDED decoder. This is the privileged access path used by
// the hardware ECC monitor as well as the internal step of every
// address-based access.
func (c *Cache) ReadLine(set, way int, v float64) ReadResult {
	ln := c.lineAt(set, way)
	c.clock++
	ln.lastUse = c.clock
	var res ReadResult
	flips := c.arr.SampleFlips(set, way, v)
	// Fast path: clean read.
	if len(flips) == 0 {
		for w := 0; w < sram.WordsPerLine; w++ {
			res.Data[w] = ecc.ExtractData(ln.words[w])
		}
		return res
	}
	// Inject the transient flips into per-word copies and decode.
	res.Events = c.events[:0]
	var corrupted [sram.WordsPerLine]ecc.Codeword
	copy(corrupted[:], ln.words[:])
	for _, pos := range flips {
		corrupted[pos/ecc.CodewordBits].FlipBit(pos % ecc.CodewordBits)
	}
	for w := 0; w < sram.WordsPerLine; w++ {
		if corrupted[w] == ln.words[w] {
			res.Data[w] = ecc.ExtractData(ln.words[w])
			continue
		}
		data, st, bit := ecc.Decode(corrupted[w])
		res.Data[w] = data
		ev := Event{Cache: c.cfg.Name, Core: c.core, Set: set, Way: way,
			Word: w, Status: st, BitPos: bit}
		switch st {
		case ecc.Corrected:
			c.stats.Corrected++
			res.Events = append(res.Events, ev)
		case ecc.Uncorrectable:
			c.stats.Uncorrectable++
			res.Events = append(res.Events, ev)
			res.Fatal = true
		}
	}
	c.events = res.Events
	return res
}

// ProbeLine is ReadLine for callers that consume only the ECC outcome
// and not the data — the hardware monitor's continuous self-test. Fault
// sampling, decoding, event generation, and counter updates are
// identical to ReadLine; the decoded words are simply not materialized,
// which keeps the per-tick probe train off the hot path's profile.
func (c *Cache) ProbeLine(set, way int, v float64) ReadResult {
	ln := c.lineAt(set, way)
	c.clock++
	ln.lastUse = c.clock
	var res ReadResult
	flips := c.arr.SampleFlips(set, way, v)
	if len(flips) == 0 {
		return res
	}
	res.Events = c.events[:0]
	var corrupted [sram.WordsPerLine]ecc.Codeword
	copy(corrupted[:], ln.words[:])
	for _, pos := range flips {
		corrupted[pos/ecc.CodewordBits].FlipBit(pos % ecc.CodewordBits)
	}
	for w := 0; w < sram.WordsPerLine; w++ {
		if corrupted[w] == ln.words[w] {
			continue
		}
		_, st, bit := ecc.Decode(corrupted[w])
		ev := Event{Cache: c.cfg.Name, Core: c.core, Set: set, Way: way,
			Word: w, Status: st, BitPos: bit}
		switch st {
		case ecc.Corrected:
			c.stats.Corrected++
			res.Events = append(res.Events, ev)
		case ecc.Uncorrectable:
			c.stats.Uncorrectable++
			res.Events = append(res.Events, ev)
			res.Fatal = true
		}
	}
	c.events = res.Events
	return res
}

// SkipQuietReads stands in for n ReadLine calls on line (set, way) at
// voltage v when the line is provably quiet there (sram.Array.Quiet):
// each such read is clean, raises no event, draws nothing from the
// fault stream and leaves the counters alone, so only the LRU clock and
// the line's last use advance, exactly as the n reads would advance
// them. It reports false, changing nothing, when the line could flip.
func (c *Cache) SkipQuietReads(set, way int, v float64, n int) bool {
	if !c.arr.Quiet(set, way, v) {
		return false
	}
	if n > 0 {
		c.clock += uint64(n)
		c.lineAt(set, way).lastUse = c.clock
	}
	return true
}

// Access performs an address-based read access at voltage v. On a hit the
// resident line is read (with fault sampling); on a miss the caller is
// responsible for filling lower levels first. It returns hit=false
// without touching storage on a miss.
func (c *Cache) Access(addr uint64, v float64) (res ReadResult, hit bool) {
	way, ok := c.Lookup(addr)
	if !ok {
		c.stats.Misses++
		return ReadResult{}, false
	}
	c.stats.Hits++
	return c.ReadLine(c.SetIndex(addr), way, v), true
}

// DisableLine removes a line from allocation (calibration dedicates it to
// the ECC monitor). Its contents remain addressable via ReadLine.
func (c *Cache) DisableLine(set, way int) {
	ln := c.lineAt(set, way)
	ln.disabled = true
	ln.valid = false
}

// EnableLine returns a de-configured line to normal service.
func (c *Cache) EnableLine(set, way int) {
	c.lineAt(set, way).disabled = false
}

// LineDisabled reports whether a line is de-configured.
func (c *Cache) LineDisabled(set, way int) bool {
	return c.lineAt(set, way).disabled
}

// DisabledLines returns the number of de-configured lines.
func (c *Cache) DisabledLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].disabled {
			n++
		}
	}
	return n
}

// InvalidateAll drops all cached lines (but preserves disabled marks).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}
