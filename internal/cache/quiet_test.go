package cache

import (
	"testing"

	"eccspec/internal/sram"
	"eccspec/internal/variation"
)

// calibSweep is the calibration sweep's inner loop over one cache at
// probe voltage v: write a pattern into each enabled line, then read it
// back reads times, stopping at the first line that reports an event.
// With skipQuiet it lets SkipQuietReads stand in for the reads of
// quiet lines, as the control system's sweep does; without, it is the
// per-read oracle.
func calibSweep(c *Cache, v float64, reads int, skipQuiet bool) (set, way int, found bool) {
	var data [sram.WordsPerLine]uint64
	for i := range data {
		data[i] = 0x5555555555555555
	}
	for set := 0; set < c.cfg.Sets; set++ {
		for way := 0; way < c.cfg.Ways; way++ {
			if c.LineDisabled(set, way) {
				continue
			}
			c.WriteLine(set, way, data)
			if skipQuiet && c.SkipQuietReads(set, way, v, reads) {
				continue
			}
			for r := 0; r < reads; r++ {
				if len(c.ReadLine(set, way, v).Events) > 0 {
					return set, way, true
				}
			}
		}
	}
	return 0, 0, false
}

// sameCacheState reports the first difference between two caches'
// stored words, tags, flags, LRU state, counters and fault-stream
// position.
func sameCacheState(t *testing.T, step string, got, want *Cache) {
	t.Helper()
	if got.clock != want.clock {
		t.Fatalf("%s: clock %d, oracle %d", step, got.clock, want.clock)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, oracle %+v", step, got.stats, want.stats)
	}
	if got.arr.StreamState() != want.arr.StreamState() {
		t.Fatalf("%s: fault stream at %x, oracle at %x", step, got.arr.StreamState(), want.arr.StreamState())
	}
	if len(got.lines) != len(want.lines) {
		t.Fatalf("%s: %d lines allocated, oracle %d", step, len(got.lines), len(want.lines))
	}
	for i := range got.lines {
		if got.lines[i] != want.lines[i] {
			t.Fatalf("%s: line %d is %+v, oracle %+v", step, i, got.lines[i], want.lines[i])
		}
	}
}

// TestSkipQuietReadsMatchesReadLoop sweeps the same L2 twice, stepping
// the probe voltage down from nominal past the first error, once with
// quiet lines skipped and once with every read performed, and requires
// identical caches and fault streams after every step.
func TestSkipQuietReadsMatchesReadLoop(t *testing.T) {
	cfg := Config{Name: "L2D", Kind: variation.KindL2D, Sets: 64, Ways: 8, HitLatency: 9}
	for _, seed := range []uint64{3, 29, 40003} {
		for _, tempC := range []float64{40, 71.5} {
			m := testModel(seed)
			fast, oracle := New(cfg, 2, m), New(cfg, 2, m)
			for _, c := range []*Cache{fast, oracle} {
				c.Array().SetTemperature(tempC)
				c.DisableLine(5, 3)
			}
			skipped, finds := 0, 0
			for v := 0.800; v >= 0.45 && finds < 6; v -= 0.005 {
				for set := 0; set < cfg.Sets; set++ {
					for way := 0; way < cfg.Ways; way++ {
						if fast.Array().Quiet(set, way, v) {
							skipped++
						}
					}
				}
				fs, fw, ff := calibSweep(fast, v, 4, true)
				oset, oway, ofound := calibSweep(oracle, v, 4, false)
				if fs != oset || fw != oway || ff != ofound {
					t.Fatalf("seed %d %.1fC at %.3f V: sweep found %d/%d %v, oracle %d/%d %v",
						seed, tempC, v, fs, fw, ff, oset, oway, ofound)
				}
				if ff {
					finds++
				}
				sameCacheState(t, "after sweep", fast, oracle)
			}
			if skipped == 0 || finds == 0 {
				t.Fatalf("seed %d: %d quiet lines and %d finds; the sweep exercised only one path", seed, skipped, finds)
			}
		}
	}
}
