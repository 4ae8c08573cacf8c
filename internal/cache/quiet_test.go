package cache

import (
	"fmt"
	"slices"
	"testing"

	"eccspec/internal/ecc"
	"eccspec/internal/sram"
	"eccspec/internal/variation"
)

// calibSweep is the per-read oracle of CalibrationSweep: write the
// pattern into each enabled line, then read it back reads times,
// stopping at the first line that reports an event.
func calibSweep(c *Cache, v float64, reads int) (set, way int, found bool) {
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
// the probe voltage down from nominal past the first errors, once with
// CalibrationSweep and once with every read performed, and requires
// identical caches and fault streams after every step. The caches hold
// filled lines and disabled (monitor) lines, and halfway through both
// arrays are aged, which must rebuild the clean column the sweep skips
// by.
func TestSkipQuietReadsMatchesReadLoop(t *testing.T) {
	cfg := Config{Name: "L2D", Kind: variation.KindL2D, Sets: 64, Ways: 8, HitLatency: 9}
	var img [sram.WordsPerLine]ecc.Codeword
	for i := range img {
		img[i] = ecc.Encode(0x5555555555555555)
	}
	for _, seed := range []uint64{3, 29, 40003} {
		for _, tempC := range []float64{40, 71.5} {
			m := testModel(seed)
			fast, oracle := New(cfg, 2, m), New(cfg, 2, m)
			for _, c := range []*Cache{fast, oracle} {
				c.Array().SetTemperature(tempC)
				for i := uint64(0); i < 40; i++ {
					c.Fill(i * 0x2340)
				}
				c.DisableLine(0, 0)
				c.DisableLine(5, 3)
				c.DisableLine(cfg.Sets-1, cfg.Ways-1)
			}
			arr := fast.Array()
			skipped, finds, aged := 0, 0, false
			for v := 0.800; v >= 0.45 && finds < 6; v -= 0.005 {
				if finds == 3 && !aged {
					before := slices.Clone(arr.CleanColumn())
					arr.SetAge(20000)
					oracle.Array().SetAge(20000)
					after := arr.CleanColumn()
					for i, c := range after {
						if want := arr.LineProfile(i/cfg.Ways, i%cfg.Ways).CleanAbove(); c != want {
							t.Fatalf("seed %d: aged line %d clean at %.6f V, its profile's at %.6f V", seed, i, c, want)
						}
					}
					if slices.Equal(before, after) {
						t.Fatalf("seed %d: aging left the clean column as it was", seed)
					}
					aged = true
				}
				vEff := arr.EffectiveVoltage(v)
				for _, c := range arr.CleanColumn() {
					if vEff > c {
						skipped++
					}
				}
				fs, fw, ff := fast.CalibrationSweep(&img, v, 4)
				oset, oway, ofound := calibSweep(oracle, v, 4)
				if fs != oset || fw != oway || ff != ofound {
					t.Fatalf("seed %d %.1fC at %.3f V: sweep found %d/%d %v, oracle %d/%d %v",
						seed, tempC, v, fs, fw, ff, oset, oway, ofound)
				}
				if ff {
					finds++
				}
				sameCacheState(t, fmt.Sprintf("seed %d %.1fC after the sweep at %.3f V", seed, tempC, v), fast, oracle)
			}
			if skipped == 0 || finds < 6 || !aged {
				t.Fatalf("seed %d: %d quiet lines, %d finds, aged %v; the sweep did not exercise every path",
					seed, skipped, finds, aged)
			}
		}
	}
}
