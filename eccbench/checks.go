package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"eccspec/internal/fleet"
)

// railStepV is the regulator and calibration-sweep step (paper: 5 mV).
const railStepV = 0.005

// onGrid reports whether v lies on the 5 mV grid. Sweep and rail
// voltages are built by repeated float addition, so a tolerance far
// below one step absorbs the rounding.
func onGrid(v float64) bool {
	k := v / railStepV
	return math.Abs(k-math.Round(k)) < 1e-6
}

// checkOnsets holds every domain's calibrated onset to the sweep's
// properties: on the 5 mV grid, below nominal, above the sweep floor.
func checkOnsets(seed uint64, onsets []float64, nominal, floor float64) error {
	if len(onsets) == 0 {
		return fmt.Errorf("chip %d: calibration returned no onsets", seed)
	}
	for d, v := range onsets {
		switch {
		case !onGrid(v):
			return fmt.Errorf("chip %d domain %d: onset %.6f V is off the 5 mV grid", seed, d, v)
		case v >= nominal:
			return fmt.Errorf("chip %d domain %d: onset %.3f V is not below nominal %.3f V", seed, d, v, nominal)
		case v <= floor:
			return fmt.Errorf("chip %d domain %d: onset %.3f V is not above the sweep floor %.3f V", seed, d, v, floor)
		}
	}
	return nil
}

// checkDomainVdd holds a committed domain setpoint to the 5 mV grid
// and to every member core's logic floor.
func checkDomainVdd(domain int, v float64, logicFloors []float64) error {
	if !onGrid(v) {
		return fmt.Errorf("domain %d: Vdd %.6f V is off the 5 mV grid", domain, v)
	}
	for _, f := range logicFloors {
		if v < f {
			return fmt.Errorf("domain %d: Vdd %.3f V is below a member core's logic Vmin %.4f V", domain, v, f)
		}
	}
	return nil
}

// checkSameOutcome requires two reports of one chip to agree bit for
// bit. Trace rows are compared only when both sides carry them.
func checkSameOutcome(got, want chipOutcome) error {
	seed := want.Seed
	if got.Seed != want.Seed {
		return fmt.Errorf("chip %d reported as seed %d", want.Seed, got.Seed)
	}
	if got.Ticks != want.Ticks {
		return fmt.Errorf("chip %d: %d ticks, want %d", seed, got.Ticks, want.Ticks)
	}
	scalars := []struct {
		name      string
		got, want float64
	}{
		{"avg_reduction", got.AvgReduction, want.AvgReduction},
		{"uncore_vdd", got.UncoreVdd, want.UncoreVdd},
		{"avg_power_w", got.AvgPowerW, want.AvgPowerW},
	}
	for _, s := range scalars {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			return fmt.Errorf("chip %d: %s %v, want %v", seed, s.name, s.got, s.want)
		}
	}
	if len(got.DomainVdd) != len(want.DomainVdd) {
		return fmt.Errorf("chip %d: %d domains, want %d", seed, len(got.DomainVdd), len(want.DomainVdd))
	}
	for d := range want.DomainVdd {
		if math.Float64bits(got.DomainVdd[d]) != math.Float64bits(want.DomainVdd[d]) {
			return fmt.Errorf("chip %d: domain %d Vdd %v, want %v", seed, d, got.DomainVdd[d], want.DomainVdd[d])
		}
	}
	if got.TraceRows == nil || want.TraceRows == nil {
		return nil
	}
	if len(got.TraceRows) != len(want.TraceRows) {
		return fmt.Errorf("chip %d: %d trace rows, want %d", seed, len(got.TraceRows), len(want.TraceRows))
	}
	for i := range want.TraceRows {
		g, w := got.TraceRows[i], want.TraceRows[i]
		if len(g) != len(w) {
			return fmt.Errorf("chip %d: trace row %d has %d values, want %d", seed, i, len(g), len(w))
		}
		for c := range w {
			if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
				return fmt.Errorf("chip %d: trace row %d column %d is %v, want %v", seed, i, c, g[c], w[c])
			}
		}
	}
	return nil
}

// parseTraceCSV reads the daemon's /trace body into rows per seed and
// requires exactly want rows per seed (ticks / trace_every) with time
// non-decreasing within each chip.
func parseTraceCSV(body []byte, want map[uint64]int) (map[uint64][][]float64, error) {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	header := "seed,time," + strings.Join(fleet.TraceColumns, ",")
	if len(lines) == 0 || lines[0] != header {
		return nil, fmt.Errorf("trace header %q, want %q", firstLine(body), header)
	}
	rows := make(map[uint64][][]float64)
	for i, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 2+len(fleet.TraceColumns) {
			return nil, fmt.Errorf("trace line %d has %d fields", i+2, len(fields))
		}
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad seed %q", i+2, fields[0])
		}
		row := make([]float64, len(fields)-1)
		for c, f := range fields[1:] {
			if row[c], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, fmt.Errorf("trace line %d: bad value %q", i+2, f)
			}
		}
		if prev := rows[seed]; len(prev) > 0 && row[0] < prev[len(prev)-1][0] {
			return nil, fmt.Errorf("trace line %d: chip %d time goes back from %v to %v", i+2, seed, prev[len(prev)-1][0], row[0])
		}
		rows[seed] = append(rows[seed], row)
	}
	for seed, n := range want {
		if len(rows[seed]) != n {
			return nil, fmt.Errorf("trace of chip %d has %d rows, want %d", seed, len(rows[seed]), n)
		}
	}
	if len(rows) != len(want) {
		return nil, fmt.Errorf("trace covers %d chips, want %d", len(rows), len(want))
	}
	return rows, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// checkRevalidate requires a conditional re-GET sent with If-None-Match
// sent to come back 304 Not Modified carrying the same entity tag.
func checkRevalidate(what string, status int, sent, got string) error {
	if status != http.StatusNotModified {
		return fmt.Errorf("%s: conditional GET returned %d, want 304", what, status)
	}
	if sent == "" || got != sent {
		return fmt.Errorf("%s: 304 carries ETag %q, want %q", what, got, sent)
	}
	return nil
}

// checkWithin holds a measured property to the band fixed in the README.
func checkWithin(what string, v, lo, hi float64) error {
	if v < lo || v > hi || math.IsNaN(v) {
		return fmt.Errorf("%s %.4f outside [%.4f, %.4f]", what, v, lo, hi)
	}
	return nil
}
