package chip

// Checkpoint support: State captures every mutable quantity the tick
// loop consumes or accumulates, so a chip restored onto a freshly
// constructed specimen of the same seed continues bit-exactly. Derived
// quantities (weak-cell maps, rail resonances, logic floors, sensitive-
// line caches) are pure functions of the seed and are reconstructed by
// New, not serialized.
//
// Cache line *contents* are deliberately not part of the state: reads
// are the only faulting operation, every consumer of line data writes
// its pattern before reading (monitor probes, calibration sweeps), and
// event classification depends only on which stored bits flip — so the
// stored words cannot influence anything after a restore.

import (
	"fmt"
	"math"

	"eccspec/internal/mca"
	"eccspec/internal/sram"
)

// RailState is one supply line's mutable state (the resonance frequency
// is seed-derived and reconstructed).
type RailState struct {
	TargetV float64 `json:"target_v"`
}

// ArrayState is one SRAM structure's mutable state. Stream is the fault-
// sampling generator position; AgeHours rebuilds the aged weak-cell
// profiles; TempC feeds the temperature shift of the fault model.
type ArrayState struct {
	Stream   uint64  `json:"stream"`
	AgeHours float64 `json:"age_hours,omitempty"`
	TempC    float64 `json:"temp_c"`
}

// CoreState is one core's mutable state.
type CoreState struct {
	Alive    bool    `json:"alive"`
	Fatal    string  `json:"fatal,omitempty"`
	TempC    float64 `json:"temp_c"`
	EnergyJ  float64 `json:"energy_j"`
	MeterS   float64 `json:"meter_s"`
	Work     float64 `json:"work"`
	Overhead float64 `json:"overhead,omitempty"`
	LastEff  float64 `json:"last_eff"`
	LastAct  float64 `json:"last_act"`

	// Workload position: accumulated runtime and noise-stream state.
	// WorkloadElapsed and WorkloadNoise are meaningful only when a
	// workload is assigned (HasWorkload).
	HasWorkload     bool    `json:"has_workload,omitempty"`
	WorkloadElapsed float64 `json:"workload_elapsed,omitempty"`
	WorkloadNoise   uint64  `json:"workload_noise,omitempty"`

	L2D     ArrayState `json:"l2d"`
	L2I     ArrayState `json:"l2i"`
	L1D     ArrayState `json:"l1d"`
	L1I     ArrayState `json:"l1i"`
	RegFile ArrayState `json:"reg_file"`
}

// DomainState is one voltage domain's mutable state.
type DomainState struct {
	Rail    RailState `json:"rail"`
	LastEff float64   `json:"last_eff"`
}

// State is the chip's full mutable state.
type State struct {
	TimeS float64 `json:"time_s"`
	// Ticks is the integer control-tick counter. TimeS is kept
	// alongside it (not derived) because the accumulated float time
	// differs from Ticks*TickSeconds in the last ulp; see Chip.Time.
	Ticks  int    `json:"ticks,omitempty"`
	Stream uint64 `json:"stream"`

	Cores   []CoreState   `json:"cores"`
	Domains []DomainState `json:"domains"`

	UncoreRail  RailState  `json:"uncore_rail"`
	UncoreDead  bool       `json:"uncore_dead,omitempty"`
	UncoreEff   float64    `json:"uncore_eff"`
	LastUncoreW float64    `json:"last_uncore_w"`
	UncoreJ     float64    `json:"uncore_j"`
	UncoreS     float64    `json:"uncore_s"`
	L3          ArrayState `json:"l3"`

	MCA mca.LogState `json:"mca"`

	// Adaptive-fidelity state; all zero for full-fidelity runs, so
	// pre-fidelity blobs — and full-fidelity blobs from this version —
	// keep their exact shape.
	FastForward bool  `json:"fast_forward,omitempty"`
	FFTicks     int64 `json:"fast_forward_ticks,omitempty"`
	Dropbacks   int64 `json:"fidelity_dropbacks,omitempty"`
}

// CaptureState snapshots the chip's mutable state.
func (c *Chip) CaptureState() State {
	st := State{
		TimeS:       c.time,
		Ticks:       c.ticks,
		Stream:      c.stream.State(),
		UncoreRail:  RailState{TargetV: c.UncoreRail.Target()},
		UncoreDead:  c.uncoreDead,
		UncoreEff:   c.uncoreEff,
		LastUncoreW: c.lastUncoreW,
		L3:          captureArray(c.L3.Array()),
		MCA:         c.MCA.CaptureState(),
		FastForward: c.fastForward,
		FFTicks:     c.ffTicks,
		Dropbacks:   c.dropbacks,
	}
	st.UncoreJ, st.UncoreS = c.uncoreMeter.State()
	for _, co := range c.Cores {
		cs := CoreState{
			Alive:    co.alive,
			Fatal:    co.fatal,
			TempC:    co.tempC,
			Work:     co.work,
			Overhead: co.overhead,
			LastEff:  co.lastEff,
			LastAct:  co.lastAct,
			L2D:      captureArray(co.Hier.L2D.Array()),
			L2I:      captureArray(co.Hier.L2I.Array()),
			L1D:      captureArray(co.Hier.L1D.Array()),
			L1I:      captureArray(co.Hier.L1I.Array()),
			RegFile:  captureArray(co.RegFile),
		}
		cs.EnergyJ, cs.MeterS = co.meter.State()
		if co.wl != nil {
			cs.HasWorkload = true
			cs.WorkloadElapsed, cs.WorkloadNoise = co.wl.SnapshotState()
		}
		st.Cores = append(st.Cores, cs)
	}
	for _, d := range c.Domains {
		st.Domains = append(st.Domains, DomainState{
			Rail:    RailState{TargetV: d.Rail.Target()},
			LastEff: d.lastEff,
		})
	}
	return st
}

// RestoreState overwrites the chip's mutable state with a captured one.
// The chip must have been constructed with the same Params (same seed,
// geometry, and operating point) that produced the state; a geometry
// mismatch is reported as an error.
func (c *Chip) RestoreState(st State) error {
	if len(st.Cores) != len(c.Cores) {
		return fmt.Errorf("chip: state has %d cores, chip has %d", len(st.Cores), len(c.Cores))
	}
	if len(st.Domains) != len(c.Domains) {
		return fmt.Errorf("chip: state has %d domains, chip has %d", len(st.Domains), len(c.Domains))
	}
	c.time = st.TimeS
	c.ticks = st.Ticks
	if st.Ticks == 0 && st.TimeS > 0 {
		// Legacy state from before the integer counter: reconstruct it
		// from the accumulated time (exact for any realistic run
		// length; the accumulated error stays far below half a tick).
		c.ticks = int(math.Round(st.TimeS / c.P.TickSeconds))
	}
	c.stream.SetState(st.Stream)
	c.UncoreRail.SetTarget(st.UncoreRail.TargetV)
	c.uncoreDead = st.UncoreDead
	c.uncoreEff = st.UncoreEff
	c.lastUncoreW = st.LastUncoreW
	c.uncoreMeter.SetState(st.UncoreJ, st.UncoreS)
	restoreArray(c.L3.Array(), st.L3)
	c.MCA.RestoreState(st.MCA)
	for i, co := range c.Cores {
		cs := st.Cores[i]
		co.alive = cs.Alive
		co.fatal = cs.Fatal
		co.tempC = cs.TempC
		co.meter.SetState(cs.EnergyJ, cs.MeterS)
		co.work = cs.Work
		co.overhead = cs.Overhead
		co.lastEff = cs.LastEff
		co.lastAct = cs.LastAct
		if cs.HasWorkload {
			if co.wl == nil {
				return fmt.Errorf("chip: state core %d has a workload, chip core does not", i)
			}
			co.wl.RestoreState(cs.WorkloadElapsed, cs.WorkloadNoise)
		}
		aged := restoreArray(co.Hier.L2D.Array(), cs.L2D)
		aged = restoreArray(co.Hier.L2I.Array(), cs.L2I) || aged
		aged = restoreArray(co.Hier.L1D.Array(), cs.L1D) || aged
		aged = restoreArray(co.Hier.L1I.Array(), cs.L1I) || aged
		aged = restoreArray(co.RegFile, cs.RegFile) || aged
		// Re-aged profiles invalidate the cached sensitive-line lists;
		// at an unchanged age they, and the tables built on them, hold.
		if aged {
			co.InvalidateSensitivity()
		}
	}
	for i, d := range c.Domains {
		d.Rail.SetTarget(st.Domains[i].Rail.TargetV)
		d.lastEff = st.Domains[i].LastEff
	}
	// Restored after the rails: SetTarget fires the rail-change hooks,
	// which must not count as drop-backs against the restored state.
	c.fastForward = st.FastForward && c.adaptiveFid
	c.ffTicks = st.FFTicks
	c.dropbacks = st.Dropbacks
	return nil
}

func captureArray(a *sram.Array) ArrayState {
	return ArrayState{Stream: a.StreamState(), AgeHours: a.Age(), TempC: a.Temperature()}
}

// restoreArray overlays an array's state and reports whether its age
// changed.
func restoreArray(a *sram.Array, st ArrayState) (aged bool) {
	aged = a.Age() != st.AgeHours
	a.SetAge(st.AgeHours)
	a.SetTemperature(st.TempC)
	a.SetStreamState(st.Stream)
	return aged
}
