// Package snapshot provides versioned, deterministic serialization of
// full simulator state — checkpoint and restore for the eccspec
// Simulator.
//
// The simulator is deterministic: every derived quantity (weak-cell
// maps, rail resonances, logic floors) is a pure function of the chip
// seed, and every stochastic draw comes from an explicitly positioned
// generator. A snapshot therefore only records the *construction
// options* plus the *mutable* state of each layer: tick counter,
// per-domain rail setpoints, PDN effective-voltage latches, monitor
// access/error counters and active weak-line targets, controller
// per-domain assignments, workload positions, RNG stream positions,
// trace buffers, and the aggregate power/energy integrals. Restore
// rebuilds and characterizes the specimen from the options (no
// calibration sweep runs) and overlays the mutable state, after which
// continuing the run is byte-identical to never having stopped.
//
// Blobs carry a format-version header and a CRC32 integrity check (see
// blob.go); corrupt or truncated blobs produce clean errors, never
// panics.
package snapshot

import (
	"fmt"
	"math"

	"eccspec"
	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/policy"
	"eccspec/internal/trace"
	"eccspec/internal/workload"
)

// Version is the current snapshot format version. Restore accepts only
// states whose version it knows how to interpret.
const Version = 1

// OptionsState pins the simulator construction parameters; together
// with the seed they determine every derived quantity of the specimen.
type OptionsState struct {
	Seed             uint64 `json:"seed"`
	HighVoltagePoint bool   `json:"high_voltage_point,omitempty"`
	FullGeometry     bool   `json:"full_geometry,omitempty"`
	Workload         string `json:"workload"`
	// Policy names the speculation policy that was driving the control
	// system. Empty (pre-policy blobs and the default) means the paper
	// ladder, so historical snapshots restore unchanged.
	Policy string `json:"policy,omitempty"`
	// Fidelity is decode-only. Blobs of the removed adaptive-fidelity
	// mode carry it, and Restore refuses them; exact-sampling blobs
	// never wrote it.
	Fidelity string `json:"fidelity,omitempty"`
}

// TraceState carries a telemetry recorder's accumulated rows, so a
// resumed traced run reproduces the full series. A state from
// CaptureTrace shares its recorder's storage, so its slices are
// read-only.
type TraceState struct {
	Columns []string `json:"columns"`
	// From is the trace index of the first row held: 0 for a whole
	// trace, the number of rows stored before it for a tail (Tail).
	From  int         `json:"from,omitempty"`
	Times []float64   `json:"times"`
	Rows  [][]float64 `json:"rows"`
}

// CaptureTrace snapshots a recorder (nil recorder gives nil state).
// The state's times and rows alias the recorder's storage instead of
// copying it, so a state kept beside its recorder (the journal's record
// of a finished chip) costs only the row headers. Samples the recorder
// adds later do not show in the state.
func CaptureTrace(r *trace.Recorder) *TraceState {
	if r == nil {
		return nil
	}
	st := &TraceState{Columns: r.Columns()}
	if r.Len() == 0 {
		return st
	}
	st.Times = r.Times()
	st.Rows = make([][]float64, r.Len())
	for i := range st.Rows {
		st.Rows[i] = r.Row(i)
	}
	return st
}

// check reports a trace state whose shape is inconsistent.
func (ts *TraceState) check() error {
	if len(ts.Columns) == 0 {
		return fmt.Errorf("snapshot: trace state has no columns")
	}
	if len(ts.Columns) > maxTraceColumns {
		return fmt.Errorf("snapshot: trace state has %d columns", len(ts.Columns))
	}
	if ts.From < 0 || int64(ts.From)+int64(len(ts.Times)) > math.MaxUint32 {
		return fmt.Errorf("snapshot: trace state holds rows [%d, %d)", ts.From, ts.From+len(ts.Times))
	}
	if len(ts.Times) != len(ts.Rows) {
		return fmt.Errorf("snapshot: trace state has %d times but %d rows", len(ts.Times), len(ts.Rows))
	}
	for i, row := range ts.Rows {
		if len(row) != len(ts.Columns) {
			return fmt.Errorf("snapshot: trace row %d has %d values for %d columns", i, len(row), len(ts.Columns))
		}
	}
	return nil
}

// Tail returns the state's rows from trace index at on, sharing their
// storage. at must lie in [From, From+len(Times)].
func (ts *TraceState) Tail(at int) *TraceState {
	i := at - ts.From
	return &TraceState{Columns: ts.Columns, From: at, Times: ts.Times[i:len(ts.Times):len(ts.Times)], Rows: ts.Rows[i:len(ts.Rows):len(ts.Rows)]}
}

// RestoreTrace rebuilds a recorder from a trace state (nil state gives
// nil recorder). Only a whole trace restores: a tail must first be
// joined onto the rows before it.
func (ts *TraceState) RestoreTrace() (*trace.Recorder, error) {
	if ts == nil {
		return nil, nil
	}
	if err := ts.check(); err != nil {
		return nil, err
	}
	if ts.From != 0 {
		return nil, fmt.Errorf("snapshot: trace state starts at row %d; its first rows are missing", ts.From)
	}
	r := trace.NewRecorder(ts.Columns...)
	r.Grow(len(ts.Times))
	for i, t := range ts.Times {
		r.Add(t, ts.Rows[i]...)
	}
	return r, nil
}

// State is a full simulator snapshot.
type State struct {
	Version int           `json:"version"`
	Options OptionsState  `json:"options"`
	Ticks   int           `json:"ticks"`
	Chip    chip.State    `json:"chip"`
	Control control.State `json:"control"`
	// Trace is optional per-tick telemetry accumulated by the caller
	// (the fleet engine records it alongside the simulator).
	Trace *TraceState `json:"trace,omitempty"`
}

// Capture snapshots a simulator's full mutable state.
func Capture(sim *eccspec.Simulator) (*State, error) {
	ctl, err := sim.Control().CaptureState()
	if err != nil {
		return nil, err
	}
	o := sim.Opts()
	polName := o.Policy
	if polName == policy.Default {
		// Default-policy blobs keep their pre-registry shape.
		polName = ""
	}
	return &State{
		Version: Version,
		Options: OptionsState{
			Seed:             o.Seed,
			HighVoltagePoint: o.HighVoltagePoint,
			FullGeometry:     o.FullGeometry,
			Workload:         o.Workload,
			Policy:           polName,
		},
		Ticks:   sim.Ticks(),
		Chip:    sim.Chip().CaptureState(),
		Control: ctl,
	}, nil
}

// Restore builds a fresh simulator from the snapshot's options and
// overlays the captured mutable state. The returned simulator continues
// byte-identically to the one Capture observed.
func Restore(st *State) (*eccspec.Simulator, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: nil state")
	}
	if st.Version != Version {
		return nil, fmt.Errorf("snapshot: unsupported state version %d (supported: %d)", st.Version, Version)
	}
	if st.Ticks < 0 {
		return nil, fmt.Errorf("snapshot: negative tick count %d", st.Ticks)
	}
	if _, ok := workload.ByName(st.Options.Workload); !ok {
		return nil, fmt.Errorf("snapshot: unknown workload %q", st.Options.Workload)
	}
	if _, ok := policy.Get(policy.Resolve(st.Options.Policy)); !ok {
		return nil, fmt.Errorf("snapshot: unknown policy %q", st.Options.Policy)
	}
	if st.Options.Fidelity != "" {
		return nil, fmt.Errorf("snapshot: blob ran at fidelity %q, a mode that was removed; only exact per-line sampling remains", st.Options.Fidelity)
	}
	sim, err := eccspec.NewSimulator(eccspec.Options{
		Seed:             st.Options.Seed,
		HighVoltagePoint: st.Options.HighVoltagePoint,
		FullGeometry:     st.Options.FullGeometry,
		Workload:         st.Options.Workload,
		Policy:           st.Options.Policy,
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := sim.Chip().RestoreState(st.Chip); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := sim.Control().RestoreState(st.Control); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return sim, nil
}

// CaptureBlob is Capture followed by Marshal.
func CaptureBlob(sim *eccspec.Simulator) ([]byte, error) {
	st, err := Capture(sim)
	if err != nil {
		return nil, err
	}
	return Marshal(st)
}

// RestoreBlob is Unmarshal followed by Restore; it also returns the
// decoded state so callers can inspect the tick counter and trace.
func RestoreBlob(blob []byte) (*eccspec.Simulator, *State, error) {
	st, err := Unmarshal(blob)
	if err != nil {
		return nil, nil, err
	}
	sim, err := Restore(st)
	if err != nil {
		return nil, nil, err
	}
	return sim, st, nil
}
