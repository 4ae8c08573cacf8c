package control

// Checkpoint support: the control system's mutable state is which line
// each rail's speculation is keyed to (the assignment), the active
// monitor's counters, and the last observed error rates. Restoring
// re-activates the monitors directly from the assignments — no
// calibration sweep runs, so a restore is cheap and consumes no
// randomness.

import (
	"encoding/json"
	"fmt"
	"slices"

	"eccspec/internal/monitor"
)

// DomainControlState is one rail's controller state: its calibrated
// assignment, the active monitor's counters, and the telemetry rate.
type DomainControlState struct {
	Assignment Assignment    `json:"assignment"`
	Monitor    monitor.State `json:"monitor"`
	LastRate   float64       `json:"last_rate,omitempty"`
}

// State is the control system's full mutable state. Domains holds one
// entry per *calibrated* domain (uncalibrated and failed-safe domains
// have nothing to restore); Uncore is present when the uncore-speculation
// extension is attached and has not failed safe.
type State struct {
	Domains []DomainControlState `json:"domains,omitempty"`
	Uncore  *DomainControlState  `json:"uncore,omitempty"`
	// PolicyState is the speculation policy's opaque mutable state.
	// Stateless policies (the default paper ladder) capture nil, so
	// default-policy checkpoints keep their historical shape.
	PolicyState json.RawMessage `json:"policy_state,omitempty"`
}

// CaptureState snapshots the control system. It errors when a rail's
// active probing agent is not the hardware ECC monitor (the firmware
// self-test approximation holds scheduling state that a checkpoint does
// not carry).
func (s *System) CaptureState() (State, error) {
	var st State
	for i := range s.rails {
		r := &s.rails[i]
		if r.mon == nil {
			continue
		}
		mon, ok := r.mon.(*monitor.Monitor)
		if !ok {
			return State{}, fmt.Errorf("control: domain %d probing agent %T is not checkpointable", r.id, r.mon)
		}
		ds := DomainControlState{Assignment: r.assign, Monitor: mon.CaptureState(), LastRate: r.lastRate}
		if r.id == UncoreDomainID {
			st.Uncore = &ds
		} else {
			st.Domains = append(st.Domains, ds)
		}
	}
	blob, err := s.pol.CaptureState()
	if err != nil {
		return State{}, fmt.Errorf("control: capture %s policy state: %w", s.pol.Name(), err)
	}
	st.PolicyState = blob
	return st, nil
}

// RestoreState re-establishes a captured control state on a freshly
// provisioned system: each recorded assignment's monitor is activated on
// its line (de-configuring it, as calibration did) and its counters are
// restored. Any currently active monitors are deactivated first.
func (s *System) RestoreState(st State) error {
	for i := range s.rails {
		r := &s.rails[i]
		s.release(r)
		r.lastRate, r.failed = 0, ""
	}
	for _, ds := range st.Domains {
		if id := ds.Assignment.Domain; id < 0 || id >= len(s.Chip.Domains) {
			return fmt.Errorf("control: state assignment for unknown domain %d", id)
		}
		if err := s.restoreRail(s.rail(ds.Assignment.Domain), ds); err != nil {
			return err
		}
	}
	if st.Uncore != nil {
		if err := s.restoreRail(s.rail(UncoreDomainID), *st.Uncore); err != nil {
			return err
		}
	}
	// Bind-then-restore: activate bound every characterized operating
	// point above, and the overlay re-applies the mutable state (a
	// guardband freeze, tscache accounting) on top of it.
	if err := s.pol.RestoreState(st.PolicyState); err != nil {
		return fmt.Errorf("control: restore %s policy state: %w", s.pol.Name(), err)
	}
	return nil
}

// restoreRail activates one rail's recorded assignment and restores its
// monitor's counters and telemetry rate. The assignment must name the
// rail and one of the caches its calibration sweep covers.
func (s *System) restoreRail(r *rail, ds DomainControlState) error {
	a := ds.Assignment
	if r.mon != nil {
		return fmt.Errorf("control: state holds domain %d twice", r.id)
	}
	if a.Domain != r.id || !slices.Contains(r.lines, monKey{a.Core, a.Kind}) {
		return fmt.Errorf("control: domain %d has no monitor for assignment %s", r.id, a)
	}
	p := s.probers[monKey{a.Core, a.Kind}]
	mon, ok := p.(*monitor.Monitor)
	if !ok {
		return fmt.Errorf("control: probing agent %T for core %d %s is not checkpointable", p, a.Core, a.Kind)
	}
	if cfg := mon.Cache().Config(); a.Set < 0 || a.Set >= cfg.Sets || a.Way < 0 || a.Way >= cfg.Ways {
		return fmt.Errorf("control: assignment %s out of range for %s (%dx%d)", a, cfg.Name, cfg.Sets, cfg.Ways)
	}
	s.activate(r, a)
	mon.RestoreState(ds.Monitor)
	r.lastRate = ds.LastRate
	return nil
}
