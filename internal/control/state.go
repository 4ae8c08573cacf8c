package control

// Checkpoint support: the control system's mutable state is which line
// each domain's speculation is keyed to (the assignment), the active
// monitor's counters, and the last observed error rates. Restoring
// re-activates the monitors directly from the assignments — no
// calibration sweep runs, so a restore is cheap and consumes no
// randomness.

import (
	"encoding/json"
	"fmt"
	"sort"

	"eccspec/internal/monitor"
)

// DomainControlState is one domain's controller state: its calibrated
// assignment, the active monitor's counters, and the telemetry rate.
type DomainControlState struct {
	Assignment Assignment    `json:"assignment"`
	Monitor    monitor.State `json:"monitor"`
	LastRate   float64       `json:"last_rate,omitempty"`
}

// State is the control system's full mutable state. Domains holds one
// entry per *calibrated* domain (uncalibrated domains have nothing to
// restore); Uncore is present when the uncore-speculation extension was
// attached.
type State struct {
	Domains []DomainControlState `json:"domains,omitempty"`
	Uncore  *DomainControlState  `json:"uncore,omitempty"`
	// PolicyState is the speculation policy's opaque mutable state.
	// Stateless policies (the default paper ladder) capture nil, so
	// default-policy checkpoints keep their historical shape.
	PolicyState json.RawMessage `json:"policy_state,omitempty"`
}

// CaptureState snapshots the control system. It errors when a domain's
// active probing agent is not the hardware ECC monitor (the firmware
// self-test approximation holds scheduling state that a checkpoint does
// not carry).
func (s *System) CaptureState() (State, error) {
	var st State
	ids := make([]int, 0, len(s.assigns))
	for id := range s.assigns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := s.assigns[id]
		mon, ok := s.active[id].(*monitor.Monitor)
		if !ok {
			return State{}, fmt.Errorf("control: domain %d probing agent %T is not checkpointable", id, s.active[id])
		}
		st.Domains = append(st.Domains, DomainControlState{
			Assignment: a,
			Monitor:    mon.CaptureState(),
			LastRate:   s.lastRate[id],
		})
	}
	if s.uncore != nil {
		mon, ok := s.uncore.mon.(*monitor.Monitor)
		if !ok {
			return State{}, fmt.Errorf("control: uncore probing agent %T is not checkpointable", s.uncore.mon)
		}
		st.Uncore = &DomainControlState{
			Assignment: s.uncore.assign,
			Monitor:    mon.CaptureState(),
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
	for id, mon := range s.active {
		mon.Deactivate()
		delete(s.active, id)
		delete(s.assigns, id)
		delete(s.lastRate, id)
	}
	clear(s.failed)
	clear(s.stalled)
	s.uncore = nil
	for _, ds := range st.Domains {
		a := ds.Assignment
		if a.Domain < 0 || a.Domain >= len(s.Chip.Domains) {
			return fmt.Errorf("control: state assignment for unknown domain %d", a.Domain)
		}
		p := s.probers[monKey{a.Core, a.Kind}]
		if p == nil {
			return fmt.Errorf("control: no provisioned monitor for core %d %s", a.Core, a.Kind)
		}
		mon, ok := p.(*monitor.Monitor)
		if !ok {
			return fmt.Errorf("control: probing agent %T for core %d %s is not checkpointable", p, a.Core, a.Kind)
		}
		if cfg := mon.Cache().Config(); a.Set < 0 || a.Set >= cfg.Sets || a.Way < 0 || a.Way >= cfg.Ways {
			return fmt.Errorf("control: assignment %s out of range for %s (%dx%d)", a, cfg.Name, cfg.Sets, cfg.Ways)
		}
		mon.Activate(a.Set, a.Way)
		mon.RestoreState(ds.Monitor)
		s.active[a.Domain] = mon
		s.assigns[a.Domain] = a
		s.bindPolicyDomain(a.Domain, a, s.Chip.Domains[a.Domain].Rail)
		if ds.LastRate != 0 {
			s.lastRate[a.Domain] = ds.LastRate
		}
	}
	if st.Uncore != nil {
		a := st.Uncore.Assignment
		if cfg := s.Chip.L3.Config(); a.Set < 0 || a.Set >= cfg.Sets || a.Way < 0 || a.Way >= cfg.Ways {
			return fmt.Errorf("control: uncore assignment %s out of range for %s (%dx%d)", a, cfg.Name, cfg.Sets, cfg.Ways)
		}
		mon := monitor.New(s.Chip.L3, monitor.Config{})
		mon.Activate(a.Set, a.Way)
		mon.RestoreState(st.Uncore.Monitor)
		s.uncore = &uncoreState{mon: mon, assign: a}
		s.bindPolicyDomain(UncoreDomainID, a, s.Chip.UncoreRail)
	}
	// Bind-then-restore: BindDomain re-derived every characterized
	// operating point above, and the overlay re-applies the mutable state
	// (a guardband freeze, tscache accounting) on top of it.
	if err := s.pol.RestoreState(st.PolicyState); err != nil {
		return fmt.Errorf("control: restore %s policy state: %w", s.pol.Name(), err)
	}
	return nil
}
