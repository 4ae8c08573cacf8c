package engine

import (
	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/policy"
	"eccspec/internal/workload"
)

// CellSpec describes one closed-loop cell: a chip specimen, the
// workloads its cores run and the speculation policy its control system
// drives.
type CellSpec struct {
	// Params builds the chip specimen; Params.Seed also seeds every
	// core's workload.
	Params chip.Params
	// Workloads are assigned to the cores round-robin: core i runs
	// Workloads[i%len(Workloads)]. It must not be empty.
	Workloads []workload.Profile
	// Policy decides each completed decision window; nil keeps the
	// paper's floor/ceiling ladder.
	Policy policy.Policy
	// Calibrate runs the boot-time calibration (control.System.Calibrate)
	// before NewCell returns.
	Calibrate bool
}

// NewCell builds the paper's boot-time sequence (§III-C) once for every
// caller: the chip, its workloads, its characterization (charged to the
// build, so neither calibration nor the first Step pays for it) and a
// control system with hardware ECC monitors and the default control
// configuration, calibrated when the spec asks. The only error is a
// failed calibration, returned with the cell built so far.
func NewCell(s CellSpec) (*chip.Chip, *control.System, error) {
	c := chip.New(s.Params)
	for i, co := range c.Cores {
		co.SetWorkload(s.Workloads[i%len(s.Workloads)], s.Params.Seed)
	}
	c.Characterize()
	ctl := control.New(c, control.DefaultConfig(), s.Policy)
	if s.Calibrate {
		if _, err := ctl.Calibrate(); err != nil {
			return c, ctl, err
		}
	}
	return c, ctl, nil
}
