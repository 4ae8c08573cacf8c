package experiments

// Head-to-head speculation-policy race: every registered policy
// (internal/policy) drives an identical chip specimen through identical
// workloads, and the harness reports where each settles — mean Vdd and
// reduction, energy per unit work, uncorrectable (DUE) events,
// emergency services, fail-safe reversion and core deaths. The race is
// the quantitative companion to the registry: the paper's ladder,
// TS-Cache-style timing speculation, static guardband reduction and the
// no-speculation baseline measured on the same silicon under the same
// load.
//
// The harness builds its cells with engine.NewCell, the constructor
// behind the public Simulator, which imports this package.

import (
	"context"
	"fmt"
	"strings"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/policy"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

// DefaultCompareWorkloads is the workload set a policy race runs when
// none is named: a cache-hostile SPECint benchmark and the SPECjbb
// server load.
var DefaultCompareWorkloads = []string{"mcf", "jbb-8wh"}

// PolicyCompareOptions configures RunPolicyCompare.
type PolicyCompareOptions struct {
	// Seed selects the chip specimen every cell of the race shares.
	Seed uint64
	// Policies names the racers; empty selects every registered policy.
	Policies []string
	// Workloads names the benchmarks; empty selects
	// DefaultCompareWorkloads.
	Workloads []string
	// Fast shortens the converge/measure windows ~10x.
	Fast bool
	// Full selects the full Table I cache geometry.
	Full bool
}

// PolicyRun is one (policy, workload) cell's outcome.
type PolicyRun struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Err captures a cell failure (calibration, mid-run) without
	// aborting the rest of the race.
	Err string `json:"error,omitempty"`

	// AvgVddV is the mean domain setpoint over the measure window.
	AvgVddV float64 `json:"avg_vdd_v"`
	// Reduction is 1 - AvgVddV/nominal.
	Reduction float64 `json:"reduction"`
	// EnergyPerWork is core energy divided by work units completed.
	EnergyPerWork float64 `json:"energy_per_work"`
	// RelEnergy is EnergyPerWork relative to the same workload's
	// baseline cell (the conservative policy when racing, else the
	// first policy raced).
	RelEnergy float64 `json:"rel_energy"`
	// DUE counts uncorrectable ECC events over the measure window,
	// summed across every core's cache hierarchy and the shared L3;
	// DUEPerSecond normalizes by simulated time.
	DUE          uint64  `json:"due"`
	DUEPerSecond float64 `json:"due_per_s"`
	// Emergencies counts serviced emergency interrupts; FailSafe lists
	// domains the controller reverted to nominal after a monitor fault.
	Emergencies int   `json:"emergencies"`
	FailSafe    []int `json:"fail_safe,omitempty"`
	// CoreDied reports that speculation drove a rail below a core's
	// crash margin — a comparative outcome, not a harness error.
	CoreDied bool `json:"core_died,omitempty"`
	// SpecHits/Replays carry the tscache policy's speculation
	// accounting (zero for other policies).
	SpecHits uint64 `json:"spec_hits,omitempty"`
	Replays  uint64 `json:"replays,omitempty"`
}

// PolicyCompareReport is a full race: one PolicyRun per (workload,
// policy) pair, in workload-major order.
type PolicyCompareReport struct {
	Seed         uint64      `json:"seed"`
	MeasureTicks int         `json:"measure_ticks"`
	Policies     []string    `json:"policies"`
	Workloads    []string    `json:"workloads"`
	Runs         []PolicyRun `json:"runs"`
}

// RunPolicyCompare races the named policies across the named workloads
// on one chip specimen. Unknown policy or workload names error up front,
// listing the registered names; per-cell failures land in the cell's
// Err. ctx cancellation stops between cells, returning the partial
// report alongside ctx's error.
func RunPolicyCompare(ctx context.Context, o PolicyCompareOptions) (*PolicyCompareReport, error) {
	pols := o.Policies
	if len(pols) == 0 {
		pols = policy.Names()
	}
	for _, name := range pols {
		if _, ok := policy.Get(name); !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q (registered: %s)",
				name, strings.Join(policy.Names(), ", "))
		}
	}
	wls := o.Workloads
	if len(wls) == 0 {
		wls = DefaultCompareWorkloads
	}
	for _, name := range wls {
		if _, ok := workload.ByName(name); !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q (valid: %s)",
				name, strings.Join(workload.Names(), ", "))
		}
	}

	opts := Options{Seed: o.Seed, Full: o.Full, Fast: o.Fast}
	converge := opts.scale(1800, 250)
	measure := opts.scale(1800, 250)
	rep := &PolicyCompareReport{
		Seed: o.Seed, MeasureTicks: measure,
		Policies: pols, Workloads: wls,
	}
	for _, wl := range wls {
		base := -1.0
		for _, pol := range pols {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			cell := runPolicyCell(o.Seed, o.Full, pol, wl, converge, measure)
			// The workload's first healthy cell anchors relative energy;
			// the conservative baseline anchors it whenever it races.
			if cell.Err == "" && (base < 0 || pol == "conservative") {
				base = cell.EnergyPerWork
			}
			rep.Runs = append(rep.Runs, cell)
		}
		if base > 0 {
			for i := range rep.Runs {
				if r := &rep.Runs[i]; r.Workload == wl && r.Err == "" {
					r.RelEnergy = r.EnergyPerWork / base
				}
			}
		}
	}
	return rep, nil
}

// runPolicyCell measures one policy on one workload: build, calibrate,
// converge, then measure with fresh energy/work/DUE accounting.
func runPolicyCell(seed uint64, full bool, polName, wlName string, converge, measure int) PolicyRun {
	out := PolicyRun{Policy: polName, Workload: wlName}
	pol, err := policy.New(polName)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	wl, _ := workload.ByName(wlName)
	c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(seed, true, full),
		Workloads: []workload.Profile{wl}, Policy: pol, Calibrate: true})
	if err != nil {
		out.Err = fmt.Sprintf("calibrate: %v", err)
		return out
	}
	settle(c, ctl, converge, nil)
	dueBase := sumUncorrectable(c)

	sumV := 0.0
	ran := engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, _ []control.Action) bool {
		for _, d := range c.Domains {
			sumV += d.Rail.Target()
		}
		return true
	})

	out.AvgVddV = sumV / float64(ran*len(c.Domains))
	out.Reduction = 1 - out.AvgVddV/c.P.Point.NominalVdd
	out.DUE = sumUncorrectable(c) - dueBase
	out.DUEPerSecond = float64(out.DUE) / (float64(ran) * c.P.TickSeconds)
	out.Emergencies = ctl.Emergencies()
	out.FailSafe = ctl.FailSafeDomains()
	e, w, err := coreTotals(c)
	out.CoreDied = err != nil
	if w > 0 {
		out.EnergyPerWork = e / w
	}
	if ts, ok := ctl.Policy().(*policy.TSCache); ok {
		st := ts.Stats()
		out.SpecHits, out.Replays = st.SpecHits, st.Replays
	}
	return out
}

// sumUncorrectable totals uncorrectable ECC events across every core's
// cache hierarchy and the shared L3 — the race's DUE count.
func sumUncorrectable(c *chip.Chip) uint64 {
	var n uint64
	kinds := []variation.Kind{variation.KindL1I, variation.KindL1D,
		variation.KindL2I, variation.KindL2D}
	for _, co := range c.Cores {
		for _, k := range kinds {
			n += co.CacheOf(k).Stats().Uncorrectable
		}
	}
	return n + c.L3.Stats().Uncorrectable
}

// Table renders the race as the text table `eccspec compare` prints.
func (r *PolicyCompareReport) Table() *TextTable {
	tbl := NewTextTable("workload", "policy", "avg Vdd", "reduction",
		"rel energy", "DUE", "emerg", "fail-safe", "notes")
	for _, run := range r.Runs {
		if run.Err != "" {
			tbl.AddRow(run.Workload, run.Policy, "-", "-", "-", "-", "-", "-", "ERROR: "+run.Err)
			continue
		}
		notes := ""
		if run.Replays > 0 || run.SpecHits > 0 {
			notes = fmt.Sprintf("replays %d/%d", run.Replays, run.SpecHits+run.Replays)
		}
		if run.CoreDied {
			if notes != "" {
				notes += "; "
			}
			notes += "CORE DIED"
		}
		tbl.AddRow(run.Workload, run.Policy,
			fmt.Sprintf("%.3f V", run.AvgVddV),
			fmt.Sprintf("%.1f%%", 100*run.Reduction),
			fmt.Sprintf("%.3f", run.RelEnergy),
			fmt.Sprintf("%d", run.DUE),
			fmt.Sprintf("%d", run.Emergencies),
			fmt.Sprintf("%d", len(run.FailSafe)),
			notes)
	}
	return tbl
}

func init() {
	register(Experiment{
		ID:    "policies",
		Title: "(extension) Speculation-policy registry raced head to head",
		Paper: "Extension",
		Run:   runPoliciesExperiment,
	})
}

// runPoliciesExperiment is the registered-experiment wrapper: every
// registered policy races on the default workload set.
func runPoliciesExperiment(o Options) (*Result, error) {
	rep, err := RunPolicyCompare(context.Background(), PolicyCompareOptions{
		Seed: o.Seed, Fast: o.Fast, Full: o.Full,
	})
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	best, bestRed := "", -1.0
	for _, run := range rep.Runs {
		if run.Err != "" {
			continue
		}
		key := run.Policy + "_" + run.Workload
		metrics["reduction_"+key] = run.Reduction
		metrics["rel_energy_"+key] = run.RelEnergy
		metrics["due_"+key] = float64(run.DUE)
		if run.Reduction > bestRed && !run.CoreDied {
			best, bestRed = run.Policy, run.Reduction
		}
	}
	return &Result{
		ID:    "policies",
		Title: "Speculation-policy head-to-head",
		Headline: fmt.Sprintf("%d policies x %d workloads; deepest safe reduction: %s at %.1f%%",
			len(rep.Policies), len(rep.Workloads), best, 100*bestRed),
		Table:   rep.Table(),
		Metrics: metrics,
	}, nil
}
