// Package experiments contains one runnable reproduction per table and
// figure in the paper's evaluation, plus the auxiliary characterization
// experiments from §III and §V.
//
// Experiments build their chips and control systems through
// engine.NewCell, the paper's boot-time sequence written once; only a
// variant no other caller needs (the firmware self-test agents, the
// ablations' control configurations, the blade's chips) is assembled at
// its own site. Each experiment runs its protocol on the cells it builds
// from a seed and returns a Result holding a rendered text table,
// optional time series, a one-line headline, and a map of named metrics
// that tests and EXPERIMENTS.md assert against. Experiments are registered in
// All() and addressable by id (e.g. "fig10") from the eccspec CLI and
// the benchmark harness.
//
// Absolute numbers are not expected to match the paper — the substrate
// is a simulator, not the authors' Itanium server — but the shapes are:
// who wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/trace"
	"eccspec/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Seed selects the simulated chip specimen.
	Seed uint64
	// Full selects the full Table I cache geometry instead of the 1/8
	// scaled default.
	Full bool
	// Fast shortens measurement windows ~10x (benchmarks, smoke tests).
	Fast bool
}

// scale returns d, or d/10 (at least lo) in fast mode.
func (o Options) scale(d, lo int) int {
	if !o.Fast {
		return d
	}
	if d/10 < lo {
		return lo
	}
	return d / 10
}

// Result is an experiment's output.
type Result struct {
	ID       string
	Title    string
	Headline string
	Table    *TextTable
	// Series holds optional time-series traces (voltage/error-rate
	// figures).
	Series []*trace.Recorder
	// Metrics are named scalar outcomes; tests and the experiment index
	// assert on these.
	Metrics map[string]float64
}

// Metric fetches a named metric, panicking if absent (experiment
// contract violation).
func (r *Result) Metric(name string) float64 {
	v, ok := r.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("experiments: %s has no metric %q", r.ID, name))
	}
	return v
}

// Write renders the result to w.
func (r *Result) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n%s\n", r.ID, r.Title, r.Headline); err != nil {
		return err
	}
	if r.Table != nil {
		if err := r.Table.Render(w); err != nil {
			return err
		}
	}
	if len(r.Metrics) > 0 {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if _, err := fmt.Fprintf(w, "metric %-28s %.6g\n", n, r.Metrics[n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	// Paper names the table/figure reproduced ("Figure 10", ...).
	Paper string
	Run   func(Options) (*Result, error)
}

// registry is populated by the per-experiment files' init functions.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder lists experiment ids in the order they appear in the paper;
// unlisted ids sort after these, alphabetically.
var paperOrder = []string{
	"fig1", "fig2", "fig3", "fig4", "tab1", "tab2",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18", "retention", "aging", "temp", "methodology", "compare", "freqscale", "uncorespec", "fanspeed", "validate", "soak", "pareto",
}

func orderOf(id string) int {
	for i, o := range paperOrder {
		if o == id {
			return i
		}
	}
	return len(paperOrder)
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		oi, oj := orderOf(out[i].ID), orderOf(out[j].ID)
		if oi != oj {
			return oi < oj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TextTable renders aligned rows.
type TextTable struct {
	header []string
	rows   [][]string
}

// NewTextTable creates a table with the given column headers.
func NewTextTable(header ...string) *TextTable {
	return &TextTable{header: header}
}

// AddRow appends a row; cells beyond the header width panic.
func (t *TextTable) AddRow(cells ...string) {
	if len(cells) != len(t.header) {
		panic("experiments: row width mismatch")
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted cells.
func (t *TextTable) AddRowf(format []string, args ...interface{}) {
	if len(format) != len(args) {
		panic("experiments: format/arg mismatch")
	}
	cells := make([]string, len(args))
	for i := range args {
		cells[i] = fmt.Sprintf(format[i], args[i])
	}
	t.AddRow(cells...)
}

// NumRows returns the number of data rows.
func (t *TextTable) NumRows() int { return len(t.rows) }

// Render writes the aligned table.
func (t *TextTable) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(sb.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(t.header)))); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// --- shared chip-building helpers --------------------------------------

// newChip builds a bare chip, with no workloads, at the requested
// operating point and geometry.
func newChip(o Options, low bool) *chip.Chip {
	return chip.New(chip.DefaultParams(o.Seed, low, o.Full))
}

// idleCores parks every core of a cell on the firmware idle spin loop.
var idleCores = []workload.Profile{workload.Idle()}

// settle runs a cell's converge window of n ticks (fn, when non-nil,
// sees each), then restarts every core's energy and work accounting so
// the measurement window that follows is counted alone.
func settle(c *chip.Chip, ctl *control.System, n int, fn engine.TickFunc) {
	engine.Ticks(c, ctl, n, fn)
	for _, co := range c.Cores {
		co.ResetAccounting()
	}
}

// coreTotals sums every core's energy and work, in core order, at the
// end of a measurement window. err names the first core that died; the
// sums cover every core either way.
func coreTotals(c *chip.Chip) (energy, work float64, err error) {
	for i, co := range c.Cores {
		if !co.Alive() && err == nil {
			err = fmt.Errorf("core %d died", i)
		}
		energy += co.Energy()
		work += co.Work()
	}
	return energy, work, err
}
