// Command eccspec runs the paper-reproduction experiments.
//
// Usage:
//
//	eccspec list
//	eccspec run <id>... [-seed N] [-full] [-fast] [-csv dir] [-plot] [-json]
//	eccspec run all
//	eccspec run -checkpoint f [-seconds S] [-workload W] [-seed N] [-full] [-uncore]
//	eccspec run -resume f [-seconds S] [-checkpoint f2]
//	eccspec seeds <id> [-n N]    # distribution across chip specimens
//	eccspec report [-fast]       # Markdown summary of every experiment
//	eccspec chaos list           # fault-injection scenario catalog
//	eccspec chaos <scenario>     # replay a scenario deterministically
//	eccspec cluster members [-addr URL]
//	eccspec cluster placement <fleet-id> [-addr URL]
//	eccspec sweep [-seed N] [-full] [-high] [-ticks N]
//	eccspec calibrate [-seed N] [-full] [-high] [-aged hours]
//	eccspec errprofile [-seed N] [-offset mV] [-seconds S] [-top K] [-full]
//	eccspec version
//
// Each experiment id corresponds to one table or figure of the paper
// (fig1..fig18, tab1, tab2) or an auxiliary study (retention, aging,
// temp). See DESIGN.md for the experiment index. sweep, calibrate and
// errprofile characterize one chip specimen the way §II, §III-C and
// §IV-A4 of the paper do.
//
// With -checkpoint and no experiment ids, run performs a direct
// closed-loop simulation (calibrate, then speculate for -seconds) and
// writes a versioned, CRC-protected snapshot of the full simulator
// state to the file. -resume loads such a snapshot and continues for
// -seconds more; a resumed run is byte-identical to one that was never
// interrupted, so the two can be split at any checkpoint boundary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"eccspec"
	"eccspec/internal/experiments"
	"eccspec/internal/plot"
	"eccspec/internal/snapshot"
	"eccspec/internal/version"
)

func main() {
	// A first Ctrl-C stops cleanly between experiments/seeds and prints
	// the partial results; stop() restores the default handler so a
	// second Ctrl-C kills a run that is stuck inside one experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eccspec:", err)
		os.Exit(1)
	}
}

// run keeps the context-free entry point used by tests.
func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	case "run":
		return runCmd(ctx, args[1:])
	case "compare":
		return compareCmd(ctx, args[1:])
	case "seeds":
		return seedsCmd(ctx, args[1:])
	case "report":
		return reportCmd(ctx, args[1:])
	case "chaos":
		return chaosCmd(ctx, args[1:])
	case "cluster":
		return clusterCmd(args[1:])
	case "loadtest":
		return loadtestCmd(ctx, args[1:])
	case "sweep":
		return sweepCmd(args[1:], os.Stdout)
	case "calibrate":
		return calibrateCmd(args[1:], os.Stdout)
	case "errprofile":
		return errprofileCmd(args[1:], os.Stdout)
	case "version", "-version", "--version":
		fmt.Printf("eccspec %s\n", version.String())
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// interrupted reports whether the user asked to stop, and says so once
// on stderr when they did.
func interrupted(ctx context.Context, what string, done, total int) bool {
	if ctx.Err() == nil {
		return false
	}
	fmt.Fprintf(os.Stderr, "eccspec: interrupted after %d/%d %s; partial results follow\n", done, total, what)
	return true
}

// seedsCmd runs one experiment across many chip seeds and reports the
// distribution of every metric — the process-variation view of a result.
// Ctrl-C stops after the current seed and reports the seeds finished so
// far.
func seedsCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("seeds", flag.ContinueOnError)
	n := fs.Int("n", 8, "number of chip seeds to sample")
	full := fs.Bool("full", false, "use the full Table I cache geometry")
	fast := fs.Bool("fast", true, "shorten measurement windows ~10x")
	var ids []string
	rest := args
	for len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if len(ids) != 1 {
		return fmt.Errorf("seeds: exactly one experiment id required")
	}
	e, ok := experiments.ByID(ids[0])
	if !ok {
		return fmt.Errorf("unknown experiment %q", ids[0])
	}
	agg := map[string][]float64{}
	var names []string
	seedsDone := 0
	for seed := 1; seed <= *n; seed++ {
		if interrupted(ctx, "seeds", seedsDone, *n) {
			break
		}
		res, err := e.Run(experiments.Options{Seed: uint64(seed), Full: *full, Fast: *fast})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for name, v := range res.Metrics {
			if _, seen := agg[name]; !seen {
				names = append(names, name)
			}
			agg[name] = append(agg[name], v)
		}
		seedsDone++
		fmt.Fprintf(os.Stderr, "seed %d/%d done\n", seed, *n)
	}
	if seedsDone == 0 {
		return fmt.Errorf("interrupted before any seed finished")
	}
	sort.Strings(names)
	fmt.Printf("%s across %d chip seeds:\n", ids[0], seedsDone)
	fmt.Printf("%-28s %12s %12s %12s\n", "metric", "mean", "min", "max")
	for _, name := range names {
		vs := agg[name]
		mean, lo, hi := vs[0], vs[0], vs[0]
		sum := 0.0
		for _, v := range vs {
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mean = sum / float64(len(vs))
		fmt.Printf("%-28s %12.5g %12.5g %12.5g\n", name, mean, lo, hi)
	}
	return nil
}

// reportCmd runs every experiment and emits a Markdown summary table —
// the raw material for refreshing EXPERIMENTS.md after model changes.
// Ctrl-C stops after the current experiment, leaving a valid partial
// table.
func reportCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	full := fs.Bool("full", false, "use the full Table I cache geometry")
	fast := fs.Bool("fast", false, "shorten measurement windows ~10x")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Full: *full, Fast: *fast}
	fmt.Println("| Id | Paper | Result |")
	fmt.Println("|---|---|---|")
	all := experiments.All()
	for i, e := range all {
		if interrupted(ctx, "experiments", i, len(all)) {
			break
		}
		res, err := e.Run(opts)
		if err != nil {
			fmt.Printf("| %s | %s | ERROR: %v |\n", e.ID, e.Paper, err)
			continue
		}
		fmt.Printf("| %s | %s | %s |\n", e.ID, e.Paper, res.Headline)
	}
	return nil
}

func runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "chip seed (selects the simulated specimen)")
	full := fs.Bool("full", false, "use the full Table I cache geometry (slower)")
	fast := fs.Bool("fast", false, "shorten measurement windows ~10x")
	csvDir := fs.String("csv", "", "directory to write time-series CSVs into")
	doPlot := fs.Bool("plot", false, "render time-series results as ASCII charts")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of text tables")
	checkpoint := fs.String("checkpoint", "", "write a simulator snapshot to this file after a direct run")
	resume := fs.String("resume", "", "continue a direct run from a snapshot file")
	seconds := fs.Float64("seconds", 0.5, "simulated seconds for a direct -checkpoint/-resume run")
	workloadName := fs.String("workload", "", "workload for a direct run (empty = characterization stress test)")
	policyName := fs.String("policy", "", "speculation policy for a direct run (empty = paper; see `eccspec compare` for the registry)")
	uncore := fs.Bool("uncore", false, "extend speculation to the uncore rail in a direct run")

	// Accept ids before flags: `run fig10 -seed 2`.
	var ids []string
	rest := args
	for len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	ids = append(ids, fs.Args()...)
	if *checkpoint != "" || *resume != "" {
		if len(ids) > 0 {
			return fmt.Errorf("run: -checkpoint/-resume run a direct simulation and take no experiment ids (got %s)",
				strings.Join(ids, " "))
		}
		if *resume != "" {
			// The snapshot fixes the specimen; overriding it would
			// silently simulate a different chip.
			var conflict []string
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "seed", "full", "workload", "policy", "uncore":
					conflict = append(conflict, "-"+f.Name)
				}
			})
			if len(conflict) > 0 {
				return fmt.Errorf("run: %s conflict with -resume (the snapshot fixes the specimen)",
					strings.Join(conflict, " "))
			}
		}
		return directRun(ctx, directOptions{
			Resume:     *resume,
			Checkpoint: *checkpoint,
			Seconds:    *seconds,
			Seed:       *seed,
			Full:       *full,
			Workload:   *workloadName,
			Policy:     *policyName,
			Uncore:     *uncore,
		})
	}
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment ids given (try `eccspec list`)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	opts := experiments.Options{Seed: *seed, Full: *full, Fast: *fast}
	for done, id := range ids {
		if interrupted(ctx, "experiments", done, len(ids)) {
			break
		}
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				ID       string             `json:"id"`
				Title    string             `json:"title"`
				Headline string             `json:"headline"`
				Metrics  map[string]float64 `json:"metrics"`
			}{res.ID, res.Title, res.Headline, res.Metrics}); err != nil {
				return err
			}
		} else if err := res.Write(os.Stdout); err != nil {
			return err
		}
		if *doPlot {
			for i, rec := range res.Series {
				for _, col := range rec.Columns() {
					xs := make([]float64, rec.Len())
					for s := 0; s < rec.Len(); s++ {
						xs[s] = rec.Time(s)
					}
					chart := plot.Chart{
						Title:  fmt.Sprintf("%s series %d: %s", id, i, col),
						Width:  72,
						Height: 14,
					}
					err := chart.Render(os.Stdout, plot.Series{
						Name: col, X: xs, Y: rec.Column(col)})
					if err != nil {
						return err
					}
				}
			}
		}
		fmt.Println()
		if *csvDir != "" {
			for i, rec := range res.Series {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_series%d.csv", id, i))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := rec.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	return nil
}

// directOptions configures a direct closed-loop simulation (no
// experiment harness): used by `run -checkpoint` / `run -resume`.
type directOptions struct {
	Resume     string  // snapshot file to continue from ("" = fresh run)
	Checkpoint string  // snapshot file to write afterwards ("" = none)
	Seconds    float64 // simulated seconds to run
	Seed       uint64
	Full       bool
	Workload   string
	Policy     string
	Uncore     bool
}

// directRun simulates one chip under closed-loop speculation, either
// from scratch (calibrating first) or from a snapshot, and optionally
// writes a snapshot at the end. Because the simulator is deterministic,
// a -checkpoint/-resume pair splits a run without changing its result.
func directRun(ctx context.Context, o directOptions) error {
	var sim *eccspec.Simulator
	if o.Resume != "" {
		blob, err := os.ReadFile(o.Resume)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		var st *snapshot.State
		sim, st, err = snapshot.RestoreBlob(blob)
		if err != nil {
			return fmt.Errorf("resume %s: %w", o.Resume, err)
		}
		fmt.Printf("resumed seed %d (%s, policy %s) at tick %d\n",
			sim.Opts().Seed, sim.Opts().Workload, sim.Opts().Policy, st.Ticks)
	} else {
		var err error
		sim, err = eccspec.NewSimulator(eccspec.Options{
			Seed: o.Seed, FullGeometry: o.Full, Workload: o.Workload, Policy: o.Policy,
		})
		if err != nil {
			return err
		}
		if err := sim.Calibrate(); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		if o.Uncore {
			if err := sim.EnableUncoreSpeculation(); err != nil {
				return fmt.Errorf("uncore: %w", err)
			}
		}
	}

	ticks := int(o.Seconds / sim.TickSeconds())
	start := sim.Ticks()
	rep, err := sim.RunEngine(ctx, ticks)
	ran := rep.Tick - start
	if rep.Stopped {
		return fmt.Errorf("core died at tick %d: speculation drove a rail below the crash margin", sim.Ticks())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "eccspec: interrupted after %d/%d ticks; checkpoint still written\n", ran, ticks)
	}

	fmt.Printf("seed %d workload %s policy %s: ran %d ticks (%.4g s simulated, now at tick %d)\n",
		sim.Opts().Seed, sim.Opts().Workload, sim.Opts().Policy, ran, float64(ran)*sim.TickSeconds(), sim.Ticks())
	for d := 0; d < sim.NumDomains(); d++ {
		fmt.Printf("domain %d: %.3f V  (monitor error rate %.2g)\n",
			d, sim.DomainVoltage(d), sim.MonitorErrorRate(d))
	}
	fmt.Printf("average reduction %.1f%%   total power %.2f W\n",
		100*sim.AverageReduction(), sim.TotalPower())

	if o.Checkpoint != "" {
		blob, err := snapshot.CaptureBlob(sim)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := os.WriteFile(o.Checkpoint, blob, 0o644); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Printf("wrote checkpoint %s (%d bytes at tick %d)\n", o.Checkpoint, len(blob), sim.Ticks())
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  eccspec list
  eccspec run <id>... [-seed N] [-full] [-fast] [-csv dir] [-plot] [-json]
  eccspec run all [flags]
  eccspec run -checkpoint f [-seconds S] [-workload W] [-policy P] [-seed N] [-full] [-uncore]
  eccspec run -resume f [-seconds S] [-checkpoint f2]
  eccspec compare [-policies a,b,c] [-workloads w1,w2] [-seed N] [-fast] [-full] [-json]
  eccspec seeds <id> [-n N] [-full] [-fast=false]
  eccspec report [-seed N] [-full] [-fast]
  eccspec chaos list
  eccspec chaos <scenario>|-plan f [-seed N] [-seconds S] [-workload W]
  eccspec cluster members [-addr URL]
  eccspec cluster placement <fleet-id> [-addr URL]
  eccspec loadtest -addr URL [-rps N] [-duration D] [-workers N] [-mix s:st:r:l] [-json f] [-slo-submit-p99 MS] [-slo-read-p99 MS] [-slo-min-rps N]
  eccspec sweep [-seed N] [-full] [-high] [-ticks N]
  eccspec calibrate [-seed N] [-full] [-high] [-aged hours]
  eccspec errprofile [-seed N] [-offset mV] [-seconds S] [-top K] [-full]
  eccspec version

speculation policies (for -policy / -policies): %s
`, strings.Join(eccspec.PolicyNames(), ", "))
}
