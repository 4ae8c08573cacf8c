package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"eccspec/internal/cluster"
	"eccspec/internal/engine"
	"eccspec/internal/faultinject"
	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// chaosCmd runs a fault-injection scenario end to end and prints a
// deterministic report: the same scenario and seed produce byte-for-byte
// identical output, which is the injector's replayability contract.
func chaosCmd(ctx context.Context, args []string) error {
	if len(args) > 0 && args[0] == "list" {
		for _, sc := range faultinject.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	planPath := fs.String("plan", "", "JSON fault plan to run instead of a named scenario")
	seed := fs.Uint64("seed", 0, "replace the scenario's chip seeds with this one (0 = keep)")
	seconds := fs.Float64("seconds", 0, "override the simulated duration (0 = keep)")
	wl := fs.String("workload", "", "override the scenario workload (empty = keep)")
	var name string
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		name, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}

	var sc faultinject.Scenario
	switch {
	case name != "" && *planPath != "":
		return fmt.Errorf("chaos: give a scenario name or -plan, not both")
	case name != "":
		var ok bool
		if sc, ok = faultinject.ScenarioByName(name); !ok {
			var names []string
			for _, s := range faultinject.Scenarios() {
				names = append(names, s.Name)
			}
			return fmt.Errorf("chaos: unknown scenario %q (valid: %s)", name, strings.Join(names, ", "))
		}
	case *planPath != "":
		plan, err := faultinject.LoadPlan(*planPath)
		if err != nil {
			return err
		}
		sc = faultinject.Scenario{Name: "custom", Workload: "stress-test",
			Seconds: 0.3, Seeds: []uint64{42}, Plan: plan}
	default:
		return fmt.Errorf("chaos: a scenario name or -plan is required (try `eccspec chaos list`)")
	}
	if *seed != 0 {
		sc.Seeds = []uint64{*seed}
	}
	if *seconds != 0 {
		sc.Seconds = *seconds
	}
	if *wl != "" {
		sc.Workload = *wl
	}

	in, err := faultinject.New(sc.Plan)
	if err != nil {
		return err
	}
	fmt.Printf("chaos scenario %s: workload=%s seconds=%g seeds=%v plan-seed=%d\n",
		sc.Name, sc.Workload, sc.Seconds, sc.Seeds, sc.Plan.Seed)
	for _, f := range sc.Plan.Faults {
		fmt.Printf("  fault: %-28s start=%d duration=%d\n", f, f.Start, f.Duration)
	}

	// Simulation plane: one worker so chips run in a fixed order.
	results, err := fleet.New(fleet.Config{Workers: 1}).Run(ctx, fleet.Job{
		Seeds:    sc.Seeds,
		Workload: sc.Workload,
		Seconds:  sc.Seconds,
		Observers: func(chipSeed uint64) []engine.Observer {
			return []engine.Observer{in.Observer(chipSeed)}
		},
	}, nil)
	if err != nil {
		return err
	}

	// Journal plane: persist the run through the same injector's store
	// hook, so planned I/O faults hit real commit points, then prove the
	// journal survived by replaying it fresh.
	var retries int64
	replayed := -1
	if sc.Plan.HasStoreFaults() {
		dir, err := os.MkdirTemp("", "eccspec-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{
			WriteHook: in.StoreHook(),
			Retry:     store.RetryPolicy{JitterSeed: sc.Plan.Seed},
		})
		if err != nil {
			return err
		}
		spec := fleet.Job{Seeds: sc.Seeds, Workload: sc.Workload, Seconds: sc.Seconds}
		if err := st.AddJob(1, spec); err != nil {
			return fmt.Errorf("chaos: journaling job: %w", err)
		}
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			if err := st.RecordChip(1, store.FromResult(r)); err != nil {
				return fmt.Errorf("chaos: journaling chip %d: %w", r.Seed, err)
			}
		}
		if err := st.MarkJobDone(1, 0); err != nil {
			return fmt.Errorf("chaos: journaling completion: %w", err)
		}
		retries = st.Retries()
		if err := st.Close(); err != nil {
			return err
		}
		re, err := store.Open(dir, store.Options{})
		if err != nil {
			return fmt.Errorf("chaos: journal did not replay: %w", err)
		}
		if jobs := re.Jobs(); len(jobs) == 1 {
			replayed = len(jobs[0].Chips)
		}
		re.Close()
	}

	// Network plane: re-run the fleet through an in-process loopback
	// cluster whose dispatch transport rides the same injector, then
	// byte-compare the merged results against the single-node run.
	var netReport *clusterPlaneReport
	if sc.Plan.HasNetFaults() {
		netReport, err = runClusterPlane(ctx, sc, in, results)
		if err != nil {
			return err
		}
	}

	fmt.Println("injected events:")
	for _, ev := range in.Events() {
		switch {
		case ev.Fault.Kind == faultinject.StoreError || ev.Fault.Kind == faultinject.StoreSlow:
			fmt.Printf("  op %-4d %-5s %s\n", ev.Tick, ev.Phase, ev.Fault)
		case strings.HasPrefix(string(ev.Fault.Kind), "net-"):
			fmt.Printf("  rpc %-4d %-5s %s\n", ev.Tick, ev.Phase, ev.Fault)
		default:
			fmt.Printf("  chip %d tick %-4d %-5s %s\n", ev.Chip, ev.Tick, ev.Phase, ev.Fault)
		}
	}

	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("chip %d: ERROR: %v\n", r.Seed, r.Err)
			continue
		}
		var vdd []string
		for _, v := range r.DomainVdd {
			vdd = append(vdd, fmt.Sprintf("%.3f", v))
		}
		fmt.Printf("chip %d: ticks=%d vdd=[%s] emergencies=%d fail-safe=%v reduction=%.1f%%\n",
			r.Seed, r.Ticks, strings.Join(vdd, " "), r.Emergencies, r.FailSafe,
			100*r.AvgReduction)
	}
	if sc.Plan.HasStoreFaults() {
		fmt.Printf("journal: %d retried commit points", retries)
		if replayed >= 0 {
			fmt.Printf("; clean replay with %d chip records\n", replayed)
		} else {
			fmt.Println("; REPLAY FAILED")
		}
	}
	if netReport != nil {
		st := netReport.stats
		// DupEvents counts raw duplicated stream lines, which include
		// timing-dependent keepalives — report engagement, not the count,
		// so the output stays byte-identical across runs.
		dedupe := "idle"
		if st.DupEvents > 0 {
			dedupe = "engaged"
		}
		fmt.Printf("cluster: %d dispatches, %d retries, %d migrated, %d stalled, dedupe %s, %d quarantines\n",
			st.Dispatches, st.Retries, st.ChipsMigrated, st.StreamsStalled, dedupe, netReport.quarantines)
		for _, w := range netReport.members {
			fmt.Printf("  worker %-4s %s (%d chips done)\n", w.ID, w.State, w.ChipsDone)
		}
		if !netReport.identical {
			return fmt.Errorf("chaos: cluster results DIVERGED from the single-node run")
		}
		fmt.Println("cluster results byte-identical to the single-node run")
	}
	return nil
}

// clusterPlaneReport is what the network plane contributes to the
// chaos report.
type clusterPlaneReport struct {
	stats       cluster.Stats
	members     []cluster.Member
	quarantines int64
	identical   bool
}

// runClusterPlane re-runs the scenario's fleet through an in-process
// loopback cluster — a coordinator plus sc.Workers real Executors over
// real TCP — with the injector armed on the dispatch transport, and
// byte-compares the merged results against the single-node run.
func runClusterPlane(ctx context.Context, sc faultinject.Scenario, in *faultinject.Injector, want []fleet.ChipResult) (*clusterPlaneReport, error) {
	workers := sc.Workers
	if workers == 0 {
		workers = 2
	}
	m := cluster.NewMembership(time.Minute)
	m.SetQuarantinePolicy(sc.QuarantineAfter, sc.ProbeDelay)
	var servers []*http.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		ex := &cluster.Executor{
			Engine: fleet.New(fleet.Config{Workers: 2}),
			Observers: func(seed uint64) []engine.Observer {
				return []engine.Observer{in.Observer(seed)}
			},
			KeepAlive: 100 * time.Millisecond,
		}
		mux := http.NewServeMux()
		mux.HandleFunc("POST "+cluster.PathExec, ex.HandleExec)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: mux}
		servers = append(servers, srv)
		go srv.Serve(ln)
		m.Join(cluster.RegisterRequest{
			ID: fmt.Sprintf("w%d", i+1), URL: "http://" + ln.Addr().String(), Slots: 2,
		})
	}
	coord := cluster.New(cluster.Config{
		Membership:   m,
		WorkerWait:   10 * time.Second,
		StallTimeout: 5 * time.Second,
		Retry: store.RetryPolicy{
			BaseDelay:  10 * time.Millisecond,
			MaxDelay:   200 * time.Millisecond,
			JitterSeed: sc.Plan.Seed,
		},
		Transport: in.Transport(cluster.NewTransport()),
		Logf:      func(string, ...any) {},
	})
	got, err := coord.Run(ctx, fleet.Job{
		Seeds: sc.Seeds, Workload: sc.Workload, Seconds: sc.Seconds,
	}, nil)
	if err != nil {
		return nil, err
	}
	identical := len(got) == len(want)
	for i := 0; identical && i < len(got); i++ {
		a, _ := json.Marshal(store.FromResult(got[i]))
		b, _ := json.Marshal(store.FromResult(want[i]))
		identical = bytes.Equal(a, b)
	}
	return &clusterPlaneReport{
		stats:       coord.Stats(),
		members:     m.Snapshot(),
		quarantines: m.Quarantines(),
		identical:   identical,
	}, nil
}
