package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"eccspec/internal/control"
	"eccspec/internal/fleet"
	"eccspec/internal/trace"
)

// realChip runs one short traced chip through the fleet engine and the
// direct re-drive, so the checks are exercised on genuine outputs.
func realChip(t *testing.T) (fleet.ChipResult, redriven, *phases) {
	t.Helper()
	job := fleet.Job{Seeds: []uint64{4242}, Workload: "gcc", Seconds: 0.03, TraceEvery: 1, CheckpointEvery: 10}
	ph := newPhases()
	job.Observers = ph.observers
	res, err := fleet.New(fleet.Config{Workers: 1}).Run(context.Background(), job, nil)
	if err != nil || res[0].Err != nil {
		t.Fatalf("fleet run: %v %v", err, res[0].Err)
	}
	rd, err := redrive(chipSpec{Seed: 4242, Workload: "gcc", Seconds: 0.03, TraceEvery: 1, CheckpointEvery: 10}, nil)
	if err != nil {
		t.Fatalf("redrive: %v", err)
	}
	return res[0], rd, ph
}

func TestChecksPassOnRealOutputsAndCatchCorruption(t *testing.T) {
	res, rd, ph := realChip(t)
	want := outcomeOf(res)
	if err := checkSameOutcome(rd.Out, want); err != nil {
		t.Fatalf("direct re-drive differs from the fleet: %v", err)
	}
	if rd.Captures != 2 {
		t.Fatalf("re-drive took %d checkpoints, want 2", rd.Captures)
	}

	t.Run("flipped DomainVdd", func(t *testing.T) {
		bad := rd.Out
		bad.DomainVdd = append([]float64(nil), rd.Out.DomainVdd...)
		bad.DomainVdd[1] = math.Float64frombits(math.Float64bits(bad.DomainVdd[1]) ^ 1)
		if checkSameOutcome(bad, want) == nil {
			t.Fatal("a one-bit flip in a domain Vdd passed")
		}
		if checkDomainVdd(1, bad.DomainVdd[1]+0.001, nil) == nil {
			t.Fatal("a Vdd off the 5 mV grid passed")
		}
	})

	t.Run("flipped trace value", func(t *testing.T) {
		bad := rd.Out
		bad.TraceRows = append([][]float64(nil), rd.Out.TraceRows...)
		row := append([]float64(nil), bad.TraceRows[5]...)
		row[2] += 0.005
		bad.TraceRows[5] = row
		if checkSameOutcome(bad, want) == nil {
			t.Fatal("a changed trace value passed")
		}
	})

	t.Run("dropped trace row", func(t *testing.T) {
		rows := windowTicks(0.03)
		if err := checkTrace(res, rows); err != nil {
			t.Fatalf("intact trace rejected: %v", err)
		}
		order := func(idx ...int) fleet.ChipResult {
			bad := res
			bad.Trace = trace.NewRecorder(fleet.TraceColumns...)
			for _, i := range idx {
				vals := make([]float64, len(fleet.TraceColumns))
				for c := range vals {
					vals[c] = res.Trace.Value(i, c)
				}
				bad.Trace.Add(res.Trace.Time(i), vals...)
			}
			return bad
		}
		var kept, swapped []int
		for i := 0; i < rows; i++ {
			if i != 7 {
				kept = append(kept, i)
			}
			swapped = append(swapped, i)
		}
		swapped[7], swapped[8] = 8, 7
		if checkTrace(order(kept...), rows) == nil {
			t.Fatal("a trace with a dropped row passed")
		}
		if checkTrace(order(swapped...), rows) == nil {
			t.Fatal("a trace going back in time passed")
		}
		if checkTrace(fleet.ChipResult{Seed: res.Seed}, rows) == nil {
			t.Fatal("a missing trace passed")
		}
	})

	t.Run("non-grid onset", func(t *testing.T) {
		floor := control.DefaultConfig().CalibFloorV
		p, ok := ph.get(res.Seed)
		if !ok {
			t.Fatal("no phase observed")
		}
		if err := checkOnsets(res.Seed, p.OnsetV, p.Nominal, floor); err != nil {
			t.Fatalf("real onsets rejected: %v", err)
		}
		for name, mutate := range map[string]func([]float64){
			"off grid":   func(v []float64) { v[0] += 0.002 },
			"at nominal": func(v []float64) { v[2] = p.Nominal },
			"at floor":   func(v []float64) { v[3] = floor },
		} {
			bad := append([]float64(nil), p.OnsetV...)
			mutate(bad)
			if checkOnsets(res.Seed, bad, p.Nominal, floor) == nil {
				t.Errorf("onset %s passed", name)
			}
		}
	})

	t.Run("domain below logic floor", func(t *testing.T) {
		if err := checkHealth(res.Seed, rd.Health); err != nil {
			t.Fatalf("healthy chip rejected: %v", err)
		}
		v := rd.Out.DomainVdd[0]
		if checkDomainVdd(0, v, []float64{v - 0.01}) != nil {
			t.Fatal("a Vdd above its logic floors rejected")
		}
		if checkDomainVdd(0, v, []float64{v - 0.01, v + 0.001}) == nil {
			t.Fatal("a Vdd below a member core's logic floor passed")
		}
	})
}

// daemonTrace is a /trace body in the daemon's format: the header, then
// per seed one row per sample of seed, time and the four columns.
func daemonTrace(rows map[uint64][]string) string {
	var b strings.Builder
	b.WriteString("seed,time," + strings.Join(fleet.TraceColumns, ",") + "\n")
	for _, seed := range []uint64{11, 12} {
		for _, r := range rows[seed] {
			fmt.Fprintf(&b, "%d,%s,0.7,0.695,0.02,21.5\n", seed, r)
		}
	}
	return b.String()
}

func TestParseTraceCSV(t *testing.T) {
	seeds := []uint64{11, 12}
	// A 3 ms window sampled every tick: three rows per chip.
	want := wantTraceRows(seeds, windowTicks(0.003), 1)
	full := []string{"0.001", "0.002", "0.003"}
	rows, err := parseTraceCSV([]byte(daemonTrace(map[uint64][]string{11: full, 12: full})), want)
	if err != nil {
		t.Fatalf("intact trace rejected: %v", err)
	}
	if len(rows[12]) != 3 || rows[12][2][0] != 0.003 {
		t.Fatalf("parsed rows %v", rows[12])
	}
	for name, body := range map[string]string{
		"dropped row":       daemonTrace(map[uint64][]string{11: full, 12: {"0.001", "0.003"}}),
		"truncated chip":    daemonTrace(map[uint64][]string{11: full, 12: {"0.001"}}),
		"missing chip":      daemonTrace(map[uint64][]string{11: full}),
		"time going back":   daemonTrace(map[uint64][]string{11: {"0.001", "0.003", "0.002"}, 12: full}),
		"extra row":         daemonTrace(map[uint64][]string{11: append(full, "0.004"), 12: full}),
		"wrong header":      strings.Replace(daemonTrace(map[uint64][]string{11: full, 12: full}), "seed,time", "seed,t", 1),
		"bad value in body": strings.Replace(daemonTrace(map[uint64][]string{11: full, 12: full}), "0.002", "0.0x2", 1),
	} {
		if _, err := parseTraceCSV([]byte(body), want); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestCheckChips(t *testing.T) {
	seeds := []uint64{11, 12}
	const ticks = 5000
	parse := func(body string) resultsBody {
		var r resultsBody
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	chip := `{"seed":%d,"avg_reduction":0.1,"domain_vdd":[0.7,0.69],"uncore_vdd":0.8,"avg_power_w":20,"ticks":%d}`
	good := parse(`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) + `,` + fmt.Sprintf(chip, 12, ticks) + `]}`)
	if failed, err := checkChips("f-1", good, seeds, ticks); failed != 0 || err != nil {
		t.Fatalf("intact results rejected: %d failed, %v", failed, err)
	}
	for name, tc := range map[string]struct {
		body   string
		failed int
	}{
		// A core died: the daemon still marks the job done.
		"chip error": {`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) +
			`,{"seed":12,"error":"core died after 812 ticks (rail below crash margin)","ticks":812}]}`, 1},
		"missing chip":    {`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) + `]}`, 1},
		"duplicated chip": {`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) + `,` + fmt.Sprintf(chip, 11, ticks) + `]}`, 2},
		"unsubmitted chip": {`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) + `,` + fmt.Sprintf(chip, 12, ticks) +
			`,` + fmt.Sprintf(chip, 13, ticks) + `]}`, 0},
		"short window": {`{"status":"done","per_chip":[` + fmt.Sprintf(chip, 11, ticks) + `,` + fmt.Sprintf(chip, 12, ticks-1) + `]}`, 1},
	} {
		failed, err := checkChips("f-1", parse(tc.body), seeds, ticks)
		if err == nil || failed != tc.failed {
			t.Errorf("%s: %d failed (want %d), error %v", name, failed, tc.failed, err)
		}
	}
}

func TestCheckRevalidate(t *testing.T) {
	tag := `"f-3-2-1700000000-done"`
	if err := checkRevalidate("r", http.StatusNotModified, tag, tag); err != nil {
		t.Fatalf("matching 304 rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		status    int
		sent, got string
	}{
		"ETag mismatch":    {http.StatusNotModified, tag, `"f-3-2-1700000000-failed"`},
		"full body again":  {http.StatusOK, tag, tag},
		"no tag to revive": {http.StatusNotModified, "", ""},
	} {
		if checkRevalidate("r", tc.status, tc.sent, tc.got) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestCheckMargin(t *testing.T) {
	onsets := []float64{0.700, 0.690}
	if err := checkMargin(1, []float64{0.715, 0.720}, onsets); err != nil {
		t.Fatalf("setpoints at and above the margin rejected: %v", err)
	}
	if checkMargin(1, []float64{0.715, 0.700}, onsets) == nil {
		t.Fatal("a setpoint inside the static margin passed")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b := soakCycle(newInputs(7, "soak")), soakCycle(newInputs(7, "soak"))
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("one seed generated two different soak cycles")
	}
	c := soakCycle(newInputs(8, "soak"))
	if c[0].Seeds[0] == a[0].Seeds[0] && c[0].Workload == a[0].Workload {
		t.Fatal("two seeds generated the same soak cycle")
	}
	seen := make(map[string]bool)
	for _, j := range a {
		seen[j.Workload] = true
	}
	if len(seen) != len(a) || len(a) != len(newInputs(1, "x").tableII()) {
		t.Fatalf("a soak cycle covers %d distinct workloads in %d jobs", len(seen), len(a))
	}
	round := serviceRound(newInputs(7, "service"), newInputs(7, "names").tableII(), 0)
	mix := make(map[[2]int]bool)
	for _, j := range round {
		mix[[2]int{j.TraceEvery, len(j.Seeds)}] = true
	}
	if len(mix) != len(serviceTraceEvery)*len(serviceChips) {
		t.Fatalf("a service round covers %d of the job-mix pairs", len(mix))
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", tc.name, len(tc.got), len(tc.want))
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
}
