package main

// Network-plane chaos acceptance: real coordinator and worker daemons
// as subprocesses with a seeded net-fault plan armed on the
// coordinator's RPC transport, byte-compared against an uninterrupted
// single-node daemon. This is the `make cluster-chaos` harness; with
// ECCSPEC_BENCH_OUT set, the chaos run refreshes BENCH_cluster.json.
//
// Rides the same re-exec trick as persist_test.go (ECCSPECD_MAIN=1).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

const netChaosFleetBody = `{"seeds":[41,42,43,44,45,46],"workload":"jbb-8wh","seconds":0.06,"trace_every":10}`

// writeChaosPlan drops a plan JSON into a temp dir and returns its path.
func writeChaosPlan(t *testing.T, plan string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stop shuts a daemon down gracefully and asserts a clean exit — the
// chaos contract includes not wedging shutdown.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("daemon exited dirty: %v", err)
	}
}

// singleNodeReference runs the fleet on one plain daemon and returns
// the results and trace bytes every cluster run must reproduce.
func singleNodeReference(t *testing.T, body string) (id string, results, trace []byte) {
	t.Helper()
	single := startDaemon(t, "-workers 2")
	code, sub := single.post(t, "/v1/fleets", body)
	if code != http.StatusAccepted {
		t.Fatalf("single-node submit: HTTP %d: %v", code, sub)
	}
	id = sub["id"].(string)
	if st := single.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("single-node run finished as %v", st["status"])
	}
	code, results = single.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("single-node results: HTTP %d", code)
	}
	code, trace = single.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("single-node trace: HTTP %d", code)
	}
	single.sigkill(t)
	return id, results, trace
}

// TestClusterNetChaosByteIdenticalResults is the network-plane
// acceptance test: a coordinator whose dispatch transport carries a
// seeded gauntlet — partition window, torn stream, duplicated stream,
// slow link — must still merge results and trace byte-identical to a
// single-node daemon, exercise its retry and dedupe paths, and shut
// everything down cleanly.
func TestClusterNetChaosByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	id, wantResults, wantTrace := singleNodeReference(t, netChaosFleetBody)

	plan := writeChaosPlan(t, `{"seed":42,"faults":[
		{"kind":"net-partition","target":"exec","start":0,"duration":2},
		{"kind":"net-reset-stream","target":"exec","start":2,"duration":1,"line":2},
		{"kind":"net-dup-events","target":"exec","start":3,"duration":1},
		{"kind":"net-slow","target":"exec","start":4,"duration":2,"delay_ms":10}
	]}`)
	coord := startDaemon(t, "-coordinator -worker-ttl 5s -stall-timeout 30s -chaos-plan "+plan)
	joinArgs := fmt.Sprintf("-join http://%s -workers 2", coord.addr)
	w1 := startDaemon(t, joinArgs+" -worker-id w1")
	w2 := startDaemon(t, joinArgs+" -worker-id w2")
	waitClusterHealthy(t, coord, 2)

	start := time.Now()
	code, sub := coord.post(t, "/v1/fleets", netChaosFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: HTTP %d: %v", code, sub)
	}
	if cid := sub["id"].(string); cid != id {
		t.Fatalf("cluster job id %s, single-node %s", cid, id)
	}
	if st := coord.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("cluster run finished as %v", st["status"])
	}
	elapsed := time.Since(start)

	code, gotResults := coord.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("cluster results: HTTP %d", code)
	}
	if string(gotResults) != string(wantResults) {
		t.Fatalf("results differ from single-node run under net chaos:\nsingle:\n%s\ncluster:\n%s", wantResults, gotResults)
	}
	code, gotTrace := coord.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("cluster trace: HTTP %d", code)
	}
	if string(gotTrace) != string(wantTrace) {
		t.Fatalf("trace differs from single-node run under net chaos")
	}

	// The plan must have actually forced the hardening paths.
	code, page := coord.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	retries, ok := metricValue(t, page, "eccspecd_cluster_dispatch_retries_total")
	if !ok || retries < 1 {
		t.Errorf("eccspecd_cluster_dispatch_retries_total = %v (present=%v), want >= 1", retries, ok)
	}
	dups, ok := metricValue(t, page, "eccspecd_cluster_dup_events_total")
	if !ok || dups < 1 {
		t.Errorf("eccspecd_cluster_dup_events_total = %v (present=%v), want >= 1", dups, ok)
	}
	if chips, ok := metricValue(t, page, "eccspecd_cluster_chips_done_total"); !ok || chips != 6 {
		t.Errorf("eccspecd_cluster_chips_done_total = %v, want 6", chips)
	}

	// Everyone drains and exits clean despite the chaos plan.
	w1.stop(t)
	w2.stop(t)
	coord.stop(t)

	writeNetChaosBench(t, elapsed, int(retries), int(dups))
}

// writeNetChaosBench records the chaos run to ECCSPEC_BENCH_OUT (no-op
// when unset) — the `make cluster-chaos` harness refreshing
// BENCH_cluster.json.
func writeNetChaosBench(t *testing.T, elapsed time.Duration, retries, dups int) {
	t.Helper()
	out := os.Getenv("ECCSPEC_BENCH_OUT")
	if out == "" {
		return
	}
	blob, err := json.MarshalIndent(map[string]any{
		"bench":            "cluster-chaos",
		"topology":         "1 coordinator + 2 workers under a seeded net-fault gauntlet, localhost",
		"chips":            6,
		"elapsed_s":        elapsed.Seconds(),
		"chips_per_min":    6 / elapsed.Minutes(),
		"dispatch_retries": retries,
		"dup_events":       dups,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestClusterNetChaosQuarantineRecovers drives the circuit breaker end
// to end across processes: with -quarantine-after 1, the partitioned
// first dispatch quarantines a worker (visible in metrics, healthz, and
// the members view), the half-open probe revives it once the window
// passes, and the fleet still matches single-node bytes.
func TestClusterNetChaosQuarantineRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	id, wantResults, _ := singleNodeReference(t, netChaosFleetBody)

	plan := writeChaosPlan(t, `{"seed":7,"faults":[
		{"kind":"net-partition","target":"exec","start":0,"duration":1}
	]}`)
	coord := startDaemon(t, "-coordinator -quarantine-after 1 -probe-delay 100ms -chaos-plan "+plan)
	w := startDaemon(t, fmt.Sprintf("-join http://%s -workers 2 -worker-id solo", coord.addr))
	waitClusterHealthy(t, coord, 1)

	code, sub := coord.post(t, "/v1/fleets", netChaosFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: HTTP %d: %v", code, sub)
	}
	if st := coord.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("cluster run finished as %v: %v", st["status"], sub)
	}

	code, gotResults := coord.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("cluster results: HTTP %d", code)
	}
	if string(gotResults) != string(wantResults) {
		t.Fatalf("results differ after quarantine round-trip:\nsingle:\n%s\ncluster:\n%s", wantResults, gotResults)
	}

	code, page := coord.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if q, ok := metricValue(t, page, "eccspecd_cluster_quarantines_total"); !ok || q < 1 {
		t.Errorf("eccspecd_cluster_quarantines_total = %v (present=%v), want >= 1", q, ok)
	}
	// The job only finishes if the probe revived the quarantined worker,
	// so by now the gauge must be back to zero.
	if g, ok := metricValue(t, page, "eccspecd_cluster_workers_quarantined"); !ok || g != 0 {
		t.Errorf("eccspecd_cluster_workers_quarantined = %v (present=%v), want 0 after recovery", g, ok)
	}

	w.stop(t)
	coord.stop(t)
}
