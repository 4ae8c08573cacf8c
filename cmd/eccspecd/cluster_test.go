package main

// Cluster acceptance tests: real coordinator and worker daemons as
// subprocesses, a worker SIGKILLed mid-job, and the merged results
// byte-compared against an uninterrupted single-node daemon. Also the
// home of the cluster bench harness: set ECCSPEC_BENCH_OUT to a path
// and the kill test writes a BENCH_cluster.json snapshot of cluster
// throughput.
//
// These tests ride the same re-exec trick as persist_test.go: the test
// binary doubles as eccspecd via ECCSPECD_MAIN=1.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"eccspec/internal/store"
)

const clusterFleetBody = `{"seeds":[81,82,83,84,85,86],"workload":"jbb-8wh","seconds":0.06,"trace_every":10}`

// waitClusterHealthy polls the coordinator's members endpoint until n
// workers report healthy.
func waitClusterHealthy(t *testing.T, coord *daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		code, body := coord.get(t, "/v1/cluster/members")
		if code == http.StatusOK {
			var out struct {
				Workers []struct {
					State string `json:"state"`
				} `json:"workers"`
			}
			if json.Unmarshal(body, &out) == nil {
				healthy := 0
				for _, w := range out.Workers {
					if w.State == "healthy" {
						healthy++
					}
				}
				if healthy >= n {
					return
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%d workers never turned healthy", n)
}

// placementWorkers fetches the seed->worker map of a job and returns
// the distinct workers holding seeds.
func placementWorkers(t *testing.T, coord *daemon, id string) map[string]int {
	t.Helper()
	code, body := coord.get(t, "/v1/cluster/jobs/"+id+"/placement")
	if code != http.StatusOK {
		return nil
	}
	var out struct {
		Placement map[string]string `json:"placement"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("placement decode: %v", err)
	}
	got := map[string]int{}
	for _, w := range out.Placement {
		got[w]++
	}
	return got
}

// metricValue scrapes one sample from a Prometheus text page.
func metricValue(t *testing.T, page []byte, name string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, rest, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestClusterWorkerKillByteIdenticalResults is the tentpole acceptance
// test: a coordinator with two worker daemons runs a fleet; one worker
// is SIGKILLed while it provably holds checkpointed, unfinished chips;
// the survivor absorbs the migrated chips; and the merged results and
// trace are byte-identical to a single-node daemon's uninterrupted run.
func TestClusterWorkerKillByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}

	// Reference output: one plain daemon, no cluster anywhere.
	single := startDaemon(t, "-workers 2")
	code, sub := single.post(t, "/v1/fleets", clusterFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("single-node submit: HTTP %d: %v", code, sub)
	}
	id := sub["id"].(string)
	if st := single.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("single-node run finished as %v", st["status"])
	}
	code, wantResults := single.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("single-node results: HTTP %d", code)
	}
	code, wantTrace := single.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("single-node trace: HTTP %d", code)
	}
	single.sigkill(t)

	// Cluster topology: coordinator (journaling) + two workers.
	dir := t.TempDir()
	coord := startDaemon(t, "-coordinator -data-dir "+dir+" -checkpoint-interval 20 -worker-ttl 2s")
	joinArgs := fmt.Sprintf("-join http://%s -workers 2", coord.addr)
	w1 := startDaemon(t, joinArgs+" -worker-id w1")
	startDaemon(t, joinArgs+" -worker-id w2")
	waitClusterHealthy(t, coord, 2)

	start := time.Now()
	code, sub = coord.post(t, "/v1/fleets", clusterFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: HTTP %d: %v", code, sub)
	}
	if cid := sub["id"].(string); cid != id {
		t.Fatalf("cluster job id %s, single-node %s", cid, id)
	}

	// Kill w1 only once the kill provably interrupts real work: the
	// coordinator journal holds a checkpoint (so migration resumes
	// mid-chip, not from scratch) and the placement shows both workers
	// assigned. If the fleet finishes first the scenario proved
	// nothing — fail loudly.
	journal := filepath.Join(dir, store.JournalName)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("kill window never arrived (no checkpoint + dual placement)")
		}
		data, err := os.ReadFile(journal)
		if err == nil && strings.Contains(string(data), `"t":"done"`) {
			t.Fatal("fleet finished before the kill; lower seconds or the checkpoint interval")
		}
		if err == nil && strings.Contains(string(data), `"t":"ckpt"`) {
			placed := placementWorkers(t, coord, id)
			if placed["w1"] > 0 && placed["w2"] > 0 {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	w1.sigkill(t)

	if st := coord.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("cluster run finished as %v", st["status"])
	}
	elapsed := time.Since(start)

	code, gotResults := coord.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("cluster results: HTTP %d", code)
	}
	if string(gotResults) != string(wantResults) {
		t.Fatalf("cluster results differ from single-node run:\nsingle:\n%s\ncluster:\n%s", wantResults, gotResults)
	}
	code, gotTrace := coord.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("cluster trace: HTTP %d", code)
	}
	if string(gotTrace) != string(wantTrace) {
		t.Fatalf("cluster trace differs from single-node run")
	}

	// The scheduler must have actually migrated chips off the corpse.
	code, page := coord.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	migrated, ok := metricValue(t, page, "eccspecd_cluster_chips_migrated_total")
	if !ok || migrated < 1 {
		t.Errorf("eccspecd_cluster_chips_migrated_total = %v (present=%v), want >= 1", migrated, ok)
	}
	remoteChips, ok := metricValue(t, page, "eccspecd_cluster_chips_done_total")
	if !ok || remoteChips != 6 {
		t.Errorf("eccspecd_cluster_chips_done_total = %v, want 6", remoteChips)
	}
	// A mid-stream failure quarantines the worker first; "dead" is the
	// TTL's verdict, so give the 2s TTL room to pass before asserting.
	deadBy := time.Now().Add(10 * time.Second)
	for {
		if dead, ok := metricValue(t, page, "eccspecd_cluster_workers_dead"); ok && dead >= 1 {
			break
		}
		if time.Now().After(deadBy) {
			dead, _ := metricValue(t, page, "eccspecd_cluster_workers_dead")
			t.Errorf("eccspecd_cluster_workers_dead = %v, want >= 1", dead)
			break
		}
		time.Sleep(100 * time.Millisecond)
		if code, page = coord.get(t, "/metrics"); code != http.StatusOK {
			t.Fatalf("metrics: HTTP %d", code)
		}
	}

	// Satellite check: healthz reports the cluster role and membership.
	code, body := coord.get(t, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["role"] != "coordinator" {
		t.Errorf("coordinator healthz role = %v", hz["role"])
	}
	cl, _ := hz["cluster"].(map[string]any)
	if cl == nil || cl["workers_total"].(float64) != 2 {
		t.Errorf("coordinator healthz cluster block = %v", hz["cluster"])
	}

	// Placement survives job completion (journaled assignments), and
	// every seed has a home.
	placed := placementWorkers(t, coord, id)
	if placed["w1"]+placed["w2"] != 6 {
		t.Errorf("placement after completion covers %v, want all 6 seeds", placed)
	}

	remoteTicks, _ := metricValue(t, page, "eccspecd_cluster_remote_ticks_total")
	writeClusterBench(t, elapsed, remoteTicks, int(remoteChips), int(migrated))
}

// writeClusterBench records cluster throughput to ECCSPEC_BENCH_OUT
// (no-op when unset) — the `make cluster-smoke` harness.
func writeClusterBench(t *testing.T, elapsed time.Duration, ticks float64, chips, migrated int) {
	t.Helper()
	out := os.Getenv("ECCSPEC_BENCH_OUT")
	if out == "" {
		return
	}
	blob, err := json.MarshalIndent(map[string]any{
		"bench":          "cluster",
		"topology":       "1 coordinator + 2 workers (one SIGKILLed mid-job), localhost",
		"chips":          chips,
		"elapsed_s":      elapsed.Seconds(),
		"ticks_per_sec":  ticks / elapsed.Seconds(),
		"chips_per_min":  float64(chips) / elapsed.Minutes(),
		"chips_migrated": migrated,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestWorkerHealthzReportsCoordinator checks a worker daemon's healthz
// names its role and coordinator.
func TestWorkerHealthzReportsCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	coord := startDaemon(t, "-coordinator")
	w := startDaemon(t, fmt.Sprintf("-join http://%s -worker-id wz", coord.addr))
	waitClusterHealthy(t, coord, 1)
	code, body := w.get(t, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["role"] != "worker" || hz["coordinator"] != "http://"+coord.addr {
		t.Errorf("worker healthz = %v", hz)
	}
}

// TestHealthzDegradedReason checks the enriched healthz surfaces the
// degraded cause and clears it on recovery.
func TestHealthzDegradedReason(t *testing.T) {
	s, ts := newTestServer(t)
	s.noteStore(errors.New("disk on fire"))
	code, h := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h["status"] != "degraded" || h["degraded"] != true {
		t.Fatalf("healthz while degraded = %v", h)
	}
	reason, _ := h["degraded_reason"].(string)
	if !strings.Contains(reason, "disk on fire") {
		t.Fatalf("degraded_reason = %q", reason)
	}
	s.noteStore(nil)
	_, h = getJSON(t, ts.URL+"/healthz")
	if h["status"] != "ok" {
		t.Fatalf("healthz after recovery = %v", h)
	}
	if _, present := h["degraded_reason"]; present {
		t.Fatalf("degraded_reason survived recovery: %v", h)
	}
}
