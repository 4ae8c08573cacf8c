package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"eccspec/internal/fleet"
)

// TestMain lets the test binary double as the daemon so the shutdown
// test can exercise the real signal path in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("ECCSPECD_MAIN") == "1" {
		os.Args = []string{"eccspecd", "-addr", "127.0.0.1:0", "-workers", "1"}
		if extra := os.Getenv("ECCSPECD_ARGS"); extra != "" {
			os.Args = append(os.Args, strings.Fields(extra)...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(fleet.New(fleet.Config{Workers: 2}), serverConfig{queueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postFleet(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/fleets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, m
}

// waitDone polls a job's status endpoint until it leaves the
// queued/running states.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, st := getJSON(t, ts.URL+"/v1/fleets/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %v", id, code, st)
		}
		switch st["status"] {
		case statusDone, statusFailed, statusCanceled:
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// TestFleetLifecycle drives the full happy path over HTTP: submit,
// poll progress, fetch aggregated results and the telemetry trace.
func TestFleetLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	code, sub := postFleet(t, ts, `{"seeds":[11,12],"workload":"jbb-8wh","seconds":0.02,"trace_every":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, sub)
	}
	id, _ := sub["id"].(string)
	if id == "" || sub["status"] != statusQueued || sub["chips_total"] != float64(2) {
		t.Fatalf("unexpected submit response: %v", sub)
	}

	st := waitDone(t, ts, id)
	if st["status"] != statusDone {
		t.Fatalf("job finished as %v: %v", st["status"], st)
	}
	if st["chips_done"] != float64(2) {
		t.Fatalf("chips_done = %v, want 2", st["chips_done"])
	}

	code, res := getJSON(t, ts.URL+"/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d: %v", code, res)
	}
	if res["chips"] != float64(2) || res["failed"] != float64(0) {
		t.Fatalf("results counts: %v", res)
	}
	if mr, _ := res["mean_reduction"].(float64); mr <= 0 || mr >= 1 {
		t.Fatalf("mean_reduction = %v", res["mean_reduction"])
	}
	hist, _ := res["domain_vdd_hist"].(map[string]any)
	if hist == nil {
		t.Fatalf("missing domain_vdd_hist: %v", res)
	}
	if counts, _ := hist["counts"].([]any); len(counts) != fleet.HistBins {
		t.Fatalf("histogram has %d bins, want %d", len(counts), fleet.HistBins)
	}
	perChip, _ := res["per_chip"].([]any)
	if len(perChip) != 2 {
		t.Fatalf("per_chip has %d entries: %v", len(perChip), res)
	}

	resp, err := http.Get(ts.URL + "/v1/fleets/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("trace content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || sc.Text() != "seed,time,vdd_mean_v,vdd_min_v,err_rate,power_w" {
		t.Fatalf("trace header = %q", sc.Text())
	}
	rows := 0
	seeds := map[string]bool{}
	for sc.Scan() {
		rows++
		seeds[strings.SplitN(sc.Text(), ",", 2)[0]] = true
	}
	if rows == 0 || !seeds["11"] || !seeds["12"] {
		t.Fatalf("trace rows=%d seeds=%v", rows, seeds)
	}

	// The list endpoint sees the job too.
	code, list := getJSON(t, ts.URL+"/v1/fleets")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if fleets, _ := list["fleets"].([]any); len(fleets) != 1 {
		t.Fatalf("list has %d fleets: %v", len(fleets), list)
	}
}

// TestSubmitValidation covers the 400 paths and the 404 for unknown
// ids.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []string{
		`not json`,
		`{"seconds":1}`,             // no seeds
		`{"seeds":[1],"seconds":0}`, // no duration
		`{"seeds":[1],"seconds":1,"workload":"nope"}`, // unknown workload
		`{"chips":99999,"seconds":1}`,                 // over the chip cap
	}
	for _, body := range cases {
		if code, resp := postFleet(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d (%v), want 400", body, code, resp)
		}
	}
	if code, _ := getJSON(t, ts.URL+"/v1/fleets/f-99"); code != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d, want 404", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/fleets/f-99/results"); code != http.StatusNotFound {
		t.Errorf("unknown id results: HTTP %d, want 404", code)
	}
}

// TestSubmitFidelity: adaptive fidelity was removed, so a body that
// still asks for it is refused with a message saying so, never run at
// exact sampling instead; "full" (the only mode left) is accepted.
func TestSubmitFidelity(t *testing.T) {
	_, ts := newTestServer(t)
	code, m := postFleet(t, ts, `{"seeds":[1],"seconds":0.02,"fidelity":"adaptive"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("adaptive fidelity: HTTP %d (%v), want 400", code, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "adaptive") || !strings.Contains(msg, "removed") {
		t.Fatalf("adaptive fidelity error %q does not name the removed mode", msg)
	}
	code, st := postFleet(t, ts, `{"seeds":[1],"seconds":0.02,"fidelity":"full"}`)
	if code != http.StatusAccepted {
		t.Fatalf("full fidelity: HTTP %d (%v), want 202", code, st)
	}
	if fin := waitDone(t, ts, st["id"].(string)); fin["status"] != statusDone {
		t.Fatalf("full-fidelity fleet finished %v: %v", fin["status"], fin["error"])
	}
}

// TestResultsBeforeDone hits the results/trace endpoints of a job that
// cannot have started (the runner is saturated by a long job) and
// expects 409 Conflict.
func TestResultsBeforeDone(t *testing.T) {
	_, ts := newTestServer(t)
	// First job occupies the single runner; the second stays queued.
	code, first := postFleet(t, ts, `{"seeds":[21,22,23,24],"seconds":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", code)
	}
	code, second := postFleet(t, ts, `{"seeds":[31],"seconds":0.02}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}
	id := second["id"].(string)
	if code, resp := getJSON(t, ts.URL+"/v1/fleets/"+id+"/results"); code != http.StatusConflict {
		t.Errorf("queued results: HTTP %d (%v), want 409", code, resp)
	}
	if code, resp := getJSON(t, ts.URL+"/v1/fleets/"+id+"/trace"); code != http.StatusConflict {
		t.Errorf("queued trace: HTTP %d (%v), want 409", code, resp)
	}
	// Untraced finished jobs 404 on the trace endpoint.
	fid := first["id"].(string)
	waitDone(t, ts, fid)
	waitDone(t, ts, id)
	if code, resp := getJSON(t, ts.URL+"/v1/fleets/"+fid+"/trace"); code != http.StatusNotFound {
		t.Errorf("untraced trace: HTTP %d (%v), want 404", code, resp)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition after a job.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	_, sub := postFleet(t, ts, `{"seeds":[41],"seconds":0.02}`)
	waitDone(t, ts, sub["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"eccspecd_jobs_queued 0",
		"eccspecd_jobs_running 0",
		"eccspecd_jobs_submitted_total 1",
		"eccspecd_jobs_done_total 1",
		"eccspecd_jobs_failed_total 0",
		"eccspecd_chips_simulated_total 1",
		"# TYPE eccspecd_sim_ticks_total counter",
		"eccspecd_sim_ticks_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestGracefulDrain submits work, begins a drain, and checks that the
// accepted job still completes, that new submissions are refused with
// 503, and that the drained channel closes.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t)
	code, sub := postFleet(t, ts, `{"seeds":[51,52],"seconds":0.02}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["id"].(string)

	s.beginDrain()
	if code, resp := postFleet(t, ts, `{"seeds":[61],"seconds":0.02}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d (%v), want 503", code, resp)
	}
	if code, h := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK || h["status"] != "draining" {
		t.Fatalf("healthz while draining: %d %v", code, h)
	}

	select {
	case <-s.drained():
	case <-time.After(2 * time.Minute):
		t.Fatal("drain did not complete")
	}
	code, st := getJSON(t, ts.URL+"/v1/fleets/"+id)
	if code != http.StatusOK || st["status"] != statusDone {
		t.Fatalf("drained job state: %d %v", code, st)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/fleets/"+id+"/results"); code != http.StatusOK {
		t.Fatalf("results after drain: HTTP %d", code)
	}
}

// TestSignalShutdown runs the real daemon in a subprocess, submits a
// fleet, sends SIGTERM mid-run, and verifies the process drains the
// job and exits 0 — the end-to-end signal path main() wires up.
func TestSignalShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "ECCSPECD_MAIN=1")
	var stderr bytes.Buffer
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its bound address; find it.
	sc := bufio.NewScanner(io.TeeReader(stderrPipe, &stderr))
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address; stderr:\n%s", stderr.String())
	}
	// Capture the rest of stderr until the process exits (pipe EOF),
	// so the drain log is fully read before Wait closes the pipe.
	copyDone := make(chan struct{})
	go func() {
		io.Copy(&stderr, stderrPipe)
		close(copyDone)
	}()

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/fleets", "application/json",
		strings.NewReader(`{"seeds":[71,72],"seconds":0.02}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", resp.StatusCode, sub)
	}

	// SIGTERM while the job is (at latest) just finishing: the daemon
	// must drain it and exit cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		<-copyDone
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "drained") {
		t.Fatalf("daemon did not report draining; stderr:\n%s", out)
	}
}
