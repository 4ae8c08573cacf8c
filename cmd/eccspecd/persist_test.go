package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
	"eccspec/internal/store"
)

// daemon is one subprocess instance of eccspecd started through the
// re-exec trick in TestMain.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches the test binary as eccspecd with extra flags
// and waits for its listen address.
func startDaemon(t *testing.T, extraArgs string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "ECCSPECD_MAIN=1", "ECCSPECD_ARGS="+extraArgs)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, addr: addr}
	case <-time.After(time.Minute):
		t.Fatal("daemon never reported its address")
		return nil
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// sigkill kills the daemon outright — no drain, no flush beyond what
// the journal already pushed to the kernel.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func (d *daemon) post(t *testing.T, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(d.url(path), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitStatus polls a fleet until it reaches a terminal state.
func (d *daemon) waitStatus(t *testing.T, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body := d.get(t, "/v1/fleets/"+id)
		if code == http.StatusOK {
			var st map[string]any
			json.Unmarshal(body, &st)
			switch st["status"] {
			case statusDone, statusFailed, statusCanceled:
				return st
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("fleet %s did not finish", id)
	return nil
}

const persistFleetBody = `{"seeds":[81,82,83],"workload":"jbb-8wh","seconds":0.06,"trace_every":10}`

// TestKillRestartByteIdenticalResults is the subsystem's acceptance
// test: a daemon SIGKILLed mid-fleet and restarted on the same data
// directory must finish the fleet from its checkpoints and serve final
// per-chip results byte-identical to a never-interrupted daemon's. It
// also proves completed results survive a kill: the baseline daemon is
// killed after finishing and must serve its recorded results on
// restart.
func TestKillRestartByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}

	// --- Baseline: uninterrupted run, then kill-after-done. ---
	dirA := t.TempDir()
	d1 := startDaemon(t, "-data-dir "+dirA+" -checkpoint-interval 20")
	code, sub := d1.post(t, "/v1/fleets", persistFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: HTTP %d: %v", code, sub)
	}
	id := sub["id"].(string)
	if st := d1.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("baseline finished as %v", st["status"])
	}
	code, baseline := d1.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("baseline results: HTTP %d", code)
	}
	code, baselineTrace := d1.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("baseline trace: HTTP %d", code)
	}
	d1.sigkill(t)

	// Restart on the same directory: the finished fleet must be served
	// from the journal without re-simulation, byte-identically.
	d2 := startDaemon(t, "-data-dir "+dirA)
	code, body := d2.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results after restart: HTTP %d: %s", code, body)
	}
	if string(body) != string(baseline) {
		t.Fatalf("recovered results differ from original:\noriginal:\n%s\nrecovered:\n%s", baseline, body)
	}
	code, traceBody := d2.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK || string(traceBody) != string(baselineTrace) {
		t.Fatalf("recovered trace differs (HTTP %d)", code)
	}
	d2.sigkill(t)

	// --- Interrupted run: SIGKILL mid-fleet, restart, resume. ---
	dirB := t.TempDir()
	d3 := startDaemon(t, "-data-dir "+dirB+" -checkpoint-interval 20")
	code, sub = d3.post(t, "/v1/fleets", persistFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("interrupted submit: HTTP %d: %v", code, sub)
	}
	if iid := sub["id"].(string); iid != id {
		t.Fatalf("interrupted run got id %s, baseline %s", iid, id)
	}

	// Kill as soon as the journal holds at least one checkpoint, so the
	// restart genuinely resumes mid-chip. If the fleet finishes first
	// the test still passes but exercises only the completed path, so
	// fail loudly instead.
	journal := filepath.Join(dirB, store.JournalName)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared in the journal")
		}
		data, err := os.ReadFile(journal)
		if err == nil && strings.Contains(string(data), `"t":"ckpt"`) {
			if strings.Contains(string(data), `"t":"done"`) {
				t.Fatal("fleet finished before the kill; lower seconds or the checkpoint interval")
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	d3.sigkill(t)

	d4 := startDaemon(t, "-data-dir "+dirB+" -checkpoint-interval 20")
	if st := d4.waitStatus(t, id); st["status"] != statusDone {
		t.Fatalf("resumed fleet finished as %v", st["status"])
	}
	code, resumed := d4.get(t, "/v1/fleets/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("resumed results: HTTP %d", code)
	}
	if string(resumed) != string(baseline) {
		t.Fatalf("resumed results differ from uninterrupted run:\nuninterrupted:\n%s\nresumed:\n%s", baseline, resumed)
	}
	code, resumedTrace := d4.get(t, "/v1/fleets/"+id+"/trace")
	if code != http.StatusOK || string(resumedTrace) != string(baselineTrace) {
		t.Fatalf("resumed trace differs (HTTP %d):\nuninterrupted:\n%s\nresumed:\n%s", code, baselineTrace, resumedTrace)
	}
}

// fakeClock is a mutable test clock safe for concurrent reads.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestCompletedJobEviction exercises the memory bound: the max-jobs
// cap evicts the oldest completed fleets, and the retention TTL evicts
// once the (injected) clock passes it. Running/queued jobs are immune.
func TestCompletedJobEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := newServer(fleet.New(fleet.Config{Workers: 2}), serverConfig{
		queueDepth: 8,
		store:      st,
		retention:  time.Hour,
		maxJobs:    2,
		now:        clk.now,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	submit := func(seed int) string {
		t.Helper()
		code, sub := postFleet(t, ts, fmt.Sprintf(`{"seeds":[%d],"seconds":0.01}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, sub)
		}
		id := sub["id"].(string)
		waitDone(t, ts, id)
		return id
	}

	// Four quick fleets; the cap of 2 must leave only the newest two.
	ids := []string{submit(201), submit(202), submit(203), submit(204)}
	code, list := getJSON(t, ts.URL+"/v1/fleets")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	fleets, _ := list["fleets"].([]any)
	if len(fleets) != 2 {
		t.Fatalf("retained %d fleets, want 2 (cap): %v", len(fleets), list)
	}
	for _, id := range ids[:2] {
		if code, _ := getJSON(t, ts.URL+"/v1/fleets/"+id); code != http.StatusNotFound {
			t.Errorf("evicted fleet %s still served (HTTP %d)", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := getJSON(t, ts.URL+"/v1/fleets/"+id+"/results"); code != http.StatusOK {
			t.Errorf("retained fleet %s not served (HTTP %d)", id, code)
		}
	}
	// The store agrees with the job table.
	if got := len(st.Jobs()); got != 2 {
		t.Fatalf("store retains %d jobs, want 2", got)
	}

	// Advance past the TTL; the next completion sweeps the rest.
	clk.advance(2 * time.Hour)
	last := submit(205)
	code, list = getJSON(t, ts.URL+"/v1/fleets")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	fleets, _ = list["fleets"].([]any)
	if len(fleets) != 1 {
		t.Fatalf("retained %d fleets after TTL, want 1: %v", len(fleets), list)
	}
	if first, _ := fleets[0].(map[string]any); first["id"] != last {
		t.Fatalf("survivor is %v, want %s", first["id"], last)
	}

	// The eviction counter made it to the metrics page.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "eccspecd_jobs_evicted_total 4") {
		t.Fatalf("metrics missing eviction count:\n%s", body)
	}
}

// TestHealthzVersion checks the daemon reports its version and
// persistence mode.
func TestHealthzVersion(t *testing.T) {
	_, ts := newTestServer(t)
	code, h := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if v, _ := h["version"].(string); v == "" {
		t.Fatalf("healthz has no version: %v", h)
	}
	if p, ok := h["persistent"].(bool); !ok || p {
		t.Fatalf("persistent = %v, want false without a store", h["persistent"])
	}
}

// runnerFunc adapts a function to the runner interface.
type runnerFunc func(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error)

func (f runnerFunc) Run(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error) {
	return f(ctx, job, onProgress)
}

// TestRecoveredResultsMerge replays a journal holding a completed and
// an unfinished job, each with one readable chip record, one unreadable
// record and one missing seed. The completed job serves the record and
// names what is wrong with the other two seeds. The unfinished job keeps
// its readable chip, re-runs the unreadable and the missing seed (the
// second from its checkpoint), and reports a seed the run returned no
// result for as not simulated. While it waits in the queue, it counts
// only its readable chip as done. A higher-priority unfinished job holds
// the runner until that count has been read.
func TestRecoveredResultsMerge(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	good := func(seed uint64) store.ChipRecord {
		return store.ChipRecord{Seed: seed, NominalV: 0.8, AvgReduction: 0.2, DomainVdd: []float64{0.7}, Ticks: 7}
	}
	unreadable := func(seed uint64) store.ChipRecord {
		return store.ChipRecord{Seed: seed, Trace: &snapshot.TraceState{}}
	}
	spec := func(seeds ...uint64) fleet.Job { return fleet.Job{Seeds: seeds, Seconds: 0.01} }
	for _, err := range []error{
		st.AddJob(1, spec(10, 11, 12)),
		st.RecordChip(1, good(10)),
		st.RecordChip(1, unreadable(11)),
		st.MarkJobDone(1, 1_700_000_000),
		st.AddJob(2, spec(20, 21, 22, 23)),
		st.RecordChip(2, good(20)),
		st.RecordChip(2, unreadable(21)),
		st.RecordCheckpoint(2, 22, 5, []byte("ckpt-22")),
		st.AddJob(3, fleet.Job{Seeds: []uint64{30}, Seconds: 0.01, Priority: fleet.MaxPriority}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	ran := make(chan fleet.Job, 1)
	release := make(chan struct{})
	run := runnerFunc(func(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error) {
		if job.Priority == fleet.MaxPriority {
			<-release
			return nil, nil
		}
		ran <- job
		var out []fleet.ChipResult
		for _, seed := range job.Seeds {
			if seed != 23 {
				out = append(out, fleet.ChipResult{Seed: seed, NominalV: 0.8, AvgReduction: 0.1, DomainVdd: []float64{0.72}, Ticks: 10})
			}
		}
		return out, nil
	})
	s := newServer(run, serverConfig{queueDepth: 4, store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	perChip := func(id string) []string {
		t.Helper()
		code, res := getJSON(t, ts.URL+"/v1/fleets/"+id+"/results")
		if code != http.StatusOK {
			t.Fatalf("%s results: HTTP %d: %v", id, code, res)
		}
		var out []string
		for _, c := range res["per_chip"].([]any) {
			c := c.(map[string]any)
			out = append(out, fmt.Sprintf("%v ticks=%v err=%v", c["seed"], c["ticks"], c["error"]))
		}
		return out
	}
	check := func(id string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s per-chip results:\n got  %q\n want %q", id, got, want)
		}
	}

	check("f-1", perChip("f-1"), []string{
		"10 ticks=7 err=<nil>",
		"11 ticks=0 err=stored result unreadable: snapshot: trace state has no columns",
		"12 ticks=0 err=result missing from store",
	})

	code, status := getJSON(t, ts.URL+"/v1/fleets/f-2")
	if code != http.StatusOK || status["status"] != statusQueued || status["chips_done"] != 1.0 {
		t.Errorf("f-2 before it runs: HTTP %d, status %v, chips_done %v; want queued with 1 chip done",
			code, status["status"], status["chips_done"])
	}
	close(release)

	job := <-ran
	if got := fmt.Sprint(job.Seeds); got != "[21 22 23]" {
		t.Errorf("resumed run simulated seeds %s, want [21 22 23]", got)
	}
	if len(job.Resume) != 1 || string(job.Resume[22]) != "ckpt-22" {
		t.Errorf("resumed run got checkpoints %v, want seed 22's only", job.Resume)
	}
	waitStatus(t, ts, "f-2", statusDone)
	check("f-2", perChip("f-2"), []string{
		"20 ticks=7 err=<nil>",
		"21 ticks=10 err=<nil>",
		"22 ticks=10 err=<nil>",
		"23 ticks=0 err=chip was not simulated",
	})
}
