package main

// Tests for the admission-control tier: priority-ordered bounded
// queueing with shed headers, per-client rate limiting, DELETE
// cancellation, pagination, and ETag/304 caching on completed results.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eccspec/internal/cluster"
	"eccspec/internal/fleet"
)

// stubRunner is a controllable runner: when gated, each Run blocks
// until release is signalled (or its context is canceled), and every
// started job's priority is recorded in order.
type stubRunner struct {
	gate chan struct{} // nil = complete immediately; else one receive per job

	mu      sync.Mutex
	started []int // priorities in pop order
}

func (r *stubRunner) Run(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error) {
	r.mu.Lock()
	r.started = append(r.started, job.Priority)
	r.mu.Unlock()
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			out := make([]fleet.ChipResult, len(job.Seeds))
			for i, seed := range job.Seeds {
				out[i] = fleet.ChipResult{Seed: seed, Err: ctx.Err()}
			}
			return out, ctx.Err()
		}
	}
	out := make([]fleet.ChipResult, len(job.Seeds))
	for i, seed := range job.Seeds {
		out[i] = fleet.ChipResult{
			Seed: seed, NominalV: 0.8, AvgReduction: 0.1,
			DomainVdd: []float64{0.72}, UncoreVdd: 0.8, AvgPowerW: 20, Ticks: 10,
		}
		if onProgress != nil {
			onProgress(i+1, len(job.Seeds))
		}
	}
	return out, nil
}

func (r *stubRunner) order() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.started...)
}

func newStubServer(t *testing.T, stub *stubRunner, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(stub, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// waitStatus polls until the job reaches the wanted state.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		_, st := getJSON(t, ts.URL+"/v1/fleets/"+id)
		if st["status"] == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
}

// TestPriorityOrderingAndShedHeaders fills the bounded queue behind a
// gated runner and checks that (a) an over-capacity submission is shed
// with 429 + Retry-After + queue-depth headers, and (b) queued jobs
// pop highest-priority first, FIFO within a class.
func TestPriorityOrderingAndShedHeaders(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	_, ts := newStubServer(t, stub, serverConfig{queueDepth: 3})

	submit := func(pri int) string {
		t.Helper()
		code, sub := postFleet(t, ts, fmt.Sprintf(`{"seeds":[%d],"seconds":0.01,"priority":%d}`, pri+100, pri))
		if code != http.StatusAccepted {
			t.Fatalf("submit pri %d: HTTP %d: %v", pri, code, sub)
		}
		return sub["id"].(string)
	}

	first := submit(1)
	waitStatus(t, ts, first, statusRunning) // occupies the runner
	submit(0)
	submit(5)
	lowB := submit(0) // queue now holds pri 0, 5, 0 (full at depth 3)

	resp, err := http.Post(ts.URL+"/v1/fleets", "application/json",
		strings.NewReader(`{"seeds":[9],"seconds":0.01,"priority":9}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
	for _, h := range []string{"Retry-After", "X-Queue-Depth", "X-Queue-Capacity"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("shed response missing %s header", h)
		}
	}
	if d := resp.Header.Get("X-Queue-Depth"); d != "3" {
		t.Errorf("X-Queue-Depth = %s, want 3", d)
	}
	if c := resp.Header.Get("X-Queue-Capacity"); c != "3" {
		t.Errorf("X-Queue-Capacity = %s, want 3", c)
	}

	// Release every job and verify pop order: running first, then the
	// high-priority job, then the two pri-0 jobs in submission order.
	close(stub.gate)
	waitStatus(t, ts, lowB, statusDone)
	got := stub.order()
	want := []int{1, 5, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("ran %d jobs (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run order %v, want %v", got, want)
		}
	}

	// The shed shows up in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, wantLine := range []string{"eccspecd_jobs_shed_total 1", "eccspecd_queue_capacity 3"} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}
}

// TestPriorityValidation rejects out-of-range priorities at submit.
func TestPriorityValidation(t *testing.T) {
	_, ts := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 4})
	for _, body := range []string{
		`{"seeds":[1],"seconds":1,"priority":10}`,
		`{"seeds":[1],"seconds":1,"priority":-1}`,
	} {
		if code, resp := postFleet(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: HTTP %d (%v), want 400", body, code, resp)
		}
	}
}

// TestRateLimiting exercises the per-client token bucket: a client
// that exhausts its burst gets 429 + Retry-After while a different
// API key sails through.
func TestRateLimiting(t *testing.T) {
	_, ts := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 4, rateLimit: 1, rateBurst: 2})

	get := func(key string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v1/fleets", nil)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := get("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	resp := get("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 missing Retry-After")
	}
	if resp := get("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: HTTP %d, want 200", resp.StatusCode)
	}
	// /healthz and /metrics stay outside the limit, and /healthz
	// advertises the limiter config.
	code, h := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	rl, _ := h["rate_limit"].(map[string]any)
	if rl == nil || rl["rate"] != float64(1) || rl["burst"] != float64(2) {
		t.Errorf("healthz rate_limit = %v", h["rate_limit"])
	}
}

// TestCancelQueuedJob is the regression test for queued-job
// cancellation: DELETE on a fleet still waiting in the queue removes
// it immediately — it transitions to canceled without ever starting.
func TestCancelQueuedJob(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	_, ts := newStubServer(t, stub, serverConfig{queueDepth: 4})

	code, sub := postFleet(t, ts, `{"seeds":[1],"seconds":0.01,"priority":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	first := sub["id"].(string)
	waitStatus(t, ts, first, statusRunning)
	code, sub = postFleet(t, ts, `{"seeds":[2],"seconds":0.01,"priority":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d", code)
	}
	queued := sub["id"].(string)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/fleets/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d, want 200", resp.StatusCode)
	}
	// Immediately canceled — no waiting for the runner.
	if _, st := getJSON(t, ts.URL+"/v1/fleets/"+queued); st["status"] != statusCanceled {
		t.Fatalf("canceled queued job is %v, want %s", st["status"], statusCanceled)
	}

	close(stub.gate)
	waitStatus(t, ts, first, statusDone)
	// Only the first job ever reached the runner.
	if got := stub.order(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("runner executed %v, want just the pri-1 job", got)
	}

	// Unknown id still 404s.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/fleets/f-999", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestCancelRunningJob aborts an in-flight job via DELETE and checks
// it lands in canceled, then deletes the record entirely.
func TestCancelRunningJob(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	_, ts := newStubServer(t, stub, serverConfig{queueDepth: 4})

	code, sub := postFleet(t, ts, `{"seeds":[1],"seconds":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["id"].(string)
	waitStatus(t, ts, id, statusRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/fleets/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: HTTP %d, want 202", resp.StatusCode)
	}
	waitStatus(t, ts, id, statusCanceled)

	// DELETE on the now-terminal job removes it.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/fleets/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete finished: HTTP %d, want 200", resp.StatusCode)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/fleets/"+id); code != http.StatusNotFound {
		t.Fatalf("deleted job still serves status: HTTP %d", code)
	}
}

// TestCancelCountsOnceAtEveryTiming DELETEs a job at each of the three
// moments a client can hit it: while it runs, while it waits in the
// queue, and after the runner has popped it but before it started.
// Every timing must end the same way: canceled by the client, counted
// once in jobs_canceled_total and once in jobs_failed_total, never in
// jobs_done_total, and never simulated.
func TestCancelCountsOnceAtEveryTiming(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	s, ts := newStubServer(t, stub, serverConfig{queueDepth: 4})

	submit := func(seed int) string {
		t.Helper()
		code, sub := postFleet(t, ts, fmt.Sprintf(`{"seeds":[%d],"seconds":0.01}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, sub)
		}
		return sub["id"].(string)
	}
	cancel := func(id string, wantCode int) {
		t.Helper()
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/fleets/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("DELETE %s: HTTP %d, want %d", id, resp.StatusCode, wantCode)
		}
	}
	expect := func(id string, started bool, done, failed, canceled float64) {
		t.Helper()
		waitStatus(t, ts, id, statusCanceled)
		_, st := getJSON(t, ts.URL+"/v1/fleets/"+id)
		if st["error"] != "canceled by client" {
			t.Errorf("%s error = %v, want \"canceled by client\"", id, st["error"])
		}
		if !started && st["elapsed_s"] != nil {
			t.Errorf("%s never started but reports elapsed_s %v", id, st["elapsed_s"])
		}
		page := []byte(metricsText(t, ts.URL))
		for name, want := range map[string]float64{
			"eccspecd_jobs_done_total":     done,
			"eccspecd_jobs_failed_total":   failed,
			"eccspecd_jobs_canceled_total": canceled,
		} {
			if got, _ := metricValue(t, page, name); got != want {
				t.Errorf("after canceling %s: %s = %v, want %v", id, name, got, want)
			}
		}
	}

	// Running: the DELETE cancels the simulation under way.
	running := submit(1)
	waitStatus(t, ts, running, statusRunning)
	cancel(running, http.StatusAccepted)
	expect(running, true, 0, 1, 1)

	// Queued behind a running job: the DELETE removes it from the queue.
	blocker := submit(2)
	waitStatus(t, ts, blocker, statusRunning)
	queued := submit(3)
	cancel(queued, http.StatusOK)
	expect(queued, false, 0, 2, 2)

	// Raced pop: the job has left the queue, exactly as the runner's Pop
	// takes it, so the DELETE finds it queued but cannot remove it; the
	// runner then starts the job it popped.
	racedID := submit(4)
	s.mu.Lock()
	raced := s.jobs[racedID]
	_, popped := s.queue.Remove(func(x *fleetJob) bool { return x == raced })
	s.mu.Unlock()
	if !popped {
		t.Fatalf("job %s was not in the queue", racedID)
	}
	cancel(racedID, http.StatusAccepted)
	s.runJob(raced)
	expect(racedID, false, 0, 3, 3)

	close(stub.gate)
	waitStatus(t, ts, blocker, statusDone)
	if got := stub.order(); len(got) != 2 {
		t.Fatalf("runner simulated %d jobs, want 2 (the running cancel and the blocker)", len(got))
	}
	if v, _ := metricValue(t, []byte(metricsText(t, ts.URL)), "eccspecd_jobs_done_total"); v != 1 {
		t.Errorf("eccspecd_jobs_done_total = %v after the blocker finished, want 1", v)
	}
}

// TestStatusAndUptimeUseInjectedClock runs a job on a fixed clock: a
// running job's elapsed_s is exactly now - started, and the uptime
// gauge is now - daemon start, with no wall-clock reads in between.
func TestStatusAndUptimeUseInjectedClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	_, ts := newStubServer(t, stub, serverConfig{queueDepth: 4, now: clk.now})

	code, sub := postFleet(t, ts, `{"seeds":[1],"seconds":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, sub)
	}
	id := sub["id"].(string)
	waitStatus(t, ts, id, statusRunning)
	clk.advance(90 * time.Second)

	if _, st := getJSON(t, ts.URL+"/v1/fleets/"+id); st["elapsed_s"] != 90.0 {
		t.Errorf("running elapsed_s = %v, want 90 (now - started on the injected clock)", st["elapsed_s"])
	}
	page := []byte(metricsText(t, ts.URL))
	if up, _ := metricValue(t, page, "eccspecd_uptime_seconds"); up != 90 {
		t.Errorf("eccspecd_uptime_seconds = %v, want 90", up)
	}
}

// TestResultsETag304SkipsEncoding proves the caching contract: a
// conditional GET on a completed fleet's results returns 304 with no
// body and, crucially, without re-serializing the response — counted
// by the daemon's encode counter.
func TestResultsETag304SkipsEncoding(t *testing.T) {
	s, ts := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 4})
	code, sub := postFleet(t, ts, `{"seeds":[1,2,3],"seconds":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["id"].(string)
	waitStatus(t, ts, id, statusDone)

	resp, err := http.Get(ts.URL + "/v1/fleets/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("results: HTTP %d, %d body bytes", resp.StatusCode, len(body))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("completed results carry no ETag")
	}
	encodes := s.metrics.resultEncodes.Load()
	if encodes == 0 {
		t.Fatal("encode counter did not move on the full response")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/fleets/"+id+"/results", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: HTTP %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := s.metrics.resultEncodes.Load(); got != encodes {
		t.Fatalf("304 re-serialized the results (encodes %d -> %d)", encodes, got)
	}
	if s.metrics.notModified.Load() == 0 {
		t.Fatal("304 counter did not move")
	}

	// A different representation (a page window) has a different tag,
	// so the stale full-body tag misses and the page is served.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/fleets/"+id+"/results?limit=1", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	pageTag := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paged conditional GET with full-body tag: HTTP %d, want 200", resp.StatusCode)
	}
	if pageTag == etag {
		t.Fatal("page window shares the full-body ETag")
	}

	// The daemon reissues the identical tag on a later GET — the tag is
	// stable, not per-response.
	resp, err = http.Get(ts.URL + "/v1/fleets/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("ETag drifted: %q then %q", etag, resp.Header.Get("ETag"))
	}
}

// TestTraceETag304 covers the conditional-GET path of the streamed
// trace endpoint, including the seed-filter variant tags.
func TestTraceETag304(t *testing.T) {
	_, ts := newTestServer(t) // real engine: the stub records no trace
	code, sub := postFleet(t, ts, `{"seeds":[5],"seconds":0.02,"trace_every":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["id"].(string)
	waitDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/v1/fleets/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("trace: HTTP %d, etag %q", resp.StatusCode, etag)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/fleets/"+id+"/trace", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional trace GET: HTTP %d with %d bytes, want bare 304", resp.StatusCode, len(body))
	}

	// The seed-filtered representation carries a different tag.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/fleets/"+id+"/trace?seed=5", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered trace with unfiltered tag: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestCoordinatorModeSharesQueue proves the admission queue guards the
// cluster path too: a coordinator daemon with no workers sheds
// over-capacity submissions with the same 429 + queue headers.
func TestCoordinatorModeSharesQueue(t *testing.T) {
	coord := cluster.New(cluster.Config{
		Membership: cluster.NewMembership(time.Second),
		WorkerWait: 30 * time.Second, // first job parks here, keeping the runner busy
	})
	s := newServer(coord, serverConfig{queueDepth: 1, coordinator: coord})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.cancelJobs() // unpark the no-worker wait so the runner exits
		ts.Close()
	})

	code, sub := postFleet(t, ts, `{"seeds":[1],"seconds":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d: %v", code, sub)
	}
	waitStatus(t, ts, sub["id"].(string), statusRunning)
	if code, _ = postFleet(t, ts, `{"seeds":[2],"seconds":0.01}`); code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/fleets", "application/json",
		strings.NewReader(`{"seeds":[3],"seconds":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("coordinator over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Queue-Capacity") != "1" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("coordinator shed headers: %v", resp.Header)
	}
}

// TestPagination drives limit/offset on the fleet listing and the
// per-chip results window.
func TestPagination(t *testing.T) {
	_, ts := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 8})
	var last string
	for i := 0; i < 3; i++ {
		code, sub := postFleet(t, ts, fmt.Sprintf(`{"seeds":[%d,%d,%d,%d,%d],"seconds":0.01}`,
			i*10+1, i*10+2, i*10+3, i*10+4, i*10+5))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		last = sub["id"].(string)
	}
	waitStatus(t, ts, last, statusDone)

	code, list := getJSON(t, ts.URL+"/v1/fleets?limit=2")
	if code != http.StatusOK {
		t.Fatalf("paged list: HTTP %d", code)
	}
	if fleets, _ := list["fleets"].([]any); len(fleets) != 2 {
		t.Fatalf("paged list returned %d fleets: %v", len(fleets), list)
	}
	if list["total"] != float64(3) || list["next_offset"] != float64(2) {
		t.Fatalf("paged list envelope: %v", list)
	}
	code, list = getJSON(t, ts.URL+"/v1/fleets?offset=2")
	if code != http.StatusOK {
		t.Fatalf("offset list: HTTP %d", code)
	}
	if fleets, _ := list["fleets"].([]any); len(fleets) != 1 {
		t.Fatalf("offset list returned %d fleets", len(fleets))
	}
	if _, hasNext := list["next_offset"]; hasNext {
		t.Fatalf("final page advertises next_offset: %v", list)
	}

	code, res := getJSON(t, ts.URL+"/v1/fleets/"+last+"/results?offset=1&limit=2")
	if code != http.StatusOK {
		t.Fatalf("paged results: HTTP %d", code)
	}
	chips, _ := res["per_chip"].([]any)
	if len(chips) != 2 {
		t.Fatalf("paged per_chip has %d entries: %v", len(chips), res)
	}
	if first, _ := chips[0].(map[string]any); first["seed"] != float64(22) {
		t.Fatalf("page starts at seed %v, want 22", first["seed"])
	}
	page, _ := res["page"].(map[string]any)
	if page == nil || page["next_offset"] != float64(3) {
		t.Fatalf("results page envelope: %v", res["page"])
	}
	// Aggregates describe the whole fleet regardless of the window.
	if res["chips"] != float64(5) {
		t.Fatalf("paged results chips = %v, want 5", res["chips"])
	}

	for _, q := range []string{"?limit=0", "?limit=x", "?offset=-1"} {
		if code, _ := getJSON(t, ts.URL+"/v1/fleets"+q); code != http.StatusBadRequest {
			t.Errorf("list%s: HTTP %d, want 400", q, code)
		}
		if code, _ := getJSON(t, ts.URL+"/v1/fleets/"+last+"/results"+q); code != http.StatusBadRequest {
			t.Errorf("results%s: HTTP %d, want 400", q, code)
		}
	}
}
