package cluster

// End-to-end coordinator tests against real Executor workers served
// over loopback HTTP. The recurring assertion is the subsystem's
// contract: a cluster run's merged results are byte-identical — in
// their full JSON wire form, traces included — to a single-node run of
// the same job, no matter how chips were sharded, stolen, or migrated
// mid-flight off a dying worker.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
	"eccspec/internal/store"
)

// testJob is small enough to simulate in well under a second per chip
// but long enough (vs its checkpoint interval) to stream several
// checkpoints per chip.
func testJob(seeds ...uint64) fleet.Job {
	return fleet.Job{
		Seeds:           seeds,
		Workload:        "jbb-8wh",
		Seconds:         0.02,
		TraceEvery:      7,
		CheckpointEvery: 8, // a 0.02s job runs ~20 control ticks: 2 ckpts/chip
	}
}

// wireChips renders results in the exact JSON wire form the daemon
// persists and serves; comparing these strings is the byte-identity
// check.
func wireChips(t *testing.T, results []fleet.ChipResult) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		b, err := json.Marshal(store.FromResult(r))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// singleNode runs the job on a local engine — the reference output.
func singleNode(t *testing.T, job fleet.Job) []string {
	t.Helper()
	res, err := fleet.New(fleet.Config{Workers: 2}).Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	return wireChips(t, res)
}

// startWorker serves a real Executor over loopback and registers it.
func startWorker(t *testing.T, m *Membership, id string, slots int) *httptest.Server {
	t.Helper()
	ex := &Executor{Engine: fleet.New(fleet.Config{Workers: slots})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExec, ex.HandleExec)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	m.Join(RegisterRequest{ID: id, URL: ts.URL, Slots: slots})
	return ts
}

func newTestCoordinator(m *Membership) *Coordinator {
	return New(Config{
		Membership: m,
		WorkerWait: 10 * time.Second,
		Logf:       func(string, ...any) {},
	})
}

// TestClusterMatchesSingleNode is the headline contract: two workers,
// merged output byte-identical to one node, hooks all firing.
func TestClusterMatchesSingleNode(t *testing.T) {
	job := testJob(11, 12, 13, 14, 15)
	want := singleNode(t, job)

	m := NewMembership(time.Minute)
	startWorker(t, m, "w1", 2)
	startWorker(t, m, "w2", 2)
	c := newTestCoordinator(m)

	var ckpts, results, progress atomic.Int64
	var assignMu sync.Mutex
	assigned := make(map[uint64]string)
	job.OnCheckpoint = func(seed uint64, ticks int, blob []byte) {
		ckpts.Add(1)
		// Streamed blobs are whole: each restores with its full
		// partial trace.
		if st, err := snapshot.Unmarshal(blob); err != nil {
			t.Errorf("seed %d checkpoint at tick %d: %v", seed, ticks, err)
		} else if rec, err := st.Trace.RestoreTrace(); err != nil || rec == nil || rec.Len() != ticks/job.TraceEvery {
			t.Errorf("seed %d checkpoint at tick %d does not restore its %d trace rows: %v", seed, ticks, ticks/job.TraceEvery, err)
		}
	}
	job.OnResult = func(fleet.ChipResult) { results.Add(1) }
	job.OnAssign = func(seed uint64, worker string) {
		assignMu.Lock()
		assigned[seed] = worker
		assignMu.Unlock()
	}
	res, err := c.Run(context.Background(), job, func(done, total int) { progress.Add(1) })
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := wireChips(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chip %d differs:\ncluster: %s\nsingle:  %s", i, got[i], want[i])
		}
	}

	if ckpts.Load() == 0 {
		t.Error("no checkpoints streamed back")
	}
	if results.Load() != int64(len(job.Seeds)) {
		t.Errorf("OnResult fired %d times, want %d", results.Load(), len(job.Seeds))
	}
	if progress.Load() != int64(len(job.Seeds)) {
		t.Errorf("progress fired %d times, want %d", progress.Load(), len(job.Seeds))
	}
	// OnAssign fires from the dispatch path before Run returns, so the
	// map is stable to read here.
	if len(assigned) != len(job.Seeds) {
		t.Errorf("OnAssign covered %d seeds, want %d", len(assigned), len(job.Seeds))
	}
	st := c.Stats()
	if st.ChipsDone != int64(len(job.Seeds)) || st.Dispatches == 0 || st.RemoteTicks == 0 {
		t.Errorf("stats = %+v", st)
	}
	if m.Snapshot()[0].ChipsDone+m.Snapshot()[1].ChipsDone != int64(len(job.Seeds)) {
		t.Errorf("membership chip credit does not sum to fleet size")
	}
}

// TestClusterPropertyRandomized fuzzes the topology: random worker
// counts, slot counts (and with them batch sizes), and seed sets must
// all merge to the single-node bytes. Fixed rand seed keeps failures
// reproducible.
func TestClusterPropertyRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 3; round++ {
		// Unique by construction: 53-wide strides dominate the <50 jitter.
		seeds := make([]uint64, 1+rng.Intn(6))
		for i := range seeds {
			seeds[i] = uint64(1000*round+53*i) + uint64(rng.Intn(50))
		}
		job := testJob(seeds...)
		job.TraceEvery = rng.Intn(10) // 0 = no trace
		want := singleNode(t, job)

		m := NewMembership(time.Minute)
		workers := 1 + rng.Intn(3)
		for w := 0; w < workers; w++ {
			startWorker(t, m, fmt.Sprintf("r%d-w%d", round, w), 1+rng.Intn(3))
		}
		res, err := newTestCoordinator(m).Run(context.Background(), job, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := wireChips(t, res)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (%d workers): chip %d differs:\ncluster: %s\nsingle:  %s",
					round, workers, i, got[i], want[i])
			}
		}
	}
}

// severingProxy fronts a worker and cuts the exec response stream
// right after relaying the first checkpoint event — the wire signature
// of a worker crashing mid-batch with work checkpointed but unfinished.
// Only the first exec is severed; the test keeps the real worker URL
// out of the membership so every dispatch flows through the proxy.
func severingProxy(t *testing.T, workerURL string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var severed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel() // abandoning the relay aborts the worker's run
		req, err := http.NewRequestWithContext(ctx, r.Method, workerURL+r.URL.Path, r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		flusher := w.(http.Flusher)
		sever := severed.Load() == 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // checkpoint lines are big
		for sc.Scan() {
			line := sc.Bytes()
			w.Write(line)
			w.Write([]byte("\n"))
			flusher.Flush()
			if sever && bytes.Contains(line, []byte(`"type":"ckpt"`)) {
				severed.Add(1)
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &severed
}

// TestWorkerDeathMigratesChips kills a worker's exec stream mid-batch
// (after a checkpoint went over the wire) and checks the survivor
// finishes the job with byte-identical results — checkpoint migration
// plus the first-completion-wins merge in one scenario. The quarantine
// threshold is 1 with an hour-long probe delay, so the broken stream
// trips the circuit breaker immediately and the doomed worker stays
// benched for the rest of the run.
func TestWorkerDeathMigratesChips(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	job := testJob(21, 22, 23, 24)
	job.CheckpointEvery = 10 // checkpoint early so the sever hits mid-chip
	want := singleNode(t, job)

	m := NewMembership(time.Minute)
	m.SetQuarantinePolicy(1, time.Hour)
	// Doomed worker: a real executor, reached only through the proxy.
	ex := &Executor{Engine: fleet.New(fleet.Config{Workers: 2})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExec, ex.HandleExec)
	real := httptest.NewServer(mux)
	t.Cleanup(real.Close)
	proxy, severed := severingProxy(t, real.URL)
	m.Join(RegisterRequest{ID: "doomed", URL: proxy.URL, Slots: 2})
	startWorker(t, m, "survivor", 2)

	c := newTestCoordinator(m)
	res, err := c.Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := wireChips(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chip %d differs after migration:\ncluster: %s\nsingle:  %s", i, got[i], want[i])
		}
	}
	if severed.Load() == 0 {
		t.Fatal("proxy never severed a stream; the scenario did not exercise migration")
	}
	if st := c.Stats(); st.ChipsMigrated == 0 {
		t.Errorf("no chips migrated: %+v", st)
	}
	for _, w := range m.Snapshot() {
		if w.ID == "doomed" && w.State != StateQuarantined {
			t.Errorf("doomed worker is %s, want quarantined", w.State)
		}
	}
	if m.Quarantines() != 1 {
		t.Errorf("quarantine counter = %d, want 1", m.Quarantines())
	}
}

// TestDegradedWorkerMigration flips a worker to degraded mid-run; the
// monitor must cancel its agent, re-queue its chips, and the healthy
// peer must still produce byte-identical output.
func TestDegradedWorkerMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	job := testJob(31, 32, 33, 34, 35, 36)
	want := singleNode(t, job)

	m := NewMembership(time.Minute)
	startWorker(t, m, "wobbly", 1)
	startWorker(t, m, "steady", 2)
	c := newTestCoordinator(m)

	done := make(chan struct{})
	go func() {
		// Degrade shortly after dispatch begins; whether its first batch
		// was still in flight decides migration vs plain re-queue, and
		// both must merge identically.
		time.Sleep(30 * time.Millisecond)
		m.Heartbeat(HeartbeatRequest{ID: "wobbly", Degraded: true, Reason: "journal trouble"})
		close(done)
	}()
	res, err := c.Run(context.Background(), job, nil)
	<-done
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := wireChips(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chip %d differs after degrade:\ncluster: %s\nsingle:  %s", i, got[i], want[i])
		}
	}
}

// TestNoWorkersFailsFast: a coordinator with an empty membership must
// give up after WorkerWait with every chip carrying the error.
func TestNoWorkersFailsFast(t *testing.T) {
	c := New(Config{
		Membership: NewMembership(time.Minute),
		WorkerWait: 50 * time.Millisecond,
		Logf:       func(string, ...any) {},
	})
	res, err := c.Run(context.Background(), testJob(1, 2), nil)
	if err == nil || !strings.Contains(err.Error(), "no healthy workers") {
		t.Fatalf("err = %v, want no-healthy-workers", err)
	}
	if len(res) != 2 || res[0].Err == nil || res[1].Err == nil {
		t.Fatalf("chips should carry the error: %+v", res)
	}
}

// TestRejectedTaskFailsChips: a worker that answers 400 (deterministic
// rejection) must fail exactly the dispatched chips — no requeue loop,
// no worker death.
func TestRejectedTaskFailsChips(t *testing.T) {
	m := NewMembership(time.Minute)
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, `{"error":"synthetic rejection"}`, http.StatusBadRequest)
	}))
	t.Cleanup(reject.Close)
	m.Join(RegisterRequest{ID: "rejector", URL: reject.URL, Slots: 4})

	c := newTestCoordinator(m)
	res, err := c.Run(context.Background(), testJob(41, 42, 43), nil)
	if err != nil {
		t.Fatalf("run should succeed with per-chip errors, got: %v", err)
	}
	for _, r := range res {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "rejected task") {
			t.Fatalf("chip %d: err = %v, want rejection", r.Seed, r.Err)
		}
	}
	if counts := m.Counts(); counts.Healthy != 1 || counts.Dead != 0 || counts.Quarantined != 0 {
		t.Errorf("rejecting worker should stay healthy: %+v", counts)
	}
}

// TestExecRejectsGarbage: the worker endpoint 400s undecodable and
// invalid tasks instead of opening a stream.
func TestExecRejectsGarbage(t *testing.T) {
	ex := &Executor{Engine: fleet.New(fleet.Config{Workers: 1})}
	ts := httptest.NewServer(http.HandlerFunc(ex.HandleExec))
	t.Cleanup(ts.Close)

	for name, body := range map[string]string{
		"not json":    "{",
		"invalid job": `{"spec":{"seeds":[],"seconds":1}}`,
		"bad seconds": `{"spec":{"seeds":[1],"seconds":-1}}`,
	} {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}
