package cluster

// Network-plane chaos against an in-process coordinator + real Executor
// workers: every injected scenario — partition windows, slow links,
// torn and duplicated exec streams, quarantine-and-recover, a wedged
// stream caught by the watchdog — must end with merged results
// byte-identical to a single-node run, and the injector's event log
// must reproduce exactly when the same plan + seed runs again.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"eccspec/internal/faultinject"
	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// chaosCoordinator builds a coordinator whose dispatch client rides the
// plan's injected transport, with test-sized retry knobs.
func chaosCoordinator(t *testing.T, m *Membership, in *faultinject.Injector, stall time.Duration) *Coordinator {
	t.Helper()
	if stall <= 0 {
		stall = 5 * time.Second
	}
	return New(Config{
		Membership:   m,
		WorkerWait:   10 * time.Second,
		StallTimeout: stall,
		Retry: store.RetryPolicy{
			BaseDelay:  2 * time.Millisecond,
			MaxDelay:   20 * time.Millisecond,
			JitterSeed: in.Seed(),
		},
		Transport: in.Transport(NewTransport()),
		Logf:      func(string, ...any) {},
	})
}

// TestClusterChaosScenarios drives the cataloged client-side network
// faults. Each scenario runs twice: both runs must be byte-identical
// to the single-node reference, and their injected-event logs must
// match each other — the replayability contract on the network plane.
func TestClusterChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	scenarios := []struct {
		name string
		plan faultinject.Plan
		// check runs extra assertions against the first run's state.
		check func(t *testing.T, c *Coordinator, m *Membership)
	}{
		{
			name: "exec partition window",
			plan: faultinject.Plan{Seed: 7, Faults: []faultinject.Fault{
				{Kind: faultinject.NetPartition, Target: "exec", Start: 0, Duration: 2},
			}},
			check: func(t *testing.T, c *Coordinator, m *Membership) {
				if st := c.Stats(); st.Retries == 0 {
					t.Errorf("partition window rode out without retries: %+v", st)
				}
			},
		},
		{
			name: "slow link",
			plan: faultinject.Plan{Seed: 8, Faults: []faultinject.Fault{
				{Kind: faultinject.NetSlow, Target: "exec", Start: 0, Duration: 3, DelayMs: 10},
			}},
		},
		{
			name: "mid-stream reset",
			plan: faultinject.Plan{Seed: 9, Faults: []faultinject.Fault{
				{Kind: faultinject.NetResetStream, Target: "exec", Start: 0, Duration: 1, Line: 2},
			}},
			check: func(t *testing.T, c *Coordinator, m *Membership) {
				if st := c.Stats(); st.Retries == 0 && st.ChipsMigrated == 0 {
					t.Errorf("reset stream left no trace in stats: %+v", st)
				}
			},
		},
		{
			name: "truncated tail",
			plan: faultinject.Plan{Seed: 10, Faults: []faultinject.Fault{
				{Kind: faultinject.NetTruncateStream, Target: "exec", Start: 0, Duration: 1, Line: 1},
			}},
			check: func(t *testing.T, c *Coordinator, m *Membership) {
				if st := c.Stats(); st.Retries == 0 && st.ChipsMigrated == 0 {
					t.Errorf("truncated stream left no trace in stats: %+v", st)
				}
			},
		},
		{
			name: "duplicated events",
			plan: faultinject.Plan{Seed: 11, Faults: []faultinject.Fault{
				{Kind: faultinject.NetDupEvents, Target: "exec", Start: 0, Duration: 1},
			}},
			check: func(t *testing.T, c *Coordinator, m *Membership) {
				if st := c.Stats(); st.DupEvents == 0 {
					t.Errorf("duplicated stream produced no dedupe drops: %+v", st)
				}
			},
		},
	}

	job := testJob(61, 62, 63, 64, 65, 66)
	want := singleNode(t, job)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var logs [][]faultinject.Event
			for run := 0; run < 2; run++ {
				m := NewMembership(time.Minute)
				startWorker(t, m, "w1", 2)
				startWorker(t, m, "w2", 2)
				in, err := faultinject.New(sc.plan)
				if err != nil {
					t.Fatal(err)
				}
				c := chaosCoordinator(t, m, in, 0)
				res, err := c.Run(context.Background(), job, nil)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				got := wireChips(t, res)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("run %d chip %d differs under %s:\ncluster: %s\nsingle:  %s",
							run, i, sc.name, got[i], want[i])
					}
				}
				if run == 0 && sc.check != nil {
					sc.check(t, c, m)
				}
				logs = append(logs, in.Events())
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("injected-event logs diverged across identical runs:\n%+v\n%+v", logs[0], logs[1])
			}
			if len(logs[0]) == 0 {
				t.Fatal("scenario injected nothing; it proves nothing")
			}
		})
	}
}

// TestClusterChaosQuarantineRecover partitions the only worker's first
// dispatch with a threshold-1 breaker: the worker must quarantine, the
// half-open probe must revive it once the window passes, and the run
// must still match single-node bytes.
func TestClusterChaosQuarantineRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	job := testJob(71, 72, 73, 74, 75, 76, 77, 78)
	want := singleNode(t, job)

	m := NewMembership(time.Minute)
	m.SetQuarantinePolicy(1, 30*time.Millisecond)
	startWorker(t, m, "only", 2)
	in, err := faultinject.New(faultinject.Plan{Seed: 5, Faults: []faultinject.Fault{
		{Kind: faultinject.NetPartition, Target: "exec", Start: 0, Duration: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := chaosCoordinator(t, m, in, 0)
	res, err := c.Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := wireChips(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chip %d differs after quarantine round-trip:\ncluster: %s\nsingle:  %s", i, got[i], want[i])
		}
	}
	if m.Quarantines() != 1 {
		t.Errorf("quarantine transitions = %d, want 1", m.Quarantines())
	}
	if s := m.Snapshot(); s[0].State != StateHealthy || s[0].ConsecFails != 0 {
		t.Errorf("worker not revived by its trial dispatch: %+v", s[0])
	}
	if evs := in.Events(); len(evs) != 1 || evs[0].Tick != 0 {
		t.Errorf("event log = %+v, want one apply at exec attempt 0", evs)
	}
}

// TestClusterChaosStallWatchdog registers a worker whose exec stream
// accepts the batch and then goes silent forever — the black-holed-
// but-connected failure mode no decoder error will ever surface. The
// watchdog must cut it, quarantine the worker, and let the real worker
// finish byte-identically.
func TestClusterChaosStallWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	job := testJob(81, 82, 83, 84, 85, 86)
	want := singleNode(t, job)

	m := NewMembership(time.Minute)
	m.SetQuarantinePolicy(1, time.Hour)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	m.Join(RegisterRequest{ID: "hung", URL: hung.URL, Slots: 2})

	// The real worker keeps its streams chatty (fast keepalives) so the
	// tight stall timeout only ever fires on the hung one.
	ex := &Executor{Engine: fleet.New(fleet.Config{Workers: 2}), KeepAlive: 25 * time.Millisecond}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExec, ex.HandleExec)
	real := httptest.NewServer(mux)
	t.Cleanup(real.Close)
	m.Join(RegisterRequest{ID: "real", URL: real.URL, Slots: 2})

	in, err := faultinject.New(faultinject.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	c := chaosCoordinator(t, m, in, 500*time.Millisecond)
	res, err := c.Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := wireChips(t, res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chip %d differs after stalled stream:\ncluster: %s\nsingle:  %s", i, got[i], want[i])
		}
	}
	if st := c.Stats(); st.StreamsStalled == 0 {
		t.Errorf("watchdog never fired: %+v", st)
	}
	for _, w := range m.Snapshot() {
		if w.ID == "hung" && w.State != StateQuarantined {
			t.Errorf("hung worker is %s, want quarantined", w.State)
		}
	}
}
