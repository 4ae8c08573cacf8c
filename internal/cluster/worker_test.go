package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eccspec/internal/fleet"
)

// TestRunMemberBeatsAtFifthOfTTL runs the worker's membership loop
// against a stub coordinator whose registration answer names a 400 ms
// TTL. The worker must register, heartbeat every 80 ms ± 1/8 (a fifth
// of the TTL), and register again when a heartbeat is answered 404.
func TestRunMemberBeatsAtFifthOfTTL(t *testing.T) {
	const ttl = 400 * time.Millisecond
	var (
		mu        sync.Mutex
		registers []RegisterRequest
		beats     []time.Time
		forget    bool // answer the next heartbeat 404
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		registers = append(registers, req)
		mu.Unlock()
		json.NewEncoder(w).Encode(RegisterResponse{TTLSeconds: ttl.Seconds()})
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if forget {
			forget = false
			http.Error(w, "unknown worker", http.StatusNotFound)
			return
		}
		beats = append(beats, time.Now())
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunMember(ctx, MemberConfig{
			Coordinator: ts.URL,
			Info:        RegisterRequest{ID: "w1", URL: "http://w1", Slots: 3},
			Logf:        func(string, ...any) {},
		})
	}()
	defer func() {
		cancel()
		<-done
	}()

	// waitFor polls the recorded traffic until cond holds.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			ok := cond()
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	const n = 11
	waitFor("11 heartbeats", func() bool { return len(beats) >= n })
	mu.Lock()
	if len(registers) != 1 || registers[0].ID != "w1" || registers[0].Slots != 3 {
		t.Errorf("registrations = %+v, want one for w1 with 3 slots", registers)
	}
	gaps := make([]time.Duration, n-1)
	for i := range gaps {
		gaps[i] = beats[i+1].Sub(beats[i])
	}
	mu.Unlock()
	// Every wait is at least 7/8 of the period; a loaded machine can only
	// stretch it, so the mean gets room above 9/8.
	period := ttl / 5
	sum, shortest := time.Duration(0), gaps[0]
	for _, g := range gaps {
		sum += g
		shortest = min(shortest, g)
	}
	if mean := sum / time.Duration(len(gaps)); mean < period*7/8 || mean > period*3/2 {
		t.Errorf("mean heartbeat gap %v over %d beats, want %v ± 1/8", mean, len(gaps), period)
	}
	if shortest < period*7/8 {
		t.Errorf("shortest heartbeat gap %v, below the jitter floor %v", shortest, period*7/8)
	}

	mu.Lock()
	forget = true
	mu.Unlock()
	waitFor("a re-registration after a 404", func() bool { return len(registers) == 2 })
	mu.Lock()
	after := len(beats)
	mu.Unlock()
	waitFor("a heartbeat after re-registering", func() bool { return len(beats) > after })
}

// TestCoordinatorReturnsOnLastResult runs several short jobs through a
// coordinator built with no timing options over one loopback worker.
// Run must return as soon as the last chip result is in, not at a
// later membership rescan.
func TestCoordinatorReturnsOnLastResult(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation test")
	}
	m := NewMembership(time.Minute)
	startWorker(t, m, "w1", 2)
	c := New(Config{Membership: m, Logf: func(string, ...any) {}})
	for i := uint64(0); i < 5; i++ {
		job := testJob(100+2*i, 101+2*i)
		var (
			mu   sync.Mutex
			last time.Time
		)
		job.OnResult = func(fleet.ChipResult) {
			mu.Lock()
			last = time.Now()
			mu.Unlock()
		}
		if _, err := c.Run(context.Background(), job, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		mu.Lock()
		wait := time.Since(last)
		mu.Unlock()
		if wait > 50*time.Millisecond {
			t.Errorf("job %d: Run returned %v after its last result, want well under 100ms", i, wait)
		}
	}
}
