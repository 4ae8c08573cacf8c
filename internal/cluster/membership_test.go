package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestMembershipLifecycle walks one worker through the full state
// machine on a fake clock: join, heartbeat, degrade, recover, TTL
// expiry, and revival by a late heartbeat.
func TestMembershipLifecycle(t *testing.T) {
	m := NewMembership(10 * time.Second)
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	m.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	if !m.Join(RegisterRequest{ID: "w1", URL: "http://a", Slots: 4}) {
		t.Fatal("first join should report new")
	}
	if m.Join(RegisterRequest{ID: "w1", URL: "http://a2", Slots: 8}) {
		t.Fatal("re-join of an existing ID should not report new")
	}
	if h := m.Healthy(); len(h) != 1 || h[0].URL != "http://a2" || h[0].Slots != 8 {
		t.Fatalf("re-join did not update the record: %+v", h)
	}

	if m.Heartbeat(HeartbeatRequest{ID: "ghost"}) {
		t.Fatal("heartbeat from an unknown ID should be rejected")
	}

	// A degraded report keeps the member but removes it from the
	// healthy set.
	advance(time.Second)
	if !m.Heartbeat(HeartbeatRequest{ID: "w1", Degraded: true, Reason: "journal trouble"}) {
		t.Fatal("degraded heartbeat should be accepted")
	}
	if len(m.Healthy()) != 0 {
		t.Fatal("degraded worker counted healthy")
	}
	if c := m.Counts(); c.Healthy != 0 || c.Degraded != 1 || c.Dead != 0 {
		t.Fatalf("counts = %+v, want 0 healthy / 1 degraded / 0 dead", c)
	}

	// A healthy heartbeat recovers it.
	advance(time.Second)
	m.Heartbeat(HeartbeatRequest{ID: "w1"})
	if len(m.Healthy()) != 1 {
		t.Fatal("recovered worker not healthy")
	}

	// Silence past the TTL kills it...
	advance(11 * time.Second)
	if c := m.Counts(); c.Healthy != 0 || c.Degraded != 0 || c.Dead != 1 {
		t.Fatalf("counts after TTL = %+v, want 0/0/1", c)
	}
	if s := m.Snapshot(); s[0].Reason != "heartbeat TTL expired" {
		t.Fatalf("dead reason = %q", s[0].Reason)
	}
	// ...and a late heartbeat proves the process alive again.
	if !m.Heartbeat(HeartbeatRequest{ID: "w1"}) {
		t.Fatal("late heartbeat should still be known")
	}
	if len(m.Healthy()) != 1 {
		t.Fatal("late heartbeat did not revive the worker")
	}

	// Silence of exactly the TTL is enough to kill it.
	advance(10 * time.Second)
	if c := m.Counts(); c.Healthy != 0 || c.Dead != 1 {
		t.Fatal("a worker silent for the TTL is not dead")
	}
	// Re-registration revives a dead worker too.
	m.Join(RegisterRequest{ID: "w1", URL: "http://a3", Slots: 2})
	if len(m.Healthy()) != 1 {
		t.Fatal("re-registration did not revive the worker")
	}

	m.AddChipsDone("w1", 7)
	if s := m.Snapshot(); s[0].ChipsDone != 7 {
		t.Fatalf("ChipsDone = %d, want 7", s[0].ChipsDone)
	}
}

// TestQuarantineStateMachine walks the dispatch circuit breaker on a
// fake clock: consecutive failures trip it, heartbeats and re-joins do
// not clear it, a failed half-open trial doubles the probe delay, and
// only a successful dispatch revives the worker.
func TestQuarantineStateMachine(t *testing.T) {
	m := NewMembership(time.Minute)
	m.SetQuarantinePolicy(3, 4*time.Second)
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	m.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	m.Join(RegisterRequest{ID: "w1", URL: "http://a", Slots: 2})

	// Two failures: still healthy, counter visible.
	for i := 0; i < 2; i++ {
		if m.RecordExecFailure("w1", "boom") {
			t.Fatalf("failure %d tripped the breaker early", i+1)
		}
	}
	if s := m.Snapshot(); s[0].State != StateHealthy || s[0].ConsecFails != 2 {
		t.Fatalf("after 2 failures: %+v", s[0])
	}
	// A success resets the counter entirely.
	m.RecordExecSuccess("w1")
	if s := m.Snapshot(); s[0].ConsecFails != 0 {
		t.Fatalf("success did not reset fails: %+v", s[0])
	}

	// Three straight failures trip quarantine with ProbeAt one delay out.
	for i := 0; i < 2; i++ {
		m.RecordExecFailure("w1", "boom")
	}
	if !m.RecordExecFailure("w1", "boom") {
		t.Fatal("third consecutive failure did not quarantine")
	}
	s := m.Snapshot()
	if s[0].State != StateQuarantined || s[0].Reason != "boom" {
		t.Fatalf("after trip: %+v", s[0])
	}
	if got := s[0].ProbeAt.Sub(now); got != 4*time.Second {
		t.Fatalf("first probe delay = %v, want 4s", got)
	}
	if m.Quarantines() != 1 {
		t.Fatalf("quarantine counter = %d, want 1", m.Quarantines())
	}

	// Quarantined workers are not healthy, but liveness still counts.
	if len(m.Healthy()) != 0 {
		t.Fatal("quarantined worker listed healthy")
	}
	if c := m.Counts(); c.Quarantined != 1 {
		t.Fatalf("counts = %+v", c)
	}

	// Neither a healthy heartbeat nor a re-join clears quarantine.
	advance(time.Second)
	m.Heartbeat(HeartbeatRequest{ID: "w1"})
	m.Join(RegisterRequest{ID: "w1", URL: "http://a2", Slots: 2})
	if s := m.Snapshot(); s[0].State != StateQuarantined {
		t.Fatalf("heartbeat/join cleared quarantine: %+v", s[0])
	}

	// A failed half-open trial doubles the probe delay; the counter
	// records one transition, not two.
	if !m.RecordExecFailure("w1", "still down") {
		t.Fatal("failed trial did not stay quarantined")
	}
	if s := m.Snapshot(); s[0].ProbeAt.Sub(now) != 8*time.Second {
		t.Fatalf("second probe delay = %v, want 8s", s[0].ProbeAt.Sub(now))
	}
	if m.Quarantines() != 1 {
		t.Fatalf("failed trial re-counted: %d", m.Quarantines())
	}

	// A successful trial revives the worker completely.
	m.RecordExecSuccess("w1")
	s = m.Snapshot()
	if s[0].State != StateHealthy || s[0].ConsecFails != 0 || !s[0].ProbeAt.IsZero() {
		t.Fatalf("successful trial did not revive: %+v", s[0])
	}

	// A quarantined worker that stops heartbeating entirely still dies
	// by TTL.
	for i := 0; i < 3; i++ {
		m.RecordExecFailure("w1", "boom")
	}
	advance(2 * time.Minute)
	if c := m.Counts(); c.Dead != 1 {
		t.Fatalf("silent quarantined worker should expire dead: %+v", c)
	}
}

// TestSchedulerSourcesInOrder checks next()'s sourcing order: own
// deque first, then orphans, then stealing the far half of the most
// loaded peer.
func TestSchedulerSourcesInOrder(t *testing.T) {
	s := newScheduler(10)
	s.addWorker("a")
	s.addWorker("b")
	s.seed("a", []int{0, 1, 2, 3, 4, 5})

	// Own deque, front first.
	got, ok := s.next("a", 2)
	if !ok || len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("own-deque batch = %v ok=%v", got, ok)
	}

	// b has nothing of its own and no orphans: it steals the far half
	// (2 of a's remaining 4) from the tail.
	got, ok = s.next("b", 8)
	if !ok || len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("stolen batch = %v ok=%v", got, ok)
	}
	if stolen, _ := s.stats(); stolen != 2 {
		t.Fatalf("stolen counter = %d, want 2", stolen)
	}

	// Orphans outrank stealing.
	s.release([]int{9})
	got, ok = s.next("b", 1)
	if !ok || len(got) != 1 || got[0] != 9 {
		t.Fatalf("orphan batch = %v ok=%v", got, ok)
	}
}

// TestSchedulerMigration checks removeWorker re-queues both the dead
// worker's deque and its in-flight chips, exactly once, and that a
// duplicate completion (the migration race) is dropped.
func TestSchedulerMigration(t *testing.T) {
	s := newScheduler(4)
	s.addWorker("a")
	s.addWorker("b")
	s.seed("a", []int{0, 1, 2, 3})

	batch, _ := s.next("a", 2) // 0,1 in flight on a
	if len(batch) != 2 {
		t.Fatalf("batch = %v", batch)
	}
	if got := s.inFlightOn("a"); got != 2 {
		t.Fatalf("inFlightOn(a) = %d, want 2", got)
	}
	if first, done := s.claimComplete(0); !first || done != 1 {
		t.Fatalf("first completion = %v/%d", first, done)
	}

	s.removeWorker("a")
	if _, mig := s.stats(); mig != 1 {
		t.Fatalf("migrated = %d, want 1 (chip 1 was in flight; chip 0 had completed)", mig)
	}
	// b inherits everything unfinished: queued 2,3 and in-flight 1.
	seen := map[int]bool{}
	for len(seen) < 3 {
		batch, ok := s.next("b", 4)
		if !ok {
			t.Fatalf("next(b) refused with %d/3 inherited", len(seen))
		}
		for _, c := range batch {
			seen[c] = true
			s.claimComplete(c)
		}
	}
	if seen[0] || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("b inherited %v, want {1,2,3}", seen)
	}

	// Duplicate completion of chip 1 is not a second completion.
	if first, _ := s.claimComplete(1); first {
		t.Fatal("duplicate completion reported first")
	}
	if !s.finished() {
		t.Fatal("all chips completed but finished() is false")
	}
	select {
	case <-s.over:
	default:
		t.Fatal("all chips completed but the completion channel is open")
	}
}

// TestSchedulerBlocksUntilCancel checks next() parks an idle worker
// and cancel() releases it with ok=false.
func TestSchedulerBlocksUntilCancel(t *testing.T) {
	s := newScheduler(1)
	s.addWorker("a")
	s.addWorker("b")
	s.seed("a", []int{0})
	if _, ok := s.next("a", 1); !ok {
		t.Fatal("a got no work")
	}
	// Chip 0 is in flight on a; b must block, not spin or grab it.
	released := make(chan bool, 1)
	go func() {
		_, ok := s.next("b", 1)
		released <- ok
	}()
	select {
	case <-released:
		t.Fatal("next(b) returned while everything was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	s.cancel()
	select {
	case ok := <-released:
		if ok {
			t.Fatal("canceled next returned ok")
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not release the blocked worker")
	}
}
