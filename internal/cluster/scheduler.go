package cluster

// Work-stealing scheduler: the coordinator-side data structure that
// decides which worker simulates which chip next. Chips are indices
// into the job's seed slice. Each worker owns a deque seeded with a
// contiguous share of the job; owners pop from the front, thieves take
// the far half from the back, and chips orphaned by a dead worker wait
// in a shared pool that outranks stealing. Placement never affects
// results — every chip is deterministic in its seed — so the scheduler
// is free to chase pure load balance.

import "sync"

type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	total     int
	done      int
	completed []bool
	queues    map[string][]int // per-worker deques of pending chip indices
	inflight  map[int]string   // chip index -> worker currently running it
	orphans   []int            // chips re-queued off dead/degraded workers

	// over is closed once every chip has completed or the run was
	// canceled; ended records that it is.
	over  chan struct{}
	ended bool

	stolen   int64 // chips moved by stealing
	migrated int64 // in-flight chips re-queued off a failed worker
}

func newScheduler(total int) *scheduler {
	s := &scheduler{
		total:     total,
		completed: make([]bool, total),
		queues:    make(map[string][]int),
		inflight:  make(map[int]string),
		over:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// addWorker gives a worker an (empty) deque so it can steal. Adding an
// existing worker is a no-op.
func (s *scheduler) addWorker(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[id]; !ok {
		s.queues[id] = nil
		s.cond.Broadcast()
	}
}

// seed appends chips to a worker's deque (initial sharding).
func (s *scheduler) seed(id string, chips []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[id] = append(s.queues[id], chips...)
	s.cond.Broadcast()
}

// next blocks until it can hand worker id a batch of up to max chips,
// marking them in flight. It returns ok=false when the job is finished
// or canceled, or the worker has been removed — the worker's agent
// should exit. Sourcing order: own deque, then the orphan pool, then
// stealing the far half of the most-loaded peer's deque.
func (s *scheduler) next(id string, max int) ([]int, bool) {
	if max < 1 {
		max = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ended {
			return nil, false
		}
		if _, ok := s.queues[id]; !ok {
			return nil, false // removed while waiting
		}
		if batch := s.takeLocked(id, max); len(batch) > 0 {
			for _, c := range batch {
				s.inflight[c] = id
			}
			return batch, true
		}
		// Everything pending is in flight elsewhere; wait for a
		// completion, a migration, or cancellation.
		s.cond.Wait()
	}
}

// takeLocked gathers up to max chips for id without blocking.
func (s *scheduler) takeLocked(id string, max int) []int {
	q := s.queues[id]
	if n := min(len(q), max); n > 0 {
		batch := append([]int(nil), q[:n]...)
		s.queues[id] = q[n:]
		return batch
	}
	if n := min(len(s.orphans), max); n > 0 {
		batch := append([]int(nil), s.orphans[:n]...)
		s.orphans = s.orphans[n:]
		return batch
	}
	// Steal: far half (rounded up) of the most-loaded peer's deque.
	victim, best := "", 0
	for w, vq := range s.queues {
		if w != id && len(vq) > best {
			victim, best = w, len(vq)
		}
	}
	if best == 0 {
		return nil
	}
	n := min((best+1)/2, max)
	vq := s.queues[victim]
	batch := append([]int(nil), vq[len(vq)-n:]...)
	s.queues[victim] = vq[:len(vq)-n]
	s.stolen += int64(n)
	return batch
}

// claimComplete marks a chip finished, reporting whether this was the
// first completion (a duplicate — a chip that raced on two workers
// around a migration — is dropped) and the total finished so far.
func (s *scheduler) claimComplete(chip int) (first bool, done int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, chip)
	if s.completed[chip] {
		return false, s.done
	}
	s.completed[chip] = true
	s.done++
	if s.done == s.total {
		s.endLocked()
	}
	s.cond.Broadcast()
	return true, s.done
}

// release returns still-unfinished chips of a batch to the orphan pool
// without removing the worker (a failed dispatch the agent will retry,
// a task-level refusal, or a done-event that skipped chips). Released
// in-flight chips count as migrations: they left a worker mid-batch
// and will resume elsewhere — or on the same worker — from their
// freshest streamed checkpoint.
func (s *scheduler) release(chips []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range chips {
		if !s.completed[c] {
			if _, ok := s.inflight[c]; ok {
				s.migrated++
			}
			delete(s.inflight, c)
			s.orphans = append(s.orphans, c)
		}
	}
	s.cond.Broadcast()
}

// removeWorker migrates everything a failed worker held — its queued
// deque and its in-flight chips — into the orphan pool. Idempotent.
func (s *scheduler) removeWorker(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[id]
	if !ok {
		return
	}
	delete(s.queues, id)
	for _, c := range q {
		if !s.completed[c] {
			s.orphans = append(s.orphans, c)
		}
	}
	for c, w := range s.inflight {
		if w == id {
			delete(s.inflight, c)
			if !s.completed[c] {
				s.orphans = append(s.orphans, c)
				s.migrated++
			}
		}
	}
	s.cond.Broadcast()
}

// cancel unblocks every waiter; next returns ok=false from here on.
func (s *scheduler) cancel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endLocked()
	s.cond.Broadcast()
}

// finished reports whether every chip has completed.
func (s *scheduler) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done == s.total
}

// endLocked closes over once. Caller holds s.mu.
func (s *scheduler) endLocked() {
	if !s.ended {
		s.ended = true
		close(s.over)
	}
}

// inFlightOn counts chips currently running on worker id.
func (s *scheduler) inFlightOn(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.inflight {
		if w == id {
			n++
		}
	}
	return n
}

// stats returns the steal/migration counters.
func (s *scheduler) stats() (stolen, migrated int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stolen, s.migrated
}
