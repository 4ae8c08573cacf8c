package cluster

// Membership is the coordinator's view of the worker population:
// who has registered, who is still heartbeating, and who has gone
// degraded or silent. It is pure bookkeeping — scheduling reacts to
// it, but never mutates it except to report dispatch outcomes via
// RecordExecFailure and RecordExecSuccess.

import (
	"sort"
	"sync"
	"time"
)

// Worker liveness states.
const (
	// StateHealthy workers accept new work.
	StateHealthy = "healthy"
	// StateDegraded workers are alive but have asked not to be
	// trusted (journal trouble, failing self-tests); they get no new
	// work and their in-flight chips migrate.
	StateDegraded = "degraded"
	// StateQuarantined workers tripped the dispatch circuit breaker:
	// QuarantineAfter consecutive RPC failures. They may still be
	// heartbeating happily — quarantine is the coordinator's distrust
	// of the exec path, not of the process — so heartbeats refresh
	// their liveness without clearing the state. Only a successful
	// half-open trial dispatch (after ProbeAt) revives them; a failed
	// trial re-quarantines with a doubled probe delay.
	StateQuarantined = "quarantined"
	// StateDead workers missed their TTL; everything they held
	// migrates. A dead worker that registers or heartbeats again is
	// revived.
	StateDead = "dead"
)

// Member is one worker's membership record.
type Member struct {
	ID         string
	URL        string
	Slots      int
	Version    string
	State      string
	Reason     string
	Registered time.Time
	LastBeat   time.Time
	// ChipsDone counts chips this worker completed across all jobs.
	ChipsDone int64
	// ConsecFails counts consecutive failed dispatches; reset by any
	// success. At QuarantineAfter the worker is quarantined.
	ConsecFails int
	// ProbeAt is when a quarantined worker earns its next half-open
	// trial dispatch.
	ProbeAt time.Time
}

// Membership tracks registered workers with TTL-based failure
// detection. All methods are safe for concurrent use; expiry is
// evaluated lazily on every read, so there is no sweeper goroutine to
// leak.
type Membership struct {
	mu      sync.Mutex
	members map[string]*Member
	ttl     time.Duration
	now     func() time.Time
	// changed is closed, and replaced, whenever a member's state moves
	// for a reason other than TTL expiry; see watch.
	changed chan struct{}

	quarantineAfter int
	probeDelay      time.Duration
	quarantines     int64 // cumulative healthy->quarantined transitions
}

// DefaultTTL is the liveness window when none is configured.
const DefaultTTL = 10 * time.Second

// Quarantine circuit-breaker defaults.
const (
	// DefaultQuarantineAfter is the consecutive-dispatch-failure count
	// that trips a worker into quarantine.
	DefaultQuarantineAfter = 3
	// DefaultProbeDelay is the wait before a quarantined worker's first
	// half-open trial dispatch; each failed trial doubles it.
	DefaultProbeDelay = 5 * time.Second
)

// NewMembership builds an empty membership with the given liveness
// TTL (<= 0 selects DefaultTTL) and the default quarantine policy.
func NewMembership(ttl time.Duration) *Membership {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Membership{
		members:         make(map[string]*Member),
		ttl:             ttl,
		now:             time.Now,
		changed:         make(chan struct{}),
		quarantineAfter: DefaultQuarantineAfter,
		probeDelay:      DefaultProbeDelay,
	}
}

// SetQuarantinePolicy tunes the circuit breaker: after consecutive
// dispatch failures trip quarantine, probeDelay gates the first
// half-open trial (doubling per failed trial). Non-positive values
// keep the defaults.
func (m *Membership) SetQuarantinePolicy(after int, probeDelay time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if after > 0 {
		m.quarantineAfter = after
	}
	if probeDelay > 0 {
		m.probeDelay = probeDelay
	}
}

// SetClock substitutes the time source (tests).
func (m *Membership) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// TTL returns the liveness window.
func (m *Membership) TTL() time.Duration { return m.ttl }

// notifyLocked wakes every watcher. Caller holds m.mu.
func (m *Membership) notifyLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// Join registers a worker, or revives/updates one that already
// exists. It reports whether the ID was new. A quarantined worker
// stays quarantined: re-registering proves the process is alive, not
// that the exec path works — only a successful trial dispatch does.
func (m *Membership) Join(req RegisterRequest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	w, ok := m.members[req.ID]
	if !ok {
		w = &Member{ID: req.ID, Registered: now}
		m.members[req.ID] = w
	}
	w.URL = req.URL
	w.Slots = req.Slots
	w.Version = req.Version
	if w.State != StateQuarantined {
		w.State = StateHealthy
		w.Reason = ""
	}
	w.LastBeat = now
	m.notifyLocked()
	return !ok
}

// Heartbeat refreshes a worker's liveness, reporting whether the ID
// is known (an unknown ID tells the worker to re-register — the
// coordinator may have restarted and lost its membership). A degraded
// report moves the worker to StateDegraded; a healthy one revives even
// a dead worker, since the process is demonstrably alive.
func (m *Membership) Heartbeat(req HeartbeatRequest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.members[req.ID]
	if !ok {
		return false
	}
	w.LastBeat = m.now()
	was := w.State
	switch {
	case req.Degraded:
		// A degraded self-report supersedes quarantine: the worker is
		// telling us not to trust it at all.
		w.State = StateDegraded
		w.Reason = req.Reason
	case w.State == StateQuarantined:
		// Liveness refreshed, distrust kept: the exec path has to prove
		// itself with a successful trial dispatch.
	default:
		w.State = StateHealthy
		w.Reason = ""
	}
	if w.State != was {
		m.notifyLocked()
	}
	return true
}

// RecordExecFailure counts one failed dispatch against the worker and
// reports whether it is (now) quarantined. The circuit breaker trips
// at quarantineAfter consecutive failures; a failure while already
// quarantined is a failed half-open trial, which doubles the probe
// delay (capped at 64x).
func (m *Membership) RecordExecFailure(id, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.members[id]
	if w == nil {
		return false
	}
	w.ConsecFails++
	if w.ConsecFails < m.quarantineAfter && w.State != StateQuarantined {
		return false
	}
	if w.State != StateQuarantined {
		m.quarantines++
	}
	w.State = StateQuarantined
	w.Reason = reason
	backoff := w.ConsecFails - m.quarantineAfter // 0 on first trip
	if backoff > 6 {
		backoff = 6
	}
	w.ProbeAt = m.now().Add(m.probeDelay << backoff)
	m.notifyLocked()
	return true
}

// RecordExecSuccess counts one completed dispatch: the consecutive-
// failure counter resets, and a quarantined worker — this was its
// half-open trial — is revived.
func (m *Membership) RecordExecSuccess(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.members[id]
	if w == nil {
		return
	}
	w.ConsecFails = 0
	w.ProbeAt = time.Time{}
	if w.State == StateQuarantined {
		w.State = StateHealthy
		w.Reason = ""
		m.notifyLocked()
	}
}

// Quarantines returns the cumulative count of quarantine transitions,
// for the daemon's metrics.
func (m *Membership) Quarantines() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantines
}

// expireLocked applies the TTL at now: any non-dead worker silent for
// the TTL or longer is declared dead. Caller holds m.mu.
func (m *Membership) expireLocked(now time.Time) {
	cutoff := now.Add(-m.ttl)
	for _, w := range m.members {
		if w.State != StateDead && !w.LastBeat.After(cutoff) {
			w.State = StateDead
			w.Reason = "heartbeat TTL expired"
		}
	}
}

// Snapshot returns every member, expiry applied, sorted by ID.
func (m *Membership) Snapshot() []Member {
	members, _, _ := m.watch()
	return members
}

// watch is Snapshot for a watcher: it also returns the membership
// clock's reading the snapshot was taken at, and a channel closed by
// the next state change — a Join, a Heartbeat that moves a member's
// state, a quarantine or a revival. TTL expiry closes nothing; it is
// due at LastBeat+TTL on the same clock, so a watcher times it itself.
func (m *Membership) watch() ([]Member, time.Time, <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.expireLocked(now)
	out := make([]Member, 0, len(m.members))
	for _, w := range m.members {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, now, m.changed
}

// Healthy returns the healthy members, expiry applied, sorted by ID.
func (m *Membership) Healthy() []Member { return healthyOnly(m.Snapshot()) }

// healthyOnly filters members down to the healthy ones, in place.
func healthyOnly(all []Member) []Member {
	out := all[:0]
	for _, w := range all {
		if w.State == StateHealthy {
			out = append(out, w)
		}
	}
	return out
}

// StateCounts tallies the membership by state.
type StateCounts struct {
	Healthy, Degraded, Quarantined, Dead int
}

// Counts tallies members by state, expiry applied.
func (m *Membership) Counts() StateCounts {
	var c StateCounts
	for _, w := range m.Snapshot() {
		switch w.State {
		case StateHealthy:
			c.Healthy++
		case StateDegraded:
			c.Degraded++
		case StateQuarantined:
			c.Quarantined++
		default:
			c.Dead++
		}
	}
	return c
}

// AddChipsDone credits a worker with finished chips (members view).
func (m *Membership) AddChipsDone(id string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.members[id]; w != nil {
		w.ChipsDone += n
	}
}
