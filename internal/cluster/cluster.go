// Package cluster turns the single-node fleet engine into a
// multi-node one: a coordinator that shards a fleet job's chips across
// N registered eccspecd worker daemons over HTTP, steals work from
// loaded workers for idle ones, and migrates in-flight chips off dead
// or degraded workers via the snapshot resume path — while keeping the
// merged, seed-ordered results byte-identical to a single-node run.
//
// The determinism argument is the same one internal/fleet makes for
// parallelism within one box, applied across boxes: every chip derives
// all of its randomness from its own seed and shares no state with its
// siblings, so WHERE a chip runs — locally, on worker A, on worker B
// after worker A died mid-chip and its last checkpoint was shipped
// over — cannot change WHAT it computes. Results are merged by input
// seed position, and the per-chip wire form (store.ChipRecord)
// round-trips every float bit-for-bit, so the coordinator's output is
// byte-identical to the same job on a single node.
//
// Topology and protocol:
//
//   - Workers register with the coordinator (POST /v1/cluster/register)
//     and heartbeat (POST /v1/cluster/heartbeat), reporting their
//     degraded state. A missed-heartbeat TTL or a degraded report
//     marks a worker unfit and triggers migration of its chips.
//   - The coordinator dispatches chip ranges with one streaming HTTP
//     call per batch (POST /v1/cluster/exec on the worker): the worker
//     answers with newline-delimited JSON events — periodic per-chip
//     checkpoints, then one result per chip, then a final done marker.
//     If the stream dies mid-batch, every chip without a result is
//     re-queued together with its freshest streamed checkpoint, and
//     whichever worker picks it up resumes from that blob.
//   - Scheduling is work-stealing: each worker owns a deque seeded
//     with an even contiguous share of the job; a worker that runs dry
//     first drains the orphan pool (chips off dead workers), then
//     steals the far half of the most-loaded survivor's deque.
package cluster

import (
	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// Coordinator-side endpoint paths (served by eccspecd -coordinator).
const (
	PathRegister  = "/v1/cluster/register"
	PathHeartbeat = "/v1/cluster/heartbeat"
	PathMembers   = "/v1/cluster/members"
)

// PathExec is the worker-side execution endpoint (served by
// eccspecd -join).
const PathExec = "/v1/cluster/exec"

// Task is one dispatched chip range: a self-contained fleet job scoped
// to the batch's seeds (see fleet.Job.WithSeeds) plus the freshest
// checkpoint blob, if any, for each seed being migrated mid-flight.
type Task struct {
	Spec   fleet.Job         `json:"spec"`
	Resume map[uint64][]byte `json:"resume,omitempty"`
}

// Event kinds streamed back by a worker executing a Task, one JSON
// object per line.
const (
	// EventCheckpoint carries a periodic simulator snapshot (Seed,
	// Ticks, Blob) so the coordinator can migrate the chip if this
	// worker dies before finishing it.
	EventCheckpoint = "ckpt"
	// EventResult carries one finished chip (Chip), errors included.
	EventResult = "result"
	// EventError reports a task-level failure (Err); no further events
	// follow.
	EventError = "error"
	// EventDone closes a fully executed task.
	EventDone = "done"
	// EventProgress is a keepalive with no payload: the worker emits it
	// periodically so a healthy but compute-bound stream always has
	// traffic for the coordinator's stall watchdog to observe.
	EventProgress = "progress"
)

// Event is one line of a worker's execution stream.
type Event struct {
	Type string `json:"type"`
	// Seq numbers events monotonically within one exec stream, starting
	// at 1. The coordinator drops any event whose Seq it has already
	// seen, which makes the stream idempotent: a duplicated or replayed
	// tail (an injected net-dup-events fault, a proxy retry) dedupes
	// instead of double-applying. 0 marks an unnumbered event.
	Seq  int64  `json:"seq,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Ticks is the checkpoint's tick count (EventCheckpoint).
	Ticks int `json:"ticks,omitempty"`
	// Blob is the snapshot blob (EventCheckpoint; base64 in JSON).
	Blob []byte `json:"blob,omitempty"`
	// Chip is the finished chip in journal wire form (EventResult) —
	// the same encoding internal/store persists, so floats round-trip
	// bit-for-bit end to end.
	Chip *store.ChipRecord `json:"chip,omitempty"`
	// Err describes a task-level failure (EventError).
	Err string `json:"err,omitempty"`
}

// RegisterRequest announces (or re-announces) a worker to the
// coordinator.
type RegisterRequest struct {
	// ID names the worker; re-registering an existing ID revives it.
	ID string `json:"id"`
	// URL is the base URL the coordinator dials back for PathExec.
	URL string `json:"url"`
	// Slots is the worker's concurrent chip capacity (its fleet engine
	// worker count); the coordinator sizes dispatch batches with it.
	Slots int `json:"slots"`
	// Version is the worker's build version, for the members view.
	Version string `json:"version,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// TTL is the liveness window in seconds: a worker silent this
	// long is declared dead and its chips migrate. The worker
	// heartbeats five times per window.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// HeartbeatRequest is a worker's periodic liveness report.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// Degraded mirrors the worker daemon's degraded mode; a degraded
	// worker keeps its membership but receives no new work and its
	// in-flight chips migrate to healthy peers.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// MemberView is one worker's row in the coordinator's members listing.
type MemberView struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	State         string  `json:"state"`
	Reason        string  `json:"reason,omitempty"`
	Slots         int     `json:"slots"`
	Version       string  `json:"version,omitempty"`
	AgeSeconds    float64 `json:"age_s"`
	LastBeatAgoS  float64 `json:"last_heartbeat_ago_s"`
	ChipsDone     int64   `json:"chips_done"`
	ChipsInFlight int     `json:"chips_in_flight"`
	// ConsecFails counts consecutive failed dispatches — the quarantine
	// circuit breaker's trip wire.
	ConsecFails int `json:"consec_fails,omitempty"`
	// ProbeInSeconds is how long until a quarantined worker's next
	// half-open trial dispatch (quarantined workers only; 0 = due now).
	ProbeInSeconds float64 `json:"probe_in_s,omitempty"`
}
