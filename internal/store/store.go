// Package store is a crash-safe, append-only job store for the
// eccspecd fleet daemon.
//
// Everything lives in one JSON-lines journal: job specs, per-chip
// completion records, periodic per-chip simulator snapshots, job
// completion marks, and evictions. Appends at commit points (job
// accepted, chip finished, job done, job evicted) are fsynced; the
// high-rate checkpoint records are not — losing one to an OS crash
// costs at most one checkpoint interval of re-simulation, never
// correctness, because every chip result is reproducible from its seed.
//
// A traced chip's rows are journaled once each. A checkpoint record
// holds the snapshot state plus only the trace rows past those the
// journal already holds for its seed (a delta blob, see
// snapshot.Traced), and a chip record only the rows past its last
// checkpoint. Replay folds each seed's records back into one
// self-contained blob by joining their rows; every blob and record the
// store hands out is whole.
//
// Recovery reads the journal back, applies records in order, and
// truncates the file at the first corrupt or partial line (the torn
// tail a crash mid-append leaves behind), so a recovered store is
// always exactly some prefix of committed history. When the journal
// grows past a threshold of dead weight — superseded checkpoints,
// evicted jobs — it is compacted: current state is rewritten to a
// temporary file, fsynced, and atomically renamed over the journal.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/rng"
	"eccspec/internal/snapshot"
)

// ErrReadOnly is returned by every mutating method of a store opened
// with OpenReadOnly. Use errors.Is to test for it.
var ErrReadOnly = errors.New("store: read-only")

// JournalName is the journal's filename inside the data directory.
const JournalName = "journal.jsonl"

// DefaultCompactEvery is the default number of appended records between
// automatic compactions.
const DefaultCompactEvery = 4096

// record is one journal line. T selects the kind; the other fields are
// kind-specific.
type record struct {
	T string `json:"t"` // "job", "chip", "ckpt", "assign", "done", "evict"

	Job  uint64     `json:"job"`
	Spec *fleet.Job `json:"spec,omitempty"` // t=job

	Chip *ChipRecord `json:"chip,omitempty"` // t=chip

	Seed  uint64 `json:"seed,omitempty"`  // t=ckpt, t=assign
	Ticks int    `json:"ticks,omitempty"` // t=ckpt
	Blob  []byte `json:"blob,omitempty"`  // t=ckpt (base64 in JSON)

	Worker string `json:"worker,omitempty"` // t=assign

	CompletedUnix int64 `json:"completed_unix,omitempty"` // t=done
}

// JobRecord is one job's recovered state.
type JobRecord struct {
	// ID is the daemon-assigned job id.
	ID uint64
	// Spec is the job as submitted (callback and resume fields are not
	// serialized and come back zero).
	Spec fleet.Job
	// Chips holds the completion record of every finished chip, keyed
	// by seed.
	Chips map[uint64]ChipRecord
	// Checkpoints holds the latest snapshot blob per unfinished seed,
	// whole (with its full partial trace); CheckpointTicks the tick
	// count each blob was taken at. Cleared when the job completes.
	Checkpoints     map[uint64][]byte
	CheckpointTicks map[uint64]int
	// journaled counts, per seed whose checkpoint is a traced blob, the
	// trace rows the journal holds for it: the next checkpoint or chip
	// record journals only the rows past them. It advances only once an
	// append succeeds.
	journaled map[uint64]int
	// Assignments maps each seed to the cluster worker it was last
	// placed on (empty for single-node jobs). Unlike checkpoints the
	// map survives completion: it is the job's placement history, and
	// a migrated chip's entry is simply overwritten by its new home.
	Assignments map[uint64]string
	// Completed reports whether the whole job finished; CompletedUnix
	// is the wall-clock completion time recorded by the daemon.
	Completed     bool
	CompletedUnix int64
}

// RetryPolicy bounds the retry-with-exponential-backoff loop the store
// runs around journal commit points: a transient write or fsync error
// (full disk pressure, a flaky device, an injected fault) is retried
// with growing, jittered waits before it surfaces to the caller.
type RetryPolicy struct {
	// MaxAttempts is the total tries per journal operation, first
	// attempt included; <= 0 selects 6.
	MaxAttempts int
	// BaseDelay is the wait before the first retry, doubling each
	// subsequent retry up to MaxDelay; <= 0 selects 2ms / 250ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterSeed seeds the deterministic jitter stream (internal/rng):
	// each wait is uniformly drawn from [d/2, d]. A fixed seed makes
	// retry schedules replayable in chaos tests.
	JitterSeed uint64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 6
	}
	return p.MaxAttempts
}

// Attempts returns the effective total tries per operation, with the
// zero value's default applied. Exported so other retry loops (the
// cluster RPC layer) can share one policy shape.
func (p RetryPolicy) Attempts() int { return p.maxAttempts() }

// Delay computes the wait before retry number attempt (1-based),
// drawing jitter from the caller's seeded stream.
func (p RetryPolicy) Delay(jitter *rng.Stream, attempt int) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(jitter.Uint64()%uint64(half+1))
}

// Options tunes a store.
type Options struct {
	// CompactEvery triggers automatic compaction after that many
	// journal appends; <= 0 selects DefaultCompactEvery.
	CompactEvery int
	// NoSync disables fsync entirely (tests only).
	NoSync bool
	// Retry bounds the retry loop around journal writes.
	Retry RetryPolicy
	// WriteHook, when set, runs before every journal write ("append"),
	// fsync ("sync"), and compaction rewrite ("compact"); a returned
	// error is treated exactly like the underlying I/O failing. Fault
	// injection (internal/faultinject) and tests plug in here.
	WriteHook func(op string) error
	// Sleep substitutes the backoff wait; nil selects time.Sleep.
	// Tests use it to run retry schedules instantly.
	Sleep func(time.Duration)
}

// Store is the journal-backed job store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	goodOff int64 // byte offset just past the last committed record
	jobs    map[uint64]*JobRecord
	order   []uint64 // job ids in acceptance order
	appends int      // records since the last compaction

	readOnly bool
	retries  int64 // journal operations that needed at least one retry
	jitter   *rng.Stream
}

// Open opens (creating if needed) the store in dir, replaying the
// journal and truncating any corrupt tail.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, jobs: make(map[uint64]*JobRecord),
		jitter: rng.NewStream(opts.Retry.JitterSeed, 0xFA17)}
	path := filepath.Join(dir, JournalName)
	if err := s.replay(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.goodOff = info.Size()
	return s, nil
}

// OpenReadOnly opens an existing store without write access: the
// journal is replayed (without truncating a corrupt tail — the
// filesystem may itself be read-only) and every mutating method returns
// ErrReadOnly. A daemon whose data directory has gone read-only uses
// this to keep serving recovered results in degraded mode.
func OpenReadOnly(dir string) (*Store, error) {
	s := &Store{dir: dir, opts: Options{}, readOnly: true,
		jobs:   make(map[uint64]*JobRecord),
		jitter: rng.NewStream(0, 0xFA17)}
	if err := s.replay(filepath.Join(dir, JournalName)); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadOnly reports whether the store was opened with OpenReadOnly.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Retries returns how many journal operations needed at least one
// retry — the daemon's /metrics exposes it.
func (s *Store) Retries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// replay loads the journal, applying records in order. The file is
// truncated at the first line that is torn or fails to decode, so a
// crash mid-append never poisons recovery.
func (s *Store) replay(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	var (
		valid int64 // byte offset just past the last good line
		r     = bufio.NewReaderSize(f, 1<<20)
	)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			// EOF with a partial line is a torn append — even if the
			// fragment happens to decode, the missing newline means the
			// write never completed, and keeping it would glue the next
			// append onto it. Truncate here.
			break
		}
		var rec record
		if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
			break // corrupt line: truncate here
		}
		if !s.apply(rec) {
			break // structurally invalid record: truncate here
		}
		valid += int64(len(line))
	}
	// A torn or corrupt tail is dropped. In read-only mode the tail is
	// merely ignored — the filesystem may not allow truncation.
	if s.readOnly {
		return nil
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() > valid {
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("store: truncating corrupt journal tail: %w", err)
		}
	}
	return nil
}

// apply folds one record into the in-memory state, reporting whether it
// was structurally valid.
func (s *Store) apply(rec record) bool {
	switch rec.T {
	case "job":
		if rec.Spec == nil {
			return false
		}
		if _, dup := s.jobs[rec.Job]; dup {
			return false
		}
		s.jobs[rec.Job] = &JobRecord{
			ID:              rec.Job,
			Spec:            *rec.Spec,
			Chips:           make(map[uint64]ChipRecord),
			Checkpoints:     make(map[uint64][]byte),
			CheckpointTicks: make(map[uint64]int),
			Assignments:     make(map[uint64]string),
			journaled:       make(map[uint64]int),
		}
		s.order = append(s.order, rec.Job)
	case "chip":
		j := s.jobs[rec.Job]
		if j == nil || rec.Chip == nil {
			return false
		}
		chip, err := j.wholeChip(*rec.Chip)
		if err != nil {
			return true // a tail of rows the journal lost; dropped
		}
		j.setChip(chip)
	case "ckpt":
		j := s.jobs[rec.Job]
		if j == nil || len(rec.Blob) == 0 {
			return false
		}
		if _, done := j.Chips[rec.Seed]; done {
			return true // stale checkpoint racing a completion; ignore
		}
		blob, err := j.wholeCheckpoint(rec.Seed, rec.Blob)
		if err != nil {
			return true // a delta onto rows the journal lost; dropped
		}
		j.Checkpoints[rec.Seed] = blob
		j.CheckpointTicks[rec.Seed] = rec.Ticks
		j.noteJournaled(rec.Seed)
	case "assign":
		j := s.jobs[rec.Job]
		if j == nil || rec.Worker == "" {
			return false
		}
		j.Assignments[rec.Seed] = rec.Worker
	case "done":
		j := s.jobs[rec.Job]
		if j == nil {
			return false
		}
		j.Completed = true
		j.CompletedUnix = rec.CompletedUnix
		j.Checkpoints = make(map[uint64][]byte)
		j.CheckpointTicks = make(map[uint64]int)
		j.journaled = make(map[uint64]int)
	case "evict":
		if _, ok := s.jobs[rec.Job]; !ok {
			return false
		}
		delete(s.jobs, rec.Job)
		for i, id := range s.order {
			if id == rec.Job {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	default:
		return false
	}
	return true
}

// append writes one record with bounded retry. Every record goes to
// the kernel in a single write, so nothing is lost to a process kill;
// sync additionally fsyncs (the commit points), so those records also
// survive an OS crash. A transient write/fsync failure is retried with
// exponential backoff and seeded jitter (Options.Retry); on exhaustion
// the file is rolled back to the last committed boundary so a torn
// line never precedes later good ones, and the last error surfaces.
// Caller holds s.mu.
func (s *Store) append(rec record, sync bool) error {
	if s.readOnly {
		return ErrReadOnly
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	buf := append(line, '\n')
	var lastErr error
	for attempt := 0; attempt < s.opts.Retry.maxAttempts(); attempt++ {
		if attempt > 0 {
			if attempt == 1 {
				s.retries++
			}
			s.sleep(s.opts.Retry.Delay(s.jitter, attempt))
			// A failed attempt may have left a partial line (or a whole
			// unsynced one); cut back to the committed boundary before
			// writing again so the record never appears twice.
			if err := s.f.Truncate(s.goodOff); err != nil {
				lastErr = fmt.Errorf("store: rolling back torn write: %w", err)
				continue
			}
		}
		if err := s.writeOnce(buf, sync); err != nil {
			lastErr = fmt.Errorf("store: %w", err)
			continue
		}
		s.goodOff += int64(len(buf))
		s.appends++
		if s.appends >= s.opts.CompactEvery {
			return s.compactLocked()
		}
		return nil
	}
	// Exhausted: leave the journal at the last committed boundary.
	s.f.Truncate(s.goodOff)
	return lastErr
}

// writeOnce performs one write (+ optional fsync) attempt, consulting
// the fault-injection hook before each underlying operation.
func (s *Store) writeOnce(buf []byte, sync bool) error {
	if h := s.opts.WriteHook; h != nil {
		if err := h("append"); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(buf); err != nil {
		return err
	}
	if sync && !s.opts.NoSync {
		if h := s.opts.WriteHook; h != nil {
			if err := h("sync"); err != nil {
				return err
			}
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// sleep waits for the backoff delay via Options.Sleep or time.Sleep.
func (s *Store) sleep(d time.Duration) {
	if s.opts.Sleep != nil {
		s.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}

// AddJob records a newly accepted job under the daemon's id. It is a
// commit point (fsynced).
func (s *Store) AddJob(id uint64, spec fleet.Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	if _, dup := s.jobs[id]; dup {
		return fmt.Errorf("store: job %d already exists", id)
	}
	spec.OnCheckpoint, spec.OnResult, spec.Resume = nil, nil, nil
	if !s.apply(record{T: "job", Job: id, Spec: &spec}) {
		return fmt.Errorf("store: invalid job %d", id)
	}
	if err := s.append(record{T: "job", Job: id, Spec: &spec}, true); err != nil {
		// The accept never committed: roll the job back out of memory
		// so a rejected submission leaves no trace (and the id can be
		// retried once the journal heals).
		s.apply(record{T: "evict", Job: id})
		return err
	}
	return nil
}

// RecordChip records one chip's completion. It is a commit point
// (fsynced): a chip never re-runs after its record hits the journal.
// The journal gets only the trace rows past the seed's last journaled
// checkpoint. chip may itself be such a tail (Trace.From > 0), as read
// back from a journal; it is joined onto the seed's checkpoint.
func (s *Store) RecordChip(id uint64, chip ChipRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("store: unknown job %d", id)
	}
	whole, err := j.wholeChip(chip)
	if err != nil {
		return fmt.Errorf("store: job %d seed %d: %w", id, chip.Seed, err)
	}
	line := whole
	if n, ok := j.journaled[chip.Seed]; ok && whole.Trace != nil && n <= len(whole.Trace.Times) {
		line.Trace = whole.Trace.Tail(n)
	}
	j.setChip(whole)
	return s.append(record{T: "chip", Job: id, Chip: &line}, true)
}

// RecordCheckpoint records a chip's latest snapshot blob. It is not a
// commit point: losing a checkpoint to an OS crash costs re-simulation
// from the previous one, never correctness. For a traced blob the
// journal gets the state and only the rows past those it holds for the
// seed. blob may itself be such a delta, as read back from a journal;
// it is folded onto the seed's checkpoint.
func (s *Store) RecordCheckpoint(id, seed uint64, ticks int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("store: unknown job %d", id)
	}
	if _, done := j.Chips[seed]; done {
		return nil
	}
	whole, err := j.wholeCheckpoint(seed, blob)
	if err != nil {
		return fmt.Errorf("store: job %d seed %d: %w", id, seed, err)
	}
	line := whole
	if t, err := snapshot.SplitTraced(whole); err == nil {
		if n, ok := j.journaled[seed]; ok && n <= t.End() {
			if line, err = t.Tail(n); err != nil {
				return fmt.Errorf("store: job %d seed %d: %w", id, seed, err)
			}
		}
	}
	j.Checkpoints[seed] = whole
	j.CheckpointTicks[seed] = ticks
	if err := s.append(record{T: "ckpt", Job: id, Seed: seed, Ticks: ticks, Blob: line}, false); err != nil {
		return err
	}
	j.noteJournaled(seed)
	return nil
}

// RecordAssignment records which cluster worker a seed was last placed
// on. Like checkpoints it is not a commit point: losing an assignment
// to an OS crash costs nothing but placement history, and the cluster
// coordinator re-derives live placement when it resumes a job.
func (s *Store) RecordAssignment(id, seed uint64, worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("store: unknown job %d", id)
	}
	if worker == "" {
		return fmt.Errorf("store: empty worker id for job %d seed %d", id, seed)
	}
	if j.Assignments[seed] == worker {
		return nil // re-dispatch to the same home; nothing new to record
	}
	rec := record{T: "assign", Job: id, Seed: seed, Worker: worker}
	s.apply(rec)
	return s.append(rec, false)
}

// MarkJobDone records job completion at the given wall-clock time and
// drops the job's now-useless checkpoints. It is a commit point.
func (s *Store) MarkJobDone(id uint64, completedUnix int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	if s.jobs[id] == nil {
		return fmt.Errorf("store: unknown job %d", id)
	}
	rec := record{T: "done", Job: id, CompletedUnix: completedUnix}
	s.apply(rec)
	return s.append(rec, true)
}

// EvictJob removes a job outright. It is a commit point; compaction
// later reclaims the space.
func (s *Store) EvictJob(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	if s.jobs[id] == nil {
		return fmt.Errorf("store: unknown job %d", id)
	}
	rec := record{T: "evict", Job: id}
	s.apply(rec)
	return s.append(rec, true)
}

// Jobs returns every live job in acceptance order. The records share no
// mutable state with the store (maps are copied).
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// Job returns one job's record by id.
func (s *Store) Job(id uint64) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobRecord{}, false
	}
	return j.clone(), true
}

// MaxID returns the highest live job id (0 when empty), so a daemon can
// continue its id sequence across restarts.
func (s *Store) MaxID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max uint64
	for id := range s.jobs {
		if id > max {
			max = id
		}
	}
	return max
}

func (j *JobRecord) clone() JobRecord {
	out := *j
	out.Chips = make(map[uint64]ChipRecord, len(j.Chips))
	for k, v := range j.Chips {
		out.Chips[k] = v
	}
	out.Checkpoints = make(map[uint64][]byte, len(j.Checkpoints))
	for k, v := range j.Checkpoints {
		out.Checkpoints[k] = v
	}
	out.CheckpointTicks = make(map[uint64]int, len(j.CheckpointTicks))
	for k, v := range j.CheckpointTicks {
		out.CheckpointTicks[k] = v
	}
	out.Assignments = make(map[uint64]string, len(j.Assignments))
	for k, v := range j.Assignments {
		out.Assignments[k] = v
	}
	out.journaled = nil
	return out
}

// wholeCheckpoint returns the self-contained blob a checkpoint leaves
// for seed: blob itself, unless it is a delta, which is folded onto the
// seed's current checkpoint. A blob the store cannot split is kept whole
// and opaque, as blobs of other formats are.
func (j *JobRecord) wholeCheckpoint(seed uint64, blob []byte) ([]byte, error) {
	delta, err := snapshot.SplitTraced(blob)
	if err != nil || delta.From == 0 {
		return blob, nil
	}
	base, err := snapshot.SplitTraced(j.Checkpoints[seed])
	if err != nil {
		return nil, fmt.Errorf("checkpoint delta from row %d has no traced checkpoint to join: %w", delta.From, err)
	}
	return base.Fold(delta)
}

// wholeChip returns chip with its whole trace: a record holding only the
// rows past the seed's last checkpoint (Trace.From > 0) is joined onto
// that checkpoint's rows.
func (j *JobRecord) wholeChip(chip ChipRecord) (ChipRecord, error) {
	if chip.Trace == nil || chip.Trace.From == 0 {
		return chip, nil
	}
	joined, err := snapshot.JoinTrace(j.Checkpoints[chip.Seed], chip.Trace)
	if err != nil {
		return ChipRecord{}, err
	}
	chip.Trace = joined
	return chip, nil
}

// setChip records a finished chip, which retires its checkpoint.
func (j *JobRecord) setChip(chip ChipRecord) {
	j.Chips[chip.Seed] = chip
	delete(j.Checkpoints, chip.Seed)
	delete(j.CheckpointTicks, chip.Seed)
	delete(j.journaled, chip.Seed)
}

// noteJournaled records that seed's current checkpoint is wholly in the
// journal.
func (j *JobRecord) noteJournaled(seed uint64) {
	if t, err := snapshot.SplitTraced(j.Checkpoints[seed]); err == nil {
		j.journaled[seed] = t.End()
	} else {
		delete(j.journaled, seed)
	}
}

// Compact rewrites the journal to hold exactly the current state:
// per live job its spec, chip records, surviving checkpoints, and
// completion mark. The rewrite goes to a temporary file which is
// fsynced and atomically renamed over the journal.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if h := s.opts.WriteHook; h != nil {
		if err := h("compact"); err != nil {
			return fmt.Errorf("store: compacting: %w", err)
		}
	}
	tmpPath := filepath.Join(s.dir, JournalName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriter(tmp)
	var written int64
	writeRec := func(rec record) error {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		written += int64(len(line)) + 1
		return w.WriteByte('\n')
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compacting: %w", err)
	}
	for _, id := range s.order {
		j := s.jobs[id]
		spec := j.Spec
		if err := writeRec(record{T: "job", Job: id, Spec: &spec}); err != nil {
			return fail(err)
		}
		for _, seed := range sortedKeys(j.Chips) {
			chip := j.Chips[seed]
			if err := writeRec(record{T: "chip", Job: id, Chip: &chip}); err != nil {
				return fail(err)
			}
		}
		// Checkpoints go out whole, so each seed's trace restarts from
		// a single self-contained record.
		for _, seed := range sortedKeys(j.Checkpoints) {
			if err := writeRec(record{T: "ckpt", Job: id, Seed: seed,
				Ticks: j.CheckpointTicks[seed], Blob: j.Checkpoints[seed]}); err != nil {
				return fail(err)
			}
		}
		for _, seed := range sortedKeys(j.Assignments) {
			if err := writeRec(record{T: "assign", Job: id, Seed: seed,
				Worker: j.Assignments[seed]}); err != nil {
				return fail(err)
			}
		}
		if j.Completed {
			if err := writeRec(record{T: "done", Job: id, CompletedUnix: j.CompletedUnix}); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	path := filepath.Join(s.dir, JournalName)
	if err := os.Rename(tmpPath, path); err != nil {
		return fail(err)
	}
	if !s.opts.NoSync {
		if dir, err := os.Open(s.dir); err == nil {
			dir.Sync()
			dir.Close()
		}
	}
	// Reopen the journal handle on the new file.
	s.f.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted journal: %w", err)
	}
	s.f = f
	s.goodOff = written
	s.appends = 0
	for _, j := range s.jobs {
		for seed := range j.Checkpoints {
			j.noteJournaled(seed)
		}
	}
	return nil
}

// Close syncs and closes the journal (a no-op for read-only stores).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return nil
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	return s.f.Close()
}

// sortedKeys returns m's seeds in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
