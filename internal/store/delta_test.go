package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
	"eccspec/internal/trace"
)

// tracedChip stands in for a traced fleet chip: a recorder that grows
// by one row a tick, and the checkpoint blob a chip would emit at the
// current tick. The blob's state is a bare header; the store never
// decodes it.
type tracedChip struct {
	seed uint64
	rec  *trace.Recorder
}

func newTracedChip(seed uint64) *tracedChip {
	return &tracedChip{seed: seed, rec: trace.NewRecorder(fleet.TraceColumns...)}
}

// run records rows up to tick `to`.
func (c *tracedChip) run(to int) {
	for t := c.rec.Len(); t < to; t++ {
		x := float64(c.seed) + float64(t)/1000
		c.rec.Add(float64(t+1)/1000, 0.8-x/1e4, 0.79-x/1e4, x/100, 30+x)
	}
}

func (c *tracedChip) blob(t testing.TB) []byte {
	t.Helper()
	st := &snapshot.State{Version: snapshot.Version, Options: snapshot.OptionsState{Seed: c.seed, Workload: "gcc"},
		Ticks: c.rec.Len(), Trace: snapshot.CaptureTrace(c.rec)}
	b, err := snapshot.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (c *tracedChip) result() ChipRecord {
	return FromResult(fleet.ChipResult{Seed: c.seed, NominalV: 0.8, AvgReduction: 0.1,
		DomainVdd: []float64{0.72}, Ticks: c.rec.Len(), Trace: c.rec})
}

// checkpoint runs c to tick `to` and records its blob, returning it.
func (c *tracedChip) checkpoint(t testing.TB, s *Store, job uint64, to int) []byte {
	t.Helper()
	c.run(to)
	b := c.blob(t)
	if err := s.RecordCheckpoint(job, c.seed, to, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// journalRecords reads a store directory's journal back as records.
func journalRecords(t *testing.T, dir string) []record {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// rowsFrom reports the first trace index a checkpoint record's blob
// holds (-1 for a blob without a trace section).
func rowsFrom(blob []byte) int {
	d, err := snapshot.SplitTraced(blob)
	if err != nil {
		return -1
	}
	return d.From
}

// writeTracedJournal journals a finished traced chip (seed 1) and an
// unfinished one (seed 2), each checkpointed every 10 ticks.
func writeTracedJournal(t testing.TB, dir string) []JobRecord {
	t.Helper()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddJob(1, fleet.Job{Seeds: []uint64{1, 2}, Seconds: 0.05, TraceEvery: 1, Workload: "gcc"}); err != nil {
		t.Fatal(err)
	}
	a, b := newTracedChip(1), newTracedChip(2)
	for tick := 10; tick < 50; tick += 10 {
		a.checkpoint(t, s, 1, tick)
		b.checkpoint(t, s, 1, tick)
	}
	a.run(47)
	if err := s.RecordChip(1, a.result()); err != nil {
		t.Fatal(err)
	}
	return s.Jobs()
}

// TestDeltaJournalRowsOnce checks the journal's shape: after the first
// checkpoint of a seed, each checkpoint record holds only the rows past
// the previous one, the chip record only the rows past the last
// checkpoint, and replay folds them back to whole blobs and records.
func TestDeltaJournalRowsOnce(t *testing.T) {
	dir := t.TempDir()
	want := writeTracedJournal(t, dir)

	rows := map[uint64]int{}
	for _, rec := range journalRecords(t, dir) {
		switch rec.T {
		case "ckpt":
			if got := rowsFrom(rec.Blob); got != rows[rec.Seed] {
				t.Errorf("seed %d checkpoint at tick %d journals rows from %d, want %d", rec.Seed, rec.Ticks, got, rows[rec.Seed])
			}
			rows[rec.Seed] = rec.Ticks
		case "chip":
			tr := rec.Chip.Trace
			if tr.From != 40 || len(tr.Times) != 7 {
				t.Errorf("chip record journals rows [%d, %d), want [40, 47)", tr.From, tr.From+len(tr.Times))
			}
		}
	}

	r, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Jobs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed jobs differ from the written ones:\nwritten:  %+v\nreplayed: %+v", want, got)
	}
	j, _ := r.Job(1)
	st, err := snapshot.Unmarshal(j.Checkpoints[2])
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace.From != 0 || len(st.Trace.Times) != 40 {
		t.Fatalf("folded checkpoint holds rows [%d, %d), want [0, 40)", st.Trace.From, st.Trace.From+len(st.Trace.Times))
	}
	if _, err := j.Chips[1].ToResult(); err != nil {
		t.Fatalf("joined chip record does not restore: %v", err)
	}
}

// TestReplayClosure feeds every line of a delta journal back through
// the public API into a fresh store, the way a journal replay tool
// does, and requires the same jobs back.
func TestReplayClosure(t *testing.T) {
	dir := t.TempDir()
	want := writeTracedJournal(t, dir)

	s, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rec := range journalRecords(t, dir) {
		switch rec.T {
		case "job":
			err = s.AddJob(rec.Job, *rec.Spec)
		case "ckpt":
			err = s.RecordCheckpoint(rec.Job, rec.Seed, rec.Ticks, rec.Blob)
		case "chip":
			err = s.RecordChip(rec.Job, *rec.Chip)
		case "done":
			err = s.MarkJobDone(rec.Job, rec.CompletedUnix)
		}
		if err != nil {
			t.Fatalf("replaying %s record: %v", rec.T, err)
		}
	}
	if got := s.Jobs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("jobs replayed through the API differ:\nwritten:  %+v\nreplayed: %+v", want, got)
	}
	if err := s.MarkJobDone(1, 1_700_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaGapDropped requires a delta whose first row lies past the
// rows the store holds to be dropped, by replay and by the API alike,
// rather than folded into a trace with a hole in it.
func TestDeltaGapDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddJob(1, fleet.Job{Seeds: []uint64{1}, Seconds: 0.05, TraceEvery: 1}); err != nil {
		t.Fatal(err)
	}
	c := newTracedChip(1)
	base := c.checkpoint(t, s, 1, 10)
	c.run(30)
	whole, err := snapshot.SplitTraced(c.blob(t))
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := whole.Tail(20) // rows 10..19 are nowhere
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordCheckpoint(1, 1, 30, gapped); err == nil {
		t.Fatal("RecordCheckpoint folded a delta past the rows it holds")
	}
	tail := c.result()
	tail.Trace = tail.Trace.Tail(20)
	if err := s.RecordChip(1, tail); err == nil {
		t.Fatal("RecordChip joined a tail past the rows it holds")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The same records written straight into the journal are skipped
	// on replay, and what follows them still applies.
	path := filepath.Join(dir, JournalName)
	for _, rec := range []record{
		{T: "ckpt", Job: 1, Seed: 1, Ticks: 30, Blob: gapped},
		{T: "chip", Job: 1, Chip: &tail},
		{T: "assign", Job: 1, Seed: 1, Worker: "w1"},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		appendBytes(t, path, append(line, '\n'))
	}
	r, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j, _ := r.Job(1)
	if !bytes.Equal(j.Checkpoints[1], base) || j.CheckpointTicks[1] != 10 {
		t.Fatalf("gapped delta replaced the checkpoint (ticks %d)", j.CheckpointTicks[1])
	}
	if _, ok := j.Chips[1]; ok {
		t.Fatal("gapped chip tail was recorded")
	}
	if j.Assignments[1] != "w1" {
		t.Fatal("records after the dropped ones were lost")
	}
}

// TestFailedCheckpointKeepsJournaledRows exhausts the retries of one
// checkpoint append: the store must not count its rows as journaled, so
// the next checkpoint's delta starts where the journal really ends and
// replay recovers it whole.
func TestFailedCheckpointKeepsJournaledRows(t *testing.T) {
	dir := t.TempDir()
	var failing bool
	s, err := Open(dir, Options{NoSync: true,
		Retry: RetryPolicy{MaxAttempts: 2},
		Sleep: func(time.Duration) {},
		WriteHook: func(op string) error {
			if failing {
				return errors.New("injected append failure")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddJob(1, fleet.Job{Seeds: []uint64{1}, Seconds: 0.05, TraceEvery: 1}); err != nil {
		t.Fatal(err)
	}
	c := newTracedChip(1)
	c.checkpoint(t, s, 1, 10)
	failing = true
	c.run(20)
	if err := s.RecordCheckpoint(1, 1, 20, c.blob(t)); err == nil {
		t.Fatal("checkpoint append succeeded through an exhausted retry loop")
	}
	if got := s.jobs[1].journaled[1]; got != 10 {
		t.Fatalf("journaled rows = %d after a failed append, want 10", got)
	}
	failing = false
	last := c.checkpoint(t, s, 1, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs := journalRecords(t, dir)
	if got := rowsFrom(recs[len(recs)-1].Blob); got != 10 {
		t.Fatalf("checkpoint after the failure journals rows from %d, want 10", got)
	}
	r, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j, _ := r.Job(1)
	if !bytes.Equal(j.Checkpoints[1], last) {
		t.Fatal("replay did not recover the checkpoint written after the failure")
	}
}

// TestCompactionWritesWholeCheckpoints compacts a delta journal: every
// checkpoint record it writes is self-contained, the state replays
// unchanged, and checkpoints after compaction journal deltas again.
func TestCompactionWritesWholeCheckpoints(t *testing.T) {
	dir := t.TempDir()
	want := writeTracedJournal(t, dir)
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range journalRecords(t, dir) {
		if rec.T == "ckpt" && rowsFrom(rec.Blob) != 0 {
			t.Fatalf("compaction wrote a delta for seed %d", rec.Seed)
		}
		if rec.T == "chip" && rec.Chip.Trace.From != 0 {
			t.Fatalf("compaction wrote a chip tail for seed %d", rec.Chip.Seed)
		}
	}
	if got := s.Jobs(); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed the jobs")
	}
	st, err := snapshot.Unmarshal(want[0].Checkpoints[2])
	if err != nil {
		t.Fatal(err)
	}
	c := newTracedChip(2)
	c.run(len(st.Trace.Times))
	c.checkpoint(t, s, 1, 45)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, dir)
	if got := rowsFrom(recs[len(recs)-1].Blob); got != 40 {
		t.Fatalf("checkpoint after compaction journals rows from %d, want 40", got)
	}
}
