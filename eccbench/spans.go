package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one chip or job share
// Owner; Parent is the index of the enclosing span (-1 at the root).
// A per-tick call (chip.Step, control.Tick) is recorded as one
// aggregate span per closed loop: Calls counts the calls and Busy sums
// their durations, while Start/End bracket the loop.
type span struct {
	Name   string        `json:"name"`
	Owner  string        `json:"owner"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Calls  int           `json:"calls,omitempty"`
	Busy   time.Duration `json:"busy_ns,omitempty"`
}

// duration is the time the span accounts for: its busy time for an
// aggregate, its wall interval otherwise.
func (s span) duration() time.Duration {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs share the traced code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, owner string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Owner: owner, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// aggregate records calls calls totalling busy inside [start, end).
func (t *tracer) aggregate(name, owner string, parent int, start, end time.Time, calls int, busy time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Owner: owner, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Calls: calls, Busy: busy})
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.duration()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.duration() - child[i]
	}
	return out
}

// totals sums span durations per name.
func totals(spans []span) map[string]time.Duration {
	dur := make(map[string]time.Duration)
	for _, s := range spans {
		dur[s.Name] += s.duration()
	}
	return dur
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
