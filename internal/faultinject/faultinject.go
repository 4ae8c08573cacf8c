// Package faultinject is the repo's seeded, deterministic fault
// injector: it delivers the adversity the paper claims the design
// survives (§V-D robustness: voltage noise, a resonance-seeking virus,
// the 80% emergency path) plus the infrastructure failures a
// production-scale daemon must absorb (worker panics, journal I/O
// errors, slow disks).
//
// Faults live on three planes:
//
//   - Simulated-hardware faults ride the observer engine: an Injector
//     hands out one engine.Observer per chip, and at the planned tick
//     that observer flips the target — a monitor's fault mode
//     (internal/monitor), a rail's external disturbance (internal/pdn)
//     — or panics the worker outright. The simulation itself stays
//     untouched; with no plan the observer list is empty and every
//     output is byte-identical to an uninjected run.
//
//   - Infrastructure faults intercept the store's journal writes via
//     Options.WriteHook: an operation counter indexes every
//     append/fsync, and planned windows of that index return errors or
//     inject latency.
//
//   - Network faults intercept cluster RPCs via an http.RoundTripper
//     wrapper (Injector.Transport) and a net.Listener wrapper
//     (Injector.Listener): a per-endpoint attempt counter indexes every
//     RPC, and planned windows of that index partition the link, black-
//     hole or slow it, or tear the streamed NDJSON response (reset,
//     truncate, duplicate lines). The hardened cluster tier must retry,
//     dedupe, and migrate its way back to byte-identical results.
//
// Everything is replayable: a Plan is plain data (JSON-serializable),
// all randomness downstream of a fault (retry jitter) derives from the
// plan seed, and the injector's event log is sorted deterministically —
// the same plan and seed produce byte-identical outcomes, which the
// chaos tests assert.
package faultinject

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/monitor"
)

// Kind names a fault class.
type Kind string

const (
	// MonitorStuckZero breaks a domain monitor's error datapath: probes
	// still run but report zero errors. The controller's self-test
	// cross-check must catch it before the rail walks off the cliff.
	MonitorStuckZero Kind = "monitor-stuck-zero"
	// MonitorDropout kills a domain's monitor: probes do nothing and
	// its counters freeze (a stale error rate forever). The
	// controller's stall watchdog must catch it.
	MonitorDropout Kind = "monitor-dropout"
	// DUEBurst makes the monitored line fail hard for the window: every
	// probe raises an uncorrectable event, driving the paper's
	// emergency interrupt path.
	DUEBurst Kind = "due-burst"
	// PDNTransient injects an extra rail droop (a regulator transient)
	// for the window, on top of the model's load-driven droop.
	PDNTransient Kind = "pdn-transient"
	// WorkerPanic panics the fleet worker simulating the target chip at
	// the start tick; the fleet must convert it to a per-chip error.
	WorkerPanic Kind = "worker-panic"
	// StoreError fails journal operations whose index falls in the
	// window; the store's bounded retry must ride it out (or surface a
	// clean error that flips the daemon into degraded mode).
	StoreError Kind = "store-error"
	// StoreSlow delays journal operations in the window by DelayMs.
	StoreSlow Kind = "store-slow"
	// NetPartition fails matched RPC attempts outright with a
	// connection-refused-style dial error (the link is down). With
	// Target "accept" it instead rides the server's listener and
	// resets matched incoming connections — a coordinator-restart /
	// refusal window as seen by clients.
	NetPartition Kind = "net-partition"
	// NetBlackhole holds matched RPC attempts for DelayMs and then
	// fails them with a timeout error — packets silently dropped, the
	// failure mode only a bounded client timeout can catch.
	NetBlackhole Kind = "net-blackhole"
	// NetSlow delays matched RPC attempts by DelayMs, then forwards
	// them — a congested or lossy link that still works.
	NetSlow Kind = "net-slow"
	// NetResetStream forwards the request but errors the response body
	// with a connection reset after Line complete NDJSON lines — a
	// mid-exec-stream cut.
	NetResetStream Kind = "net-reset-stream"
	// NetTruncateStream ends the response body with a clean EOF after
	// Line complete lines — a torn tail the reader cannot distinguish
	// from a finished stream except by the missing "done" event.
	NetTruncateStream Kind = "net-truncate-stream"
	// NetDupEvents delivers every NDJSON response line twice — a
	// replayed stream tail that idempotent, sequence-numbered event
	// handling must dedupe instead of double-applying.
	NetDupEvents Kind = "net-dup-events"
)

// simKinds are the fault kinds delivered through a chip's observer.
func (k Kind) sim() bool {
	switch k {
	case MonitorStuckZero, MonitorDropout, DUEBurst, PDNTransient, WorkerPanic:
		return true
	}
	return false
}

// store reports whether the kind intercepts journal operations.
func (k Kind) store() bool { return k == StoreError || k == StoreSlow }

// net reports whether the kind intercepts cluster RPCs.
func (k Kind) net() bool {
	switch k {
	case NetPartition, NetBlackhole, NetSlow, NetResetStream, NetTruncateStream, NetDupEvents:
		return true
	}
	return false
}

// stream reports whether the kind tears the streamed response body
// (rather than the request attempt itself).
func (k Kind) stream() bool {
	return k == NetResetStream || k == NetTruncateStream || k == NetDupEvents
}

// valid reports whether the kind is known.
func (k Kind) valid() bool { return k.sim() || k.store() || k.net() }

// Fault is one planned fault. Interpretation of Start/Duration depends
// on the plane: simulated-hardware faults count control ticks (absolute
// tick numbering, matching engine.View.Tick), store faults count
// journal operations (every append and fsync increments the index),
// and network faults count RPC attempts per endpoint (every request to
// a Target increments that target's index; retries draw fresh indices,
// so a window of Duration expires after Duration failing attempts).
type Fault struct {
	Kind Kind `json:"kind"`
	// Domain targets a voltage domain (hardware-plane faults only).
	Domain int `json:"domain,omitempty"`
	// Chip restricts the fault to the chip with this seed; 0 targets
	// every chip in the fleet.
	Chip uint64 `json:"chip,omitempty"`
	// Start is the first tick (hardware plane), journal-operation index
	// (store plane), or RPC-attempt index (network plane) at which the
	// fault is active.
	Start int `json:"start"`
	// Duration is how many ticks/operations/attempts the fault lasts; 0
	// means permanent (and for WorkerPanic, which is instantaneous,
	// ignored).
	Duration int `json:"duration,omitempty"`
	// DroopV is the injected droop in volts (PDNTransient only).
	DroopV float64 `json:"droop_v,omitempty"`
	// DelayMs is the injected latency in milliseconds (StoreSlow,
	// NetSlow, NetBlackhole).
	DelayMs int `json:"delay_ms,omitempty"`
	// Target restricts a network fault to RPCs whose URL path ends in
	// this segment ("exec", "register", "heartbeat", "members"); ""
	// matches every endpoint. The special target "accept" puts a
	// net-partition on the server's listener instead of the client.
	Target string `json:"target,omitempty"`
	// Line is the number of complete NDJSON lines delivered before a
	// stream fault cuts the body (NetResetStream, NetTruncateStream);
	// 0 cuts before the first line.
	Line int `json:"line,omitempty"`
}

// String renders the fault for event logs.
func (f Fault) String() string {
	s := string(f.Kind)
	if f.Kind.sim() && f.Kind != WorkerPanic {
		s += fmt.Sprintf(" domain %d", f.Domain)
	}
	if f.Kind == PDNTransient {
		s += fmt.Sprintf(" (%+.0f mV)", -1000*f.DroopV)
	}
	if f.Kind.net() {
		if f.Target != "" {
			s += " " + f.Target
		}
		if f.DelayMs > 0 {
			s += fmt.Sprintf(" (%d ms)", f.DelayMs)
		}
		if f.Kind == NetResetStream || f.Kind == NetTruncateStream {
			s += fmt.Sprintf(" after line %d", f.Line)
		}
	}
	return s
}

// Plan is a replayable fault scenario: a seed for all downstream
// randomness (retry jitter) and the fault list. Plain data — marshal it,
// store it, hand it to a daemon flag — and the outcome reproduces.
type Plan struct {
	Seed   uint64  `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault for a known kind and sane window.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if !f.Kind.valid() {
			return fmt.Errorf("faultinject: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Start < 0 || f.Duration < 0 {
			return fmt.Errorf("faultinject: fault %d (%s): negative start or duration", i, f.Kind)
		}
		if f.Domain < 0 {
			return fmt.Errorf("faultinject: fault %d (%s): negative domain", i, f.Kind)
		}
		if f.Kind == PDNTransient && f.DroopV == 0 {
			return fmt.Errorf("faultinject: fault %d: pdn-transient with zero droop", i)
		}
		if f.Kind == StoreSlow && f.DelayMs <= 0 {
			return fmt.Errorf("faultinject: fault %d: store-slow with non-positive delay", i)
		}
		if (f.Kind == NetSlow || f.Kind == NetBlackhole) && f.DelayMs <= 0 {
			return fmt.Errorf("faultinject: fault %d: %s with non-positive delay", i, f.Kind)
		}
		if f.Line < 0 {
			return fmt.Errorf("faultinject: fault %d (%s): negative line", i, f.Kind)
		}
		if f.Target != "" && !f.Kind.net() {
			return fmt.Errorf("faultinject: fault %d (%s): target is a network-plane field", i, f.Kind)
		}
		if f.Target == "accept" && f.Kind != NetPartition {
			return fmt.Errorf("faultinject: fault %d: target \"accept\" only supports net-partition", i)
		}
	}
	return nil
}

// HasStoreFaults reports whether any fault intercepts the journal.
func (p Plan) HasStoreFaults() bool {
	for _, f := range p.Faults {
		if f.Kind.store() {
			return true
		}
	}
	return false
}

// HasNetFaults reports whether any fault intercepts cluster RPCs.
func (p Plan) HasNetFaults() bool {
	for _, f := range p.Faults {
		if f.Kind.net() {
			return true
		}
	}
	return false
}

// LoadPlan reads and validates a JSON plan file.
func LoadPlan(path string) (Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faultinject: %w", err)
	}
	return ParsePlan(raw)
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(raw []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return Plan{}, fmt.Errorf("faultinject: bad plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Event records one injector action, for reports and determinism tests.
type Event struct {
	// Chip is the chip seed the event applied to (0 for store events).
	Chip uint64 `json:"chip,omitempty"`
	// Tick is the control tick (hardware plane), journal operation
	// index (store plane), or per-endpoint RPC attempt index (network
	// plane) of the event.
	Tick int `json:"tick"`
	// Phase is "apply", "clear", or "skip" (target had no active
	// monitor — e.g. the domain already failed safe).
	Phase string `json:"phase"`
	// Fault describes what was injected.
	Fault Fault `json:"fault"`
}

// Injector owns a plan and produces the hooks that deliver it: one
// engine.Observer per chip for the hardware plane, one StoreHook for
// the journal plane. Safe for concurrent use by fleet workers.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	events []Event

	storeOps atomic.Int64
}

// New validates the plan and builds an injector for it.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Seed returns the plan seed — the root for all randomness downstream
// of a fault (e.g. store retry jitter).
func (in *Injector) Seed() uint64 { return in.plan.Seed }

func (in *Injector) record(ev Event) {
	in.mu.Lock()
	in.events = append(in.events, ev)
	in.mu.Unlock()
}

// Events returns a copy of the event log, sorted by (chip, tick, fault
// string, phase) so reports are deterministic even when fleet workers
// recorded concurrently.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.events...)
	in.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Chip != b.Chip {
			return a.Chip < b.Chip
		}
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		as, bs := a.Fault.String(), b.Fault.String()
		if as != bs {
			return as < bs
		}
		return a.Phase < b.Phase
	})
	return out
}

// simulator is the surface the hardware-plane observer needs;
// *eccspec.Simulator implements it. Declared here so the injector does
// not depend on the root package.
type simulator interface {
	Chip() *chip.Chip
	Control() *control.System
}

// Observer returns the hardware-plane observer for the chip with the
// given seed: at each planned fault's start tick it applies the fault,
// and at start+duration it clears it. Chips a plan does not target get
// an observer that never fires; callers may attach it unconditionally.
func (in *Injector) Observer(chipSeed uint64) engine.Observer {
	var faults []Fault
	for _, f := range in.plan.Faults {
		if f.Kind.sim() && (f.Chip == 0 || f.Chip == chipSeed) {
			faults = append(faults, f)
		}
	}
	return &simObserver{in: in, chip: chipSeed, faults: faults}
}

type simObserver struct {
	in     *Injector
	chip   uint64
	faults []Fault
}

func (o *simObserver) OnStart(engine.View) error { return nil }
func (o *simObserver) OnStop(engine.View, error) {}

func (o *simObserver) OnTick(v engine.View) error {
	for _, f := range o.faults {
		if v.Tick == f.Start {
			o.deliver(v, f, true)
		} else if f.Duration > 0 && v.Tick == f.Start+f.Duration {
			o.deliver(v, f, false)
		}
	}
	return nil
}

// deliver applies (or clears) one fault on the simulator under test.
func (o *simObserver) deliver(v engine.View, f Fault, apply bool) {
	if f.Kind == WorkerPanic {
		if apply {
			o.in.record(Event{Chip: o.chip, Tick: v.Tick, Phase: "apply", Fault: f})
			panic(fmt.Sprintf("faultinject: planned worker panic at tick %d (chip %d)", v.Tick, o.chip))
		}
		return
	}
	sim, ok := v.Sim.(simulator)
	if !ok {
		o.in.record(Event{Chip: o.chip, Tick: v.Tick, Phase: "skip", Fault: f})
		return
	}
	c := sim.Chip()
	if f.Domain >= len(c.Domains) {
		o.in.record(Event{Chip: o.chip, Tick: v.Tick, Phase: "skip", Fault: f})
		return
	}
	phase := "apply"
	if !apply {
		phase = "clear"
	}
	switch f.Kind {
	case PDNTransient:
		rail := c.Domains[f.Domain].Rail
		if apply {
			rail.SetDisturbance(f.DroopV)
		} else {
			rail.SetDisturbance(0)
		}
	default: // monitor faults
		mon, ok := sim.Control().ActiveMonitor(f.Domain).(*monitor.Monitor)
		if !ok {
			// No active hardware monitor: never calibrated, firmware
			// prober, or the domain already failed safe.
			o.in.record(Event{Chip: o.chip, Tick: v.Tick, Phase: "skip", Fault: f})
			return
		}
		mode := monitor.FaultNone
		if apply {
			switch f.Kind {
			case MonitorStuckZero:
				mode = monitor.FaultStuckZero
			case MonitorDropout:
				mode = monitor.FaultDropout
			case DUEBurst:
				mode = monitor.FaultDUE
			}
		}
		mon.SetFault(mode)
	}
	o.in.record(Event{Chip: o.chip, Tick: v.Tick, Phase: phase, Fault: f})
}

// StoreHook returns a store.Options.WriteHook delivering the plan's
// journal faults. Every call advances a shared operation index; a fault
// is active while the index lies in [Start, Start+Duration) (Duration 0
// = permanent). Note that retried operations draw fresh indices, so an
// error window expires after Duration failing operations — exactly what
// a bounded-retry loop needs to prove it rides out a burst.
func (in *Injector) StoreHook() func(op string) error {
	var faults []Fault
	for _, f := range in.plan.Faults {
		if f.Kind.store() {
			faults = append(faults, f)
		}
	}
	if len(faults) == 0 {
		return nil
	}
	return func(op string) error {
		n := int(in.storeOps.Add(1) - 1)
		for _, f := range faults {
			if n < f.Start || (f.Duration > 0 && n >= f.Start+f.Duration) {
				continue
			}
			in.record(Event{Tick: n, Phase: "apply", Fault: f})
			switch f.Kind {
			case StoreSlow:
				time.Sleep(time.Duration(f.DelayMs) * time.Millisecond)
			case StoreError:
				return fmt.Errorf("faultinject: injected %s error at journal op %d", op, n)
			}
		}
		return nil
	}
}
