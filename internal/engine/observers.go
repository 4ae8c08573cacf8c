package engine

// Stock observers: the cross-cutting concerns the hand-rolled loops
// used to wire inline — periodic actions and counter reporting —
// expressed as composable Observer values. Layers with richer needs
// (stop conditions, snapshot checkpointing, trace sampling off a full
// Simulator) build on Funcs and EveryN rather than re-implementing the
// loop.

// Funcs adapts plain functions to Observer; nil fields are no-ops.
type Funcs struct {
	Start func(v View) error
	Tick  func(v View) error
	Stop  func(v View, err error)
}

// OnStart implements Observer.
func (f Funcs) OnStart(v View) error {
	if f.Start == nil {
		return nil
	}
	return f.Start(v)
}

// OnTick implements Observer.
func (f Funcs) OnTick(v View) error {
	if f.Tick == nil {
		return nil
	}
	return f.Tick(v)
}

// OnStop implements Observer.
func (f Funcs) OnStop(v View, err error) {
	if f.Stop != nil {
		f.Stop(v, err)
	}
}

// EveryN invokes Fn after every N-th completed tick (absolute tick
// numbering, so a resumed run fires on the same boundaries as an
// uninterrupted one). N <= 0 disables it.
type EveryN struct {
	N  int
	Fn func(v View) error
}

// OnStart implements Observer.
func (e EveryN) OnStart(View) error { return nil }

// OnTick implements Observer.
func (e EveryN) OnTick(v View) error {
	if e.N <= 0 || v.Tick%e.N != 0 {
		return nil
	}
	return e.Fn(v)
}

// OnStop implements Observer.
func (e EveryN) OnStop(View, error) {}

// CountTicks batches completed-tick counts into Add — typically an
// atomic counter behind a Prometheus metric — every Every ticks
// (default 256), flushing the remainder at stop. Batching keeps the
// shared counter off the per-tick path when many chips run in
// parallel.
type CountTicks struct {
	Every int
	Add   func(delta int64)

	pending int64
}

// OnStart implements Observer.
func (c *CountTicks) OnStart(View) error { return nil }

// OnTick implements Observer.
func (c *CountTicks) OnTick(View) error {
	c.pending++
	every := int64(c.Every)
	if every <= 0 {
		every = 256
	}
	if c.pending >= every {
		c.Add(c.pending)
		c.pending = 0
	}
	return nil
}

// OnStop implements Observer.
func (c *CountTicks) OnStop(View, error) {
	if c.pending > 0 {
		c.Add(c.pending)
		c.pending = 0
	}
}
