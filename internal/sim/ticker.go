package sim

import "time"

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It is the building block for probe generators and controller decision
// loops. The callback receives the tick's virtual time.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func(Time)
	ev     *Event // the pending tick; nil while a tick runs and after Stop
	stop   bool
}

// NewTicker schedules fn every period, with the first tick after one full
// period. Period must be positive.
func NewTicker(eng *Engine, period time.Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.ev = eng.ScheduleArg(period, t, nil)
	return t
}

// OnSimEvent runs one tick and schedules the next. It implements
// ArgHandler; only the engine calls it.
func (t *Ticker) OnSimEvent(any) {
	t.ev = nil // fired: the engine has recycled it
	t.fn(t.eng.Now())
	if !t.stop {
		t.ev = t.eng.ScheduleArg(t.period, t, nil)
	}
}

// Stop cancels future ticks. Safe to call from inside the callback.
func (t *Ticker) Stop() {
	t.stop = true
	t.eng.Cancel(t.ev)
	t.ev = nil
}

// Clock is a node-local wall clock: virtual time plus a constant offset.
// Tango's one-way-delay measurement reads the sender clock when
// encapsulating and the receiver clock when decapsulating; modelling
// per-node offsets lets tests verify the paper's claim that a constant
// offset cancels out of path *comparisons*.
type Clock struct {
	eng    *Engine
	offset time.Duration
}

// NewClock returns a clock reading eng.Now() + offset.
func NewClock(eng *Engine, offset time.Duration) *Clock {
	return &Clock{eng: eng, offset: offset}
}

// Now returns the node-local wall-clock reading in nanoseconds.
func (c *Clock) Now() int64 { return int64(c.eng.Now()) + int64(c.offset) }

// Offset returns the configured constant offset.
func (c *Clock) Offset() time.Duration { return c.offset }
