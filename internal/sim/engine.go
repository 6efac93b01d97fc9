// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock and a hierarchical timing wheel of
// pending events (see wheel.go) and fires them in (at, seq) order: events
// scheduled for the same instant fire in scheduling order, which—together
// with seeded random streams (see rng.go)—makes every run with the same
// seed bit-for-bit reproducible. All Tango experiments are built on this
// property: the paper's eight-day Internet measurement is replaced by a
// virtual-time trace that can be regenerated exactly. The *Event a
// schedule returns is a handle that stays valid until the event fires or
// is cancelled (see Engine.Cancel).
//
// An engine runs on one goroutine at a time. Simulated components never
// block; they schedule continuations instead. This mirrors how an eBPF
// program or a switch pipeline is written (run-to-completion handlers) and
// avoids all locking on the simulation hot path. A Coordinator (see
// coordinator.go) advances the partition engines of one network in
// epochs, concurrently when it has several; engines of different networks
// share nothing, so internal/experiments' runner runs one experiment per
// goroutine.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant in virtual time, expressed as the duration elapsed
// since the start of the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Forever is a Time later than any event a simulation will schedule.
const Forever Time = math.MaxInt64

// Event lifecycle states (Event.state).
const (
	stateBucketed int8 = 1  // pending, in the bucket chain at (level, slot)
	stateDue      int8 = 2  // pending, in the due heap
	stateDone     int8 = -1 // fired, cancelled, or on the freelist
)

// Event is a scheduled callback. The callback runs exactly once, at the
// scheduled virtual time, unless cancelled first.
//
// An event carries either a plain closure (fn) or a closure-free
// (handler, payload) pair — the latter is the packet fast path: a link
// schedules delivery by storing itself and the packet buffer directly in
// the event, so per-packet scheduling allocates nothing (both fields are
// single pointers; neither boxing a pointer into an interface nor the
// freelist reuse below touches the heap).
type Event struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among events at the same instant
	fn      func()
	handler ArgHandler
	arg     any
	next    *Event // bucket chain / freelist link
	prev    *Event // bucket chain back link
	state   int8
	level   uint8 // bucket of a stateBucketed event
	slot    uint8
}

// ArgHandler consumes payload-carrying events scheduled with ScheduleArg.
// Implementations are long-lived objects (a link direction, a port); the
// engine stores the receiver itself in the event rather than a closure
// over it.
type ArgHandler interface {
	// OnSimEvent runs at the event's scheduled instant with the payload
	// that was scheduled. Ownership conventions for the payload are the
	// scheduler's business; a cancelled event's payload is dropped
	// without a callback.
	OnSimEvent(arg any)
}

// Engine is a discrete-event simulator. The zero value is not ready for
// use; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	w       wheel
	nlive   int // pending, non-cancelled events
	running bool
	free    *Event // freelist to avoid per-event allocation in long runs

	// next and hasNext cache NextAt's answer while nextOK; push, fire and
	// Cancel clear nextOK, so the coupled interleave re-peeks only
	// partitions whose queue changed.
	next    Time
	hasNext bool
	nextOK  bool

	// coord/part are set when the engine is one partition of a sharded
	// simulation (see coordinator.go); standalone engines leave them zero.
	coord *Coordinator
	part  int

	// Stats counts engine activity; useful in tests and benchmarks.
	Stats struct {
		Fired     uint64
		Cancelled uint64
		DuePeak   uint64 // largest due set so far: events the cursor had already passed
	}
}

// NewEngine returns an engine with the clock at the simulation epoch.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Coord returns the coordinator this engine is a partition of, or nil for
// a standalone engine.
func (e *Engine) Coord() *Coordinator { return e.coord }

// Part returns the engine's partition index (0 for standalone engines).
func (e *Engine) Part() int { return e.part }

// advanceTo moves the clock forward to t without firing anything. Only
// the coordinator calls it, and only when it has proven no event earlier
// than t is pending on this engine.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero (fn runs at the current instant, after already-queued
// events for this instant); a delay so large that now+d overflows virtual
// time clamps to Forever instead of silently wrapping into the past.
// The returned Event may be cancelled.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	return e.scheduleAt(e.deadline(d), fn)
}

// ScheduleAt runs fn at absolute virtual time t. Scheduling in the past is
// an error that indicates broken component logic, so it panics.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past (now %v)", t, e.now))
	}
	return e.scheduleAt(t, fn)
}

func (e *Engine) scheduleAt(t Time, fn func()) *Event {
	ev := e.push(t)
	ev.fn = fn
	return ev
}

// ScheduleArg runs h.OnSimEvent(arg) after delay d of virtual time, like
// Schedule but without a closure: the (handler, payload) pair rides the
// event itself, so scheduling through the event freelist is
// allocation-free. Negative and overflowing delays clamp as in Schedule.
func (e *Engine) ScheduleArg(d time.Duration, h ArgHandler, arg any) *Event {
	if h == nil {
		panic("sim: ScheduleArg with nil handler")
	}
	return e.scheduleArgAt(e.deadline(d), h, arg)
}

// ScheduleArgAt is ScheduleArg at an absolute virtual time. Scheduling in
// the past panics, as with ScheduleAt.
func (e *Engine) ScheduleArgAt(t Time, h ArgHandler, arg any) *Event {
	if h == nil {
		panic("sim: ScheduleArgAt with nil handler")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleArgAt(%v) in the past (now %v)", t, e.now))
	}
	return e.scheduleArgAt(t, h, arg)
}

func (e *Engine) scheduleArgAt(t Time, h ArgHandler, arg any) *Event {
	ev := e.push(t)
	ev.handler = h
	ev.arg = arg
	return ev
}

// deadline converts a relative delay into an absolute instant, clamping
// negative delays to "now" and overflowing ones to Forever. Without the
// overflow clamp, now+d wraps negative for delays near Forever and the
// event silently schedules in the past, firing immediately and out of
// order.
func (e *Engine) deadline(d time.Duration) Time {
	if d < 0 {
		return e.now
	}
	t := e.now + d
	if t < e.now {
		return Forever
	}
	return t
}

func (e *Engine) push(t Time) *Event {
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	e.w.place(e, ev)
	e.nlive++
	e.nextOK = false
	return ev
}

// Cancel prevents a scheduled event from firing. A handle is valid until
// its event fires or is cancelled: the engine recycles the Event at that
// point (a fired one before its callback runs), so a fired or cancelled
// handle must never be cancelled. Cancelling nil is a no-op.
//
// A bucketed event is unlinked and recycled at once. An event already in
// the due heap is left there as a tombstone, which peek recycles when it
// reaches the root; it precedes every bucketed event, so it leaves the
// heap by the time the clock passes its instant.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state == stateDone {
		return
	}
	ev.fn, ev.handler, ev.arg = nil, nil, nil
	e.nlive--
	e.Stats.Cancelled++
	e.nextOK = false
	if ev.state == stateBucketed {
		e.w.unlink(ev)
		e.release(ev)
	}
	ev.state = stateDone
}

// noteDue records the due set's high-water mark.
func (e *Engine) noteDue() {
	if n := uint64(len(e.w.due)); n > e.Stats.DuePeak {
		e.Stats.DuePeak = n
	}
}

// peek returns the earliest pending event without firing it, advancing
// the wheel cursor (but never the clock) as needed. Tombstones surfacing
// at the due heap's root are recycled on the way.
func (e *Engine) peek() *Event {
	w := &e.w
	for len(w.due) > 0 {
		ev := w.due[0]
		if ev.state != stateDone {
			return ev
		}
		w.popDue()
		e.release(ev)
	}
	if e.nlive == 0 {
		return nil
	}
	w.refill(e)
	return w.due[0]
}

// Step fires the single earliest pending event, advancing the clock to its
// instant. It reports whether an event was fired.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

func (e *Engine) fire(ev *Event) {
	e.w.popDue()
	ev.state = stateDone
	e.nlive--
	e.nextOK = false
	e.now = ev.at
	fn, h, arg := ev.fn, ev.handler, ev.arg
	ev.fn, ev.handler, ev.arg = nil, nil, nil
	e.release(ev)
	e.Stats.Fired++
	if fn != nil {
		fn()
	} else {
		h.OnSimEvent(arg)
	}
}

// Run fires events until the queue drains or the clock would pass until.
// It returns the number of events fired. Events scheduled exactly at until
// are fired; later ones remain queued and the clock is left at until.
func (e *Engine) Run(until Time) (fired int) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		ev := e.peek()
		if ev == nil || ev.at > until {
			break
		}
		e.fire(ev)
		fired++
	}
	if until != Forever && e.now < until {
		e.now = until
	}
	return fired
}

// RunAll fires events until the queue drains. Unlike Run, it leaves the
// clock at the last fired event's instant.
func (e *Engine) RunAll() (fired int) { return e.Run(Forever) }

// NextAt returns the virtual time of the earliest pending event, or
// (Forever, false) if the queue is empty. It peeks only when the queue
// changed since the last call.
func (e *Engine) NextAt() (Time, bool) {
	if !e.nextOK {
		e.repeek()
	}
	return e.next, e.hasNext
}

// repeek refreshes NextAt's cache. It stays out of NextAt so that NextAt
// inlines into the coupled interleave's per-event scan.
func (e *Engine) repeek() {
	e.next, e.hasNext, e.nextOK = Forever, false, true
	if ev := e.peek(); ev != nil {
		e.next, e.hasNext = ev.at, true
	}
}

func (e *Engine) alloc() *Event {
	if e.free == nil {
		return &Event{}
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns ev to the freelist. The list is uncapped: it can never
// hold more events than were once pending at the same instant, which is
// memory the run already needed.
func (e *Engine) release(ev *Event) {
	ev.next = e.free
	e.free = ev
}
