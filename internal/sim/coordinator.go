package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator advances a set of partition engines over one shared virtual
// timeline. Every simulated network runs under one: a large mesh is
// partitioned into P engines (one per low-delay cluster of nodes), a
// small topology is one partition, and the coordinator runs them either
//
//   - coupled: a sequential interleave that fires the globally earliest
//     event across all partitions, tie-broken by (time, partition index,
//     scheduling order). Clocks stay synchronized at every fire, so event
//     callbacks may freely touch components on other partitions — this is
//     the mode for construction, BGP convergence, and Tango establishment,
//     whose setup logic makes direct cross-site calls, and the only mode
//     of a one-partition network, which runs its engine directly; or
//
//   - parallel: conservative lock-stepped epochs of at most the lookahead
//     (the minimum delay of any cross-partition link or session), which a
//     deployment enters once established (core.Deploy).
//     Within an epoch [T, T+L) no partition can affect another before T+L,
//     so W worker goroutines advance partitions independently; cross-
//     partition events accumulate in per-partition outboxes and are drained
//     at the barrier source by source, each outbox in append order.
//
// Both modes produce results that are independent of the worker count:
// coupled mode is sequential by construction, and parallel mode schedules
// every cross-partition event in an order derived only from partition
// indices and each partition's own scheduling order, never from goroutine
// arrival. The partition count itself is a property of the topology (see
// topo.PartitionGraph), not of the worker knob, so "1 shard" and "N
// shards" runs execute identical event sequences.
type Coordinator struct {
	parts     []*Engine
	lookahead time.Duration
	workers   int
	parallel  bool
	now       Time
	running   bool

	// inEpoch is true only while parallel epoch workers are running; it
	// routes CrossScheduleAt through the outboxes. Written strictly
	// before worker launch and after the join, so workers read it safely.
	inEpoch bool

	outbox [][]crossMsg
	hooks  []barrierHook

	// Stats counts coordinator activity for tests and benchmarks.
	Stats struct {
		Epochs   uint64
		CrossMsg uint64
		DrainMax uint64 // largest single barrier batch
	}
}

// crossMsg is one cross-partition event waiting for the next barrier.
type crossMsg struct {
	at  Time
	dst int32
	h   ArgHandler
	arg any
}

type barrierHook struct {
	every time.Duration
	next  Time
	fn    func(Time)
}

// CrossPrepper is implemented by ArgHandlers whose cross-partition payload
// must be materialized on the destination side. PrepareCross runs single-
// threaded at the barrier, before the event is scheduled on the
// destination engine; the returned value replaces the payload. The packet
// layer uses this to move a staged buffer's bytes into a buffer leased
// from the destination partition's pool, keeping pools single-goroutine.
type CrossPrepper interface {
	PrepareCross(arg any) any
}

// NewCoordinator creates parts fresh engines sharing one timeline.
// lookahead is the conservative synchronization horizon: the minimum
// virtual delay of any cross-partition interaction (0 disables parallel
// mode, which is the correct degenerate case for a single partition).
func NewCoordinator(parts int, lookahead time.Duration) *Coordinator {
	if parts < 1 {
		panic("sim: NewCoordinator needs at least one partition")
	}
	c := &Coordinator{lookahead: lookahead, workers: 1}
	c.parts = make([]*Engine, parts)
	c.outbox = make([][]crossMsg, parts)
	for i := range c.parts {
		e := NewEngine()
		e.coord = c
		e.part = i
		c.parts[i] = e
	}
	return c
}

// Part returns partition engine i.
func (c *Coordinator) Part(i int) *Engine { return c.parts[i] }

// NumParts returns the partition count.
func (c *Coordinator) NumParts() int { return len(c.parts) }

// Lookahead returns the synchronization horizon.
func (c *Coordinator) Lookahead() time.Duration { return c.lookahead }

// SetWorkers sets how many goroutines advance partitions in parallel
// epochs. Values are clamped to [1, partitions]. The worker count never
// affects results, only wall-clock time.
func (c *Coordinator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(c.parts) {
		n = len(c.parts)
	}
	c.workers = n
}

// EnterParallel switches subsequent Runs to parallel epochs. It is a
// no-op (the coordinator stays coupled) when there is only one partition
// or no positive lookahead. Call between runs, never from a callback.
func (c *Coordinator) EnterParallel() {
	if c.running {
		panic("sim: EnterParallel during Run")
	}
	if len(c.parts) > 1 && c.lookahead > 0 {
		c.parallel = true
	}
}

// Parallel reports whether parallel epochs are active.
func (c *Coordinator) Parallel() bool { return c.parallel }

// AtBarrier registers fn to run single-threaded at epoch barriers. With
// every > 0 it fires once per period at the nominal tick instant: every
// epoch ends at the next tick, so fn runs after every event at or before
// its instant and before any later one, like a Ticker that fires last.
// With every <= 0 fn fires at every barrier with the barrier time; where
// barriers fall depends on the mode and the other hooks, so such a hook
// (a staged merge) must give the same result however the run is cut.
// Hooks run after the cross-partition drain, in registration order — a
// consumer of merged state registers after the merge (a journal's), or
// merges first itself, as chaos checks do before recording a violation.
// Call between runs, never from a callback.
func (c *Coordinator) AtBarrier(every time.Duration, fn func(Time)) {
	if c.running {
		panic("sim: AtBarrier during Run")
	}
	h := barrierHook{every: every, fn: fn}
	if every > 0 {
		h.next = c.now + every
	}
	c.hooks = append(c.hooks, h)
}

// Run advances all partitions to the finite virtual time until. Every
// epoch ends at until or the next periodic hook's tick, whichever comes
// first; a parallel epoch also ends one lookahead after it starts, while
// a coupled epoch schedules cross events directly and so spans idle time
// for free. Barriers — cross-partition drains plus hooks — run at every
// epoch boundary in both modes, so hook cadence does not depend on the
// worker count.
func (c *Coordinator) Run(until Time) {
	if c.running {
		panic("sim: re-entrant Coordinator.Run")
	}
	if until == Forever {
		panic("sim: Coordinator.Run(Forever): sharded runs need a finite horizon")
	}
	c.running = true
	defer func() { c.running = false }()
	for c.now < until {
		end := min(until, c.nextTick(), c.horizon())
		if c.parallel {
			c.runEpochParallel(end)
		} else {
			c.runEpochCoupled(end)
		}
		c.now = end
		c.Stats.Epochs++
		c.drain()
		c.fireHooks(end)
	}
}

// horizon is the latest end of an epoch starting now: one lookahead
// ahead in parallel mode, unbounded in coupled mode.
func (c *Coordinator) horizon() Time {
	if c.parallel {
		return c.now + c.lookahead
	}
	return Forever
}

// nextTick returns the earliest pending tick of the periodic hooks, or
// Forever when there is none.
func (c *Coordinator) nextTick() Time {
	next := Forever
	for i := range c.hooks {
		if h := &c.hooks[i]; h.every > 0 {
			next = min(next, h.next)
		}
	}
	return next
}

// runEpochCoupled fires the globally earliest event until none remain at
// or before end, keeping every partition clock at the global fire instant
// so cross-partition reads and schedules behave as on a single engine.
// The only partition of a one-partition network simply runs to end, so
// coupling costs it nothing per event.
func (c *Coordinator) runEpochCoupled(end Time) {
	if len(c.parts) == 1 {
		c.parts[0].Run(end)
		return
	}
	// Every clock is at c.now here. Events cluster on a few instants (BGP
	// session delays and MRAI timers share values), so the clocks move
	// only when the instant does; NextAt peeks only at partitions whose
	// queue changed since it last answered.
	now := c.now
	for {
		best := -1
		at := Forever
		for i, e := range c.parts {
			if t, ok := e.NextAt(); ok && t < at {
				at, best = t, i
			}
		}
		if best < 0 || at > end {
			break
		}
		if at > now {
			for _, e := range c.parts {
				e.advanceTo(at)
			}
			now = at
		}
		if !c.parts[best].Step() {
			panic(fmt.Sprintf("sim: coupled interleave picked partition %d, which has no event", best))
		}
	}
	for _, e := range c.parts {
		e.advanceTo(end)
	}
}

// runEpochParallel advances every partition to end on a worker pool.
// Partitions are claimed from an atomic counter, so slow partitions do
// not serialize behind fast ones beyond the epoch barrier itself.
func (c *Coordinator) runEpochParallel(end Time) {
	w := c.workers
	if w > len(c.parts) {
		w = len(c.parts)
	}
	// inEpoch stays set even for one worker: cross events must take the
	// outbox path in every parallel run, or their destination-side
	// scheduling order would depend on the worker count.
	c.inEpoch = true
	if w <= 1 {
		for _, e := range c.parts {
			e.Run(end)
		}
		c.inEpoch = false
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.parts) {
					return
				}
				c.parts[i].Run(end)
			}
		}()
	}
	wg.Wait()
	c.inEpoch = false
}

// drain moves every outbox message onto its destination engine, source
// partition by source partition, each outbox in append order. No sort is
// needed: a destination fires by (at, seq), and seq is assigned here, so
// messages with different times fire in time order whatever order they
// arrive in, and messages with equal times get their seq in (source,
// append) order — which depends only on the partition index and each
// partition's own scheduling order, so the destination-side event
// sequence is identical for every worker count.
func (c *Coordinator) drain() {
	var n uint64
	for i, ob := range c.outbox {
		for j := range ob {
			m := &ob[j]
			if p, ok := m.h.(CrossPrepper); ok {
				m.arg = p.PrepareCross(m.arg)
			}
			dst := c.parts[m.dst]
			if m.at < dst.Now() {
				panic(fmt.Sprintf("sim: lookahead violation: cross event at %v behind partition %d clock %v",
					m.at, m.dst, dst.Now()))
			}
			dst.ScheduleArgAt(m.at, m.h, m.arg)
			m.h, m.arg = nil, nil
		}
		n += uint64(len(ob))
		c.outbox[i] = ob[:0]
	}
	c.Stats.CrossMsg += n
	if n > c.Stats.DrainMax {
		c.Stats.DrainMax = n
	}
}

func (c *Coordinator) fireHooks(now Time) {
	for i := range c.hooks {
		h := &c.hooks[i]
		if h.every <= 0 {
			h.fn(now)
			continue
		}
		if h.next == now {
			h.fn(now)
			h.next += h.every
		}
	}
}

// CrossScheduleAt schedules h.OnSimEvent(arg) at absolute virtual time at
// on dst's timeline, callable from an event running on src. On the same
// engine, without a coordinator, or in coupled mode it degrades to a
// direct schedule (clocks are synchronized, so this is exact); during a
// parallel epoch it stages the event in src's outbox for the barrier.
// Either way a CrossPrepper handler sees PrepareCross exactly once before
// the event lands on dst, so handlers observe one payload contract in
// every mode.
func CrossScheduleAt(src, dst *Engine, at Time, h ArgHandler, arg any) {
	c := src.coord
	if src == dst || c == nil || c != dst.coord || !c.inEpoch {
		if p, ok := h.(CrossPrepper); ok {
			arg = p.PrepareCross(arg)
		}
		dst.ScheduleArgAt(at, h, arg)
		return
	}
	c.outbox[src.part] = append(c.outbox[src.part], crossMsg{at: at, dst: int32(dst.part), h: h, arg: arg})
}
