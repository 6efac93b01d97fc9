package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Ref is the binary-heap reference scheduler: the exact event-queue
// implementation the timing wheel replaced, preserved with the Engine's
// semantics (same (at, seq) total order, same clock rules, same negative
// and overflow delay clamps). It lives in a test file because its one
// job is TestDifferential: random schedule/cancel/run scripts execute
// against a Ref and an Engine side by side and must produce
// byte-identical fire sequences — the determinism gate for the wheel.
//
// It is deliberately not pluggable into Engine: an indirection layer on
// the schedule/fire path would cost the exact nanoseconds the wheel is
// there to save.
type Ref struct {
	now  Time
	seq  uint64
	pq   refHeap
	free *RefEvent
}

// RefEvent is a Ref-scheduled callback handle.
type RefEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index; -1 once fired or cancelled
	next *RefEvent
}

// At returns the virtual time the event is (or was) scheduled for.
func (e *RefEvent) At() Time { return e.at }

// Cancelled reports whether the event was cancelled or has already fired.
func (e *RefEvent) Cancelled() bool { return e.idx < 0 }

// NewRef returns a reference scheduler with the clock at the epoch.
func NewRef() *Ref {
	r := &Ref{}
	r.pq = make(refHeap, 0, 1024)
	return r
}

// Now returns the current virtual time.
func (r *Ref) Now() Time { return r.now }

// Schedule runs fn after delay d, with the Engine's clamp rules.
func (r *Ref) Schedule(d time.Duration, fn func()) *RefEvent {
	if fn == nil {
		panic("sim: Ref.Schedule with nil fn")
	}
	t := r.now
	if d > 0 {
		t += d
		if t < r.now {
			t = Forever
		}
	}
	return r.scheduleAt(t, fn)
}

// ScheduleAt runs fn at absolute time t; scheduling in the past panics.
func (r *Ref) ScheduleAt(t Time, fn func()) *RefEvent {
	if t < r.now {
		panic(fmt.Sprintf("sim: Ref.ScheduleAt(%v) in the past (now %v)", t, r.now))
	}
	return r.scheduleAt(t, fn)
}

func (r *Ref) scheduleAt(t Time, fn func()) *RefEvent {
	ev := r.alloc()
	ev.at = t
	ev.seq = r.seq
	ev.fn = fn
	r.seq++
	heap.Push(&r.pq, ev)
	return ev
}

// Cancel prevents a scheduled event from firing; no-op on a dead handle.
func (r *Ref) Cancel(ev *RefEvent) {
	if ev == nil || ev.idx < 0 {
		return
	}
	heap.Remove(&r.pq, ev.idx)
	ev.idx = -1
	ev.fn = nil
	r.release(ev)
}

// Step fires the earliest pending event; reports whether one fired.
func (r *Ref) Step() bool {
	if len(r.pq) == 0 {
		return false
	}
	ev := heap.Pop(&r.pq).(*RefEvent)
	ev.idx = -1
	r.now = ev.at
	fn := ev.fn
	ev.fn = nil
	r.release(ev)
	fn()
	return true
}

// Run fires events up to and including until, with Engine's clock rules.
func (r *Ref) Run(until Time) (fired int) {
	for len(r.pq) > 0 {
		if r.pq[0].at > until {
			break
		}
		r.Step()
		fired++
	}
	if until != Forever && r.now < until {
		r.now = until
	}
	return fired
}

// RunAll fires every pending event.
func (r *Ref) RunAll() (fired int) { return r.Run(Forever) }

// Pending returns the number of events queued.
func (r *Ref) Pending() int { return len(r.pq) }

// NextAt returns the earliest pending instant, or (Forever, false).
func (r *Ref) NextAt() (Time, bool) {
	if len(r.pq) == 0 {
		return Forever, false
	}
	return r.pq[0].at, true
}

func (r *Ref) alloc() *RefEvent {
	if r.free == nil {
		return &RefEvent{}
	}
	ev := r.free
	r.free = ev.next
	ev.next = nil
	return ev
}

func (r *Ref) release(ev *RefEvent) {
	ev.next = r.free
	r.free = ev
}

// refHeap orders events by (time, sequence number), exactly as the
// engine's pre-wheel heap did.
type refHeap []*RefEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*RefEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
