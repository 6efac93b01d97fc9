package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The differential property test is the determinism gate for the wheel
// swap: random schedule/cancel/run scripts — including callbacks that
// schedule children — execute against the timing-wheel Engine and the
// binary-heap Ref side by side, and the two must produce identical
// (time, creation-index) fire sequences, identical clocks, and identical
// pending counts at every checkpoint. Delays are drawn from a mix that
// deliberately stresses every wheel path: same-instant bursts, sub-granule
// jitter, level-crossing delays, multi-level jumps, and top-level
// monsters (including delays that clamp to Forever).

type firing struct {
	at  Time
	idx int
}

// diffDriver adapts Engine and Ref to one script interpreter. Cancel
// targets are chosen among live handles only: a handle whose event fired
// or was already cancelled may point at a recycled Event (both schedulers
// reuse event structs through a freelist), so cancelling it again is
// outside the API contract.
type diffDriver struct {
	schedule func(d time.Duration, fn func()) int // returns creation index
	cancel   func(idx int)
	run      func(until Time)
	now      func() Time
	pending  func() int
	nextAt   func() (Time, bool)
	eng      *Engine // nil for the reference heap
}

func engineDriver() *diffDriver {
	e := NewEngine()
	handles := make(map[int]*Event)
	n := 0
	d := &diffDriver{eng: e}
	d.schedule = func(dd time.Duration, fn func()) int {
		i := n
		n++
		handles[i] = e.Schedule(dd, fn)
		return i
	}
	d.cancel = func(idx int) {
		e.Cancel(handles[idx])
		delete(handles, idx)
	}
	d.run = func(until Time) { e.Run(until) }
	d.now = e.Now
	d.pending = e.Pending
	d.nextAt = e.NextAt
	return d
}

func refDriver() *diffDriver {
	r := NewRef()
	handles := make(map[int]*RefEvent)
	n := 0
	d := &diffDriver{}
	d.schedule = func(dd time.Duration, fn func()) int {
		i := n
		n++
		handles[i] = r.Schedule(dd, fn)
		return i
	}
	d.cancel = func(idx int) {
		r.Cancel(handles[idx])
		delete(handles, idx)
	}
	d.run = func(until Time) { r.Run(until) }
	d.now = r.Now
	d.pending = r.Pending
	d.nextAt = r.NextAt
	return d
}

// drawDelay picks a delay from the stress mix.
func drawDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0 // same-instant burst
	case 1:
		return time.Duration(rng.Intn(1 << granBits)) // sub-granule
	case 2:
		return time.Duration(rng.Intn(wheelSlots << granBits)) // level-0 window
	case 3, 4, 5:
		return time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	case 6, 7:
		return time.Duration(rng.Int63n(int64(2 * time.Hour))) // level 3-4
	case 8:
		return time.Duration(rng.Int63n(int64(1<<62))) | 1<<(granBits+(numLevels-1)*levelBits) // top level
	default:
		return time.Duration(1<<63 - 1 - rng.Int63n(1000)) // clamps to Forever
	}
}

// runScript executes one seeded script against a driver and returns the
// fire sequence plus the checkpoint trace.
func runScript(seed int64, mk func() *diffDriver) (fires []firing, trace []int64) {
	rng := rand.New(rand.NewSource(seed))
	var rec []firing
	var live []int // creation indices currently pending, in schedule order
	d := mk()

	removeLive := func(idx int) {
		for i, v := range live {
			if v == idx {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	// sched schedules one event whose callback records its fire, drops
	// itself from the live set, and, with probability, schedules a child.
	var sched func(dd time.Duration)
	sched = func(dd time.Duration) {
		var self int
		self = d.schedule(dd, func() {
			rec = append(rec, firing{d.now(), self})
			removeLive(self)
			if rng.Intn(4) == 0 {
				sched(drawDelay(rng))
			}
		})
		live = append(live, self)
	}

	ops := 300
	for op := 0; op < ops; op++ {
		switch p := rng.Intn(100); {
		case p < 55:
			sched(drawDelay(rng))
		case p < 70:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				idx := live[k]
				live = append(live[:k], live[k+1:]...)
				d.cancel(idx)
			}
		case p < 95:
			d.run(d.now() + Time(rng.Int63n(int64(500*time.Millisecond))))
		default:
			d.run(d.now() + Time(rng.Int63n(int64(48*time.Hour))))
		}
		at, ok := d.nextAt()
		okBit := int64(0)
		if ok {
			okBit = 1
		}
		trace = append(trace, int64(d.now()), int64(d.pending()), int64(at), okBit)
	}
	// Drain completely so the tail (top-level cascades, Forever events)
	// is exercised too.
	d.run(Forever)
	trace = append(trace, int64(d.now()), int64(d.pending()))
	return rec, trace
}

func TestDifferentialWheelVsHeap(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= seeds; seed++ {
		wf, wt := runScript(seed, engineDriver)
		hf, ht := runScript(seed, refDriver)
		if len(wf) != len(hf) {
			t.Fatalf("seed %d: wheel fired %d events, heap fired %d", seed, len(wf), len(hf))
		}
		for i := range wf {
			if wf[i] != hf[i] {
				t.Fatalf("seed %d: fire %d diverged: wheel (%v, #%d) vs heap (%v, #%d)",
					seed, i, wf[i].at, wf[i].idx, hf[i].at, hf[i].idx)
			}
		}
		if len(wt) != len(ht) {
			t.Fatalf("seed %d: checkpoint trace lengths differ", seed)
		}
		for i := range wt {
			if wt[i] != ht[i] {
				t.Fatalf("seed %d: checkpoint %d diverged: wheel %d vs heap %d", seed, i, wt[i], ht[i])
			}
		}
	}
}

// The wheel must also agree with itself: the same script replayed on a
// fresh Engine fires identically (no hidden iteration-order or
// cancellation nondeterminism).
func TestDifferentialWheelReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, at := runScript(seed, engineDriver)
		b, bt := runScript(seed, engineDriver)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay fired %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: replay diverged at fire %d", seed, i)
			}
		}
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("seed %d: replay trace diverged at %d", seed, i)
			}
		}
	}
}
