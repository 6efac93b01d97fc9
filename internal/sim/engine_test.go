package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	n := e.Run(3 * time.Second)
	if n != 3 || fired != 3 {
		t.Fatalf("Run(3s) fired %d/%d, want 3", n, fired)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	// Events at exactly the boundary fire.
	e2 := NewEngine()
	hit := false
	e2.Schedule(time.Second, func() { hit = true })
	e2.Run(time.Second)
	if !hit {
		t.Fatal("event at boundary did not fire")
	}
}

func TestEngineRunAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	if ev.state >= 0 {
		t.Fatal("event not marked cancelled")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling nil is a no-op.
	e.Cancel(nil)
	if e.Pending() != 0 || e.Stats.Cancelled != 1 {
		t.Fatalf("Pending() = %d, Cancelled = %d; want 0, 1", e.Pending(), e.Stats.Cancelled)
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []*Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Second, func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	e.RunAll()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, rec)
		}
	}
	e.Schedule(time.Millisecond, rec)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v, want 100ms", e.Now())
	}
}

func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(0, func() {})
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.RunAll()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	e.Schedule(7*time.Second, func() {})
	at, ok := e.NextAt()
	if !ok || at != 7*time.Second {
		t.Fatalf("NextAt = %v,%v", at, ok)
	}
}

// Property: for any multiset of delays, events fire in nondecreasing time
// order and the engine ends at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		var max time.Duration
		for _, d := range delaysRaw {
			dd := time.Duration(d) * time.Microsecond
			if dd > max {
				max = dd
			}
			e.Schedule(dd, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunAll()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return e.Now() == max && len(fireTimes) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel keeps heap indices consistent —
// every non-cancelled event fires exactly once.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n)%64 + 1
		fired := make([]int, total)
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.Schedule(time.Duration(r.Intn(1000))*time.Millisecond, func() { fired[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < total/2; i++ {
			k := r.Intn(total)
			e.Cancel(evs[k])
			cancelled[k] = true
		}
		e.RunAll()
		for i, c := range fired {
			if cancelled[i] && c != 0 {
				return false
			}
			if !cancelled[i] && c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		s := NewStreams(42)
		r := s.Stream("load")
		var times []Time
		var spawn func()
		spawn = func() {
			times = append(times, e.Now())
			if len(times) < 500 {
				e.Schedule(time.Duration(r.Intn(1000)+1)*time.Microsecond, spawn)
			}
		}
		e.Schedule(0, spawn)
		e.RunAll()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// argRecorder implements ArgHandler for tests.
type argRecorder struct {
	got []any
	ats []Time
	eng *Engine
}

func (r *argRecorder) OnSimEvent(arg any) {
	r.got = append(r.got, arg)
	r.ats = append(r.ats, r.eng.Now())
}

func TestScheduleArgDeliversPayload(t *testing.T) {
	e := NewEngine()
	r := &argRecorder{eng: e}
	e.ScheduleArg(2*time.Millisecond, r, "b")
	e.ScheduleArg(time.Millisecond, r, "a")
	e.RunAll()
	if len(r.got) != 2 || r.got[0] != "a" || r.got[1] != "b" {
		t.Fatalf("got %v", r.got)
	}
	if r.ats[0] != time.Millisecond || r.ats[1] != 2*time.Millisecond {
		t.Fatalf("fired at %v", r.ats)
	}
}

// Closure and payload events scheduled for the same instant keep FIFO
// order across the two kinds — determinism must not depend on which
// scheduling API a component uses.
func TestScheduleArgInterleavesDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	r := &argRecorder{eng: e}
	e.Schedule(time.Millisecond, func() { order = append(order, "fn1") })
	e.ScheduleArg(time.Millisecond, r, "arg1")
	e.Schedule(time.Millisecond, func() { order = append(order, "fn2") })
	e.ScheduleArg(time.Millisecond, r, "arg2")
	e.RunAll()
	if len(r.got) != 2 || r.got[0] != "arg1" || r.got[1] != "arg2" {
		t.Fatalf("arg order %v", r.got)
	}
	if len(order) != 2 || order[0] != "fn1" || order[1] != "fn2" {
		t.Fatalf("fn order %v", order)
	}
}

func TestScheduleArgCancel(t *testing.T) {
	e := NewEngine()
	r := &argRecorder{eng: e}
	ev := e.ScheduleArg(time.Millisecond, r, 42)
	e.Cancel(ev)
	e.RunAll()
	if len(r.got) != 0 {
		t.Fatalf("cancelled arg event fired: %v", r.got)
	}
	if ev.state >= 0 {
		t.Fatal("event not marked cancelled")
	}
}

func TestScheduleArgPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleArgAt in the past did not panic")
		}
	}()
	e.ScheduleArgAt(0, &argRecorder{eng: e}, nil)
}

// counterHandler counts deliveries of a pointer payload without retaining
// anything — the steady-state shape of link delivery.
type counterHandler struct{ n int }

func (c *counterHandler) OnSimEvent(any) { c.n++ }

// The packet fast path's contract: scheduling a (handler, pointer
// payload) event through the warm freelist allocates nothing.
func TestScheduleArgSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &counterHandler{}
	payload := &struct{ x int }{1}
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.ScheduleArg(time.Microsecond, h, payload)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(time.Microsecond, h, payload)
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleArg+fire allocates %v/op", allocs)
	}
	if h.n < 1064 {
		t.Fatalf("handler fired %d times", h.n)
	}
}

// The event freelist keeps the working set: once n events (n past any
// fixed cap a freelist might be tempted to have) have been pending at the
// same instant, holding n pending again allocates nothing.
func TestEventFreelistKeepsWorkingSet(t *testing.T) {
	const n = 10_000
	e := NewEngine()
	h := &counterHandler{}
	burst := func() {
		for i := 0; i < n; i++ {
			e.ScheduleArg(time.Duration(i%97)*time.Microsecond, h, nil)
		}
		if e.Pending() != n {
			t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
		}
		e.RunAll()
	}
	burst()
	if allocs := testing.AllocsPerRun(3, burst); allocs != 0 {
		t.Fatalf("%d events pending again after a drain allocate %v times per burst, want 0", n, allocs)
	}
}

// Pending returns the number of events currently queued (cancelled events
// excluded).
func (e *Engine) Pending() int { return e.nlive }
