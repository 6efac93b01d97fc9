package sim

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// fireLog records (time, tag) pairs as events land; crossTag implements
// ArgHandler so CrossScheduleAt can target it.
type fireLog struct {
	entries []string
}

type crossTag struct {
	log *fireLog
	eng *Engine
}

func (h *crossTag) OnSimEvent(arg any) {
	h.log.entries = append(h.log.entries, fmt.Sprintf("t=%v %v", h.eng.Now(), arg))
}

// prepCounter wraps crossTag with a PrepareCross that stamps the payload,
// so tests can assert it ran exactly once in every mode.
type prepCounter struct {
	crossTag
	preps int
}

func (h *prepCounter) PrepareCross(arg any) any {
	h.preps++
	return fmt.Sprintf("prepped(%v)", arg)
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("no panic, want panic containing %q", want)
		}
	}()
	fn()
}

func TestCoordinatorValidation(t *testing.T) {
	mustPanic(t, "at least one partition", func() { NewCoordinator(0, time.Millisecond) })

	c := NewCoordinator(2, time.Millisecond)
	mustPanic(t, "finite horizon", func() { c.Run(Forever) })

	// Mode switches and re-entrant Runs inside a callback must be loud:
	// they would corrupt the epoch structure mid-flight.
	c.Part(0).ScheduleAt(Time(time.Millisecond), func() {
		mustPanic(t, "EnterParallel during Run", c.EnterParallel)
		mustPanic(t, "re-entrant", func() { c.Run(Time(time.Second)) })
	})
	c.Run(Time(10 * time.Millisecond))
}

func TestCoordinatorAccessors(t *testing.T) {
	c := NewCoordinator(3, 5*time.Millisecond)
	if c.NumParts() != 3 || c.Lookahead() != 5*time.Millisecond || c.now != 0 {
		t.Fatalf("accessors: parts=%d lookahead=%v now=%v", c.NumParts(), c.Lookahead(), c.now)
	}
	for i := 0; i < 3; i++ {
		e := c.Part(i)
		if e.Coord() != c || e.Part() != i {
			t.Fatalf("partition %d engine not wired to coordinator", i)
		}
	}
	if c.workers != 1 {
		t.Fatalf("default workers %d, want 1", c.workers)
	}
	c.SetWorkers(0)
	if c.workers != 1 {
		t.Fatalf("SetWorkers(0) gave %d, want clamp to 1", c.workers)
	}
	c.SetWorkers(64)
	if c.workers != 3 {
		t.Fatalf("SetWorkers(64) gave %d, want clamp to 3 partitions", c.workers)
	}
	if c.Parallel() {
		t.Fatal("coordinator born parallel")
	}
	c.EnterParallel()
	if !c.Parallel() {
		t.Fatal("EnterParallel did not arm parallel mode")
	}

	// The degenerate cases stay coupled: one partition, or no lookahead.
	one := NewCoordinator(1, time.Millisecond)
	one.EnterParallel()
	if one.Parallel() {
		t.Fatal("single partition must stay coupled")
	}
	flat := NewCoordinator(2, 0)
	flat.EnterParallel()
	if flat.Parallel() {
		t.Fatal("zero lookahead must stay coupled")
	}
	flat.Run(Time(time.Millisecond)) // zero lookahead: one epoch for the whole span
	if flat.now != Time(time.Millisecond) || flat.Stats.Epochs != 1 {
		t.Fatalf("flat run: now=%v epochs=%d", flat.now, flat.Stats.Epochs)
	}
}

func TestCoupledFiresGlobalTimeOrder(t *testing.T) {
	c := NewCoordinator(2, 10*time.Millisecond)
	log := &fireLog{}
	// Interleave events across partitions; coupled mode must fire them in
	// global time order with both clocks synchronized at each fire.
	for i, at := range []time.Duration{5, 1, 9, 3} {
		part, other := c.Part(i%2), c.Part((i+1)%2)
		at := at * time.Millisecond
		part.ScheduleAt(Time(at), func() {
			if part.Now() != other.Now() {
				t.Errorf("clocks diverged in coupled mode: %v vs %v", part.Now(), other.Now())
			}
			log.entries = append(log.entries, fmt.Sprintf("t=%v", part.Now()))
		})
	}
	c.Run(Time(20 * time.Millisecond))
	want := []string{"t=1ms", "t=3ms", "t=5ms", "t=9ms"}
	if !reflect.DeepEqual(log.entries, want) {
		t.Fatalf("fire order %v, want %v", log.entries, want)
	}
	if c.now != Time(20*time.Millisecond) {
		t.Fatalf("now=%v, want 20ms", c.now)
	}
	if c.Stats.Epochs != 1 {
		t.Fatalf("coupled 20ms run with no hooks: %d epochs, want 1", c.Stats.Epochs)
	}
}

// TestCoupledSkipsIdleTime: the lookahead bounds parallel epochs only. A
// coupled run over minutes of sparse events costs one epoch per periodic
// tick, not one per lookahead, and still fires in global time order with
// every clock at each tick when its hook runs.
func TestCoupledSkipsIdleTime(t *testing.T) {
	const (
		parts = 32
		until = Time(10 * time.Minute)
		every = time.Second
	)
	c := NewCoordinator(parts, 4*time.Millisecond)
	var fired []Time
	var want []Time
	for i := 0; i < 20; i++ {
		// Scrambled over the ten minutes; every third lands on a tick.
		k := (i * 7) % 20
		at := Time(k)*Time(30*time.Second) + Time(k%3)*Time(500*time.Millisecond)
		want = append(want, at)
		c.Part((i*11)%parts).ScheduleAt(at, func() { fired = append(fired, at) })
	}
	slices.Sort(want)
	ticks := 0
	c.AtBarrier(every, func(now Time) {
		ticks++
		for i := 0; i < parts; i++ {
			if got := c.Part(i).Now(); got != now {
				t.Errorf("tick %v: partition %d clock at %v", now, i, got)
			}
		}
		if n := len(fired); n != sort.Search(len(want), func(j int) bool { return want[j] > now }) {
			t.Errorf("tick %v: %d events fired, want those at or before the tick", now, n)
		}
	})
	c.Run(until)
	if !slices.Equal(fired, want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}
	for i := 0; i < parts; i++ {
		if got := c.Part(i).Now(); got != until {
			t.Fatalf("partition %d ended at %v, want %v", i, got, until)
		}
	}
	if ticks != int(until/Time(every)) || c.Stats.Epochs > uint64(ticks)+1 {
		t.Fatalf("%d ticks in %d epochs, want %d ticks in at most %d", ticks, c.Stats.Epochs,
			until/Time(every), ticks+1)
	}
}

// pingPong builds a 2-partition workload where each partition fires a
// local event every 3ms and cross-schedules a message to the other
// partition lookahead later, then runs it and returns the merged logs.
func pingPong(workers int, parallel bool) ([]string, uint64) {
	const la = 10 * time.Millisecond
	c := NewCoordinator(2, la)
	c.SetWorkers(workers)
	logs := [2]*fireLog{{}, {}}
	tags := [2]*crossTag{}
	for i := 0; i < 2; i++ {
		tags[i] = &crossTag{log: logs[i], eng: c.Part(i)}
	}
	for i := 0; i < 2; i++ {
		i := i
		src := c.Part(i)
		var tick func()
		tick = func() {
			logs[i].entries = append(logs[i].entries, fmt.Sprintf("t=%v local%d", src.Now(), i))
			CrossScheduleAt(src, c.Part(1-i), src.Now()+Time(la), tags[1-i], fmt.Sprintf("from%d", i))
			if src.Now() < Time(60*time.Millisecond) {
				src.Schedule(3*time.Millisecond, tick)
			}
		}
		src.ScheduleAt(Time(time.Millisecond), tick)
	}
	if parallel {
		c.EnterParallel()
	}
	c.Run(Time(100 * time.Millisecond))
	return append(append([]string{}, logs[0].entries...), logs[1].entries...), c.Stats.CrossMsg
}

func TestParallelInvariantToWorkersAndMode(t *testing.T) {
	base, _ := pingPong(1, false) // coupled reference
	for _, w := range []int{1, 2} {
		got, cross := pingPong(w, true)
		if cross == 0 {
			t.Fatalf("workers=%d: no cross messages rode the outboxes", w)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d parallel diverged from coupled:\n%v\nvs\n%v", w, got, base)
		}
	}
}

func TestCrossPrepperRunsOnceBothModes(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewCoordinator(2, 10*time.Millisecond)
		log := &fireLog{}
		h := &prepCounter{crossTag: crossTag{log: log, eng: c.Part(1)}}
		c.Part(0).ScheduleAt(Time(time.Millisecond), func() {
			CrossScheduleAt(c.Part(0), c.Part(1), Time(15*time.Millisecond), h, "pkt")
		})
		if parallel {
			c.EnterParallel()
		}
		c.Run(Time(30 * time.Millisecond))
		if h.preps != 1 {
			t.Errorf("parallel=%v: PrepareCross ran %d times, want 1", parallel, h.preps)
		}
		want := []string{"t=15ms prepped(pkt)"}
		if !reflect.DeepEqual(log.entries, want) {
			t.Errorf("parallel=%v: delivery %v, want %v", parallel, log.entries, want)
		}
	}
}

func TestCrossScheduleSameEngineIsDirect(t *testing.T) {
	// Same-engine and coordinator-less sends degrade to a plain schedule
	// (still running PrepareCross, preserving the payload contract).
	e := NewEngine()
	log := &fireLog{}
	h := &prepCounter{crossTag: crossTag{log: log, eng: e}}
	CrossScheduleAt(e, e, Time(2*time.Millisecond), h, "loop")
	e.Run(Time(5 * time.Millisecond))
	if h.preps != 1 || len(log.entries) != 1 {
		t.Fatalf("same-engine cross: preps=%d fired=%v", h.preps, log.entries)
	}
}

// TestBarrierHooks: a parallel epoch fires a periodic hook at the
// barrier of the epoch holding its tick; coupled mode ends an epoch at
// each tick, so the hook runs at its own instant, after every event at
// or before it and before any later one — on one partition with no
// lookahead as on several with a lookahead longer than the run.
func TestBarrierHooks(t *testing.T) {
	ms := func(ns ...int) []Time {
		out := make([]Time, len(ns))
		for i, n := range ns {
			out[i] = Time(n) * Time(time.Millisecond)
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		parts     int
		lookahead time.Duration
		parallel  bool
		wantEvery []Time // the every-barrier hook's barrier times
		wantClock []Time // partition clocks the 7 ms hook observes
	}{
		{"parallel", 2, 5 * time.Millisecond, true, ms(5, 10, 15, 20), ms(10, 15)},
		{"coupled/one partition", 1, 0, false, ms(7, 14, 20), ms(7, 14)},
		{"coupled/three partitions", 3, 50 * time.Millisecond, false, ms(7, 14, 20), ms(7, 14)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(tc.parts, tc.lookahead)
			fired := 0
			for i := 0; i < tc.parts; i++ {
				for _, at := range ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20) {
					c.Part(i).ScheduleAt(at, func() { fired++ })
				}
			}
			var every, ticks, clocks []Time
			c.AtBarrier(0, func(now Time) { every = append(every, now) })
			c.AtBarrier(7*time.Millisecond, func(now Time) {
				ticks = append(ticks, now)
				clock := c.Part(0).Now()
				for i := 1; i < tc.parts; i++ {
					if c.Part(i).Now() != clock {
						t.Errorf("tick %v: partition %d at %v, partition 0 at %v", now, i, c.Part(i).Now(), clock)
					}
				}
				clocks = append(clocks, clock)
				// Every event at or before the clock has fired, none after.
				if want := tc.parts * int(clock/Time(time.Millisecond)); fired != want {
					t.Errorf("tick %v at clock %v: %d events fired, want %d", now, clock, fired, want)
				}
			})
			if tc.parallel {
				c.EnterParallel()
			}
			c.Run(Time(20 * time.Millisecond))

			if !reflect.DeepEqual(every, tc.wantEvery) {
				t.Errorf("every-barrier hook fired at %v, want %v", every, tc.wantEvery)
			}
			// The periodic hook receives nominal tick instants in both modes.
			if !reflect.DeepEqual(ticks, ms(7, 14)) {
				t.Errorf("periodic hook ticks %v, want [7ms 14ms]", ticks)
			}
			if !reflect.DeepEqual(clocks, tc.wantClock) {
				t.Errorf("periodic hook saw clocks %v, want %v", clocks, tc.wantClock)
			}
		})
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	// A cross event scheduled before its destination's epoch end is a
	// conservative-sync violation and must crash loudly at the drain.
	c := NewCoordinator(2, 10*time.Millisecond)
	log := &fireLog{}
	h := &crossTag{log: log, eng: c.Part(1)}
	c.Part(0).ScheduleAt(Time(time.Millisecond), func() {
		CrossScheduleAt(c.Part(0), c.Part(1), Time(2*time.Millisecond), h, "too-soon")
	})
	c.EnterParallel()
	mustPanic(t, "lookahead violation", func() { c.Run(Time(20 * time.Millisecond)) })
}

// burstSource stages one barrier's worth of cross messages and counts its
// PrepareCross calls; the destination logs (at, src, i) as each lands.
type burstSource struct {
	src   int
	dst   *Engine
	log   *[][3]int64
	preps int
}

func (h *burstSource) PrepareCross(arg any) any { h.preps++; return arg }

func (h *burstSource) OnSimEvent(arg any) {
	*h.log = append(*h.log, [3]int64{int64(h.dst.Now()), int64(h.src), int64(arg.(int))})
}

// crossBurst runs 4 partitions where partitions 1–3 each send perSrc
// messages to partition 0 from one callback, with at descending and
// colliding (four per instant per source, every instant shared by all
// three sources), while partition 0's cursor has run ahead to a far
// timer. It returns the destination's fire log.
func crossBurst(t *testing.T, workers int, parallel bool) [][3]int64 {
	t.Helper()
	const (
		la     = 10 * time.Millisecond
		perSrc = 4096
	)
	c := NewCoordinator(4, la)
	c.SetWorkers(workers)
	dst := c.Part(0)
	dst.ScheduleAt(Time(time.Second), func() {})
	var log [][3]int64
	srcs := make([]*burstSource, 3)
	for k := range srcs {
		h := &burstSource{src: k + 1, dst: dst, log: &log}
		srcs[k] = h
		src := c.Part(h.src)
		src.ScheduleAt(Time(time.Millisecond), func() {
			for i := 0; i < perSrc; i++ {
				at := Time(time.Millisecond+la) + Time((perSrc-1-i)/4)*Time(time.Microsecond)
				CrossScheduleAt(src, dst, at, h, i)
			}
		})
	}
	if parallel {
		c.EnterParallel()
	}
	c.Run(Time(50 * time.Millisecond))
	for _, h := range srcs {
		if h.preps != perSrc {
			t.Fatalf("workers=%d parallel=%v: source %d saw %d PrepareCross calls, want %d",
				workers, parallel, h.src, h.preps, perSrc)
		}
	}
	if parallel {
		if c.Stats.CrossMsg != 3*perSrc || c.Stats.DrainMax != 3*perSrc {
			t.Fatalf("workers=%d: CrossMsg=%d DrainMax=%d, want %d in one barrier batch",
				workers, c.Stats.CrossMsg, c.Stats.DrainMax, 3*perSrc)
		}
		// The whole batch landed behind the destination's cursor.
		if dst.Stats.DuePeak < 3*perSrc {
			t.Fatalf("workers=%d: destination DuePeak=%d, want ≥%d", workers, dst.Stats.DuePeak, 3*perSrc)
		}
	}
	return log
}

// A barrier batch of burst size — thousands of messages, out of order and
// colliding, onto an engine whose cursor has run ahead — lands in the
// canonical (at, src, seq) order for every worker count and in coupled
// mode alike.
func TestDrainBurstCanonicalOrder(t *testing.T) {
	base := crossBurst(t, 1, false) // coupled reference
	if len(base) != 3*4096 {
		t.Fatalf("coupled run fired %d cross messages, want %d", len(base), 3*4096)
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a[0] > b[0] || a[0] == b[0] && (a[1] > b[1] || a[1] == b[1] && a[2] >= b[2]) {
			t.Fatalf("fire %d (at=%d src=%d i=%d) after (at=%d src=%d i=%d): not (at, src, seq) order",
				i, b[0], b[1], b[2], a[0], a[1], a[2])
		}
	}
	for _, w := range []int{1, 2, 4} {
		if got := crossBurst(t, w, true); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d parallel fired a different sequence than coupled mode", w)
		}
	}
}
