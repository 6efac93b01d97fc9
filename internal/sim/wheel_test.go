package sim

import (
	"math"
	"slices"
	"testing"
	"time"
)

// Tests in this file target the timing-wheel internals through the public
// Engine API: level-boundary placement, own-digit cascades, cursor jumps
// across empty windows, the top level's far instants, the overflow clamp
// on Schedule, and cancellation in buckets and in the due heap. The
// differential test (differential_test.go) covers the same machinery with
// random scripts; these pin down the named edge cases so a regression
// points straight at the broken path.

// gran converts a granule index into the Time at that granule's start.
func gran(u int64) Time { return Time(u << granBits) }

// collectFires runs the engine dry and returns each fired event's instant.
func collectFires(t *testing.T, e *Engine, fns []func()) []Time {
	t.Helper()
	var got []Time
	for _, fn := range fns {
		fn() // schedule
	}
	for e.Step() {
		got = append(got, e.Now())
	}
	return got
}

func wantOrder(t *testing.T, got, want []Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d (got %v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v (full: %v)", i, got[i], want[i], want)
		}
	}
}

// Events on both sides of a level-1 region boundary must fire in time
// order even though they are filed at different wheel levels: granule 63
// sits in level 0's initial window while granules 64..127 start life in a
// level-1 bucket that the cursor must cascade when it crosses into the
// region (the own-digit cascade, inv-2 part 1).
func TestWheelLevelBoundaryCascade(t *testing.T) {
	e := NewEngine()
	at := []Time{gran(127) + 5, gran(64), gran(63), gran(64) + 1, gran(65)}
	var got []Time
	for _, a := range at {
		a := a
		e.ScheduleAt(a, func() { got = append(got, a) })
	}
	for e.Step() {
	}
	wantOrder(t, got, []Time{gran(63), gran(64), gran(64) + 1, gran(65), gran(127) + 5})
	if n := e.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after drain", n)
	}
}

// Placement boundaries per level: the last instant covered by level l and
// the first instant of level l+1 are adjacent in time and must fire
// adjacently, for every boundary the wheel has (the top level's buckets
// reach past Forever, so it has none above it).
func TestWheelEveryLevelBoundary(t *testing.T) {
	e := NewEngine()
	var want []Time
	for l := 0; l < numLevels-1; l++ {
		edge := Time(int64(1) << (granBits + uint(l+1)*levelBits))
		want = append(want, edge-1, edge, edge+1)
	}
	var got []Time
	for _, a := range want {
		a := a
		e.ScheduleAt(a, func() { got = append(got, a) })
	}
	for e.Step() {
	}
	wantOrder(t, got, want)
}

// An empty level-0 window must not be scanned granule by granule: the
// cursor jumps straight to the earliest occupied slot of the lowest
// non-empty level (inv-2 part 2). The jump must pick the lower level even
// when a higher level is also occupied, and NextAt must report the exact
// instant without advancing the clock.
func TestWheelJumpAcrossEmptyWindow(t *testing.T) {
	e := NewEngine()
	near := Time(int64(1) << (granBits + levelBits + 3))  // level 1 territory
	far := Time(int64(3) << (granBits + 4*levelBits + 1)) // level 4 territory
	var got []Time
	e.ScheduleAt(far, func() { got = append(got, far) })
	e.ScheduleAt(near, func() { got = append(got, near) })
	if at, ok := e.NextAt(); !ok || at != near {
		t.Fatalf("NextAt() = %v, %v; want %v, true", at, ok, near)
	}
	if e.Now() != 0 {
		t.Fatalf("NextAt advanced the clock to %v", e.Now())
	}
	for e.Step() {
	}
	wantOrder(t, got, []Time{near, far})
}

// After NextAt has pulled the cursor forward to a far event's region, a
// schedule into an already-passed granule must still fire first: it lands
// on the sorted due chain ahead of the far event (inv-1).
func TestWheelScheduleBehindCursor(t *testing.T) {
	e := NewEngine()
	far := Time(int64(1) << (granBits + 2*levelBits))
	var got []Time
	e.ScheduleAt(far, func() { got = append(got, far) })
	if at, _ := e.NextAt(); at != far {
		t.Fatalf("NextAt() = %v, want %v", at, far)
	}
	near := gran(2) + 7
	e.ScheduleAt(near, func() { got = append(got, near) })
	if at, _ := e.NextAt(); at != near {
		t.Fatalf("NextAt() after behind-cursor schedule = %v, want %v", at, near)
	}
	for e.Step() {
	}
	wantOrder(t, got, []Time{near, far})
}

// Every instant has a bucket: far instants, up to Forever, land in the
// top levels and fire at their exact instants, in order, both from the
// epoch and from a cursor that has already moved.
func TestWheelFarInstantsFireInOrder(t *testing.T) {
	top := int64(1) << (granBits + (numLevels-1)*levelBits) // first level-8 instant
	want := []Time{
		Time(5) << (granBits + 5*levelBits), // ≈1.5 h
		Time(top - 1),
		Time(top),
		Time(top) + gran(3),
		Time(1) << 62,
		Time(1)<<62 + 1,
		Forever - 1,
		Forever,
	}
	for _, start := range []Time{0, time.Hour} {
		e := NewEngine()
		e.Run(start)
		var got []Time
		for _, i := range []int{6, 2, 7, 0, 4, 1, 5, 3} {
			a := want[i]
			e.ScheduleAt(a, func() { got = append(got, a) })
		}
		for e.Step() {
		}
		wantOrder(t, got, want)
	}
}

// Regression for the virtual-time overflow: before the deadline clamp,
// now+d wrapped negative for delays near MaxInt64 and the event either
// fired immediately (ahead of genuinely earlier events) or corrupted the
// queue order. Huge delays must clamp to Forever, fire last, and only
// under Run(Forever).
func TestScheduleOverflowClampsToForever(t *testing.T) {
	e := NewEngine()
	e.Run(50 * time.Millisecond) // now > 0 so now+MaxInt64 definitely wraps
	var got []string
	evHuge := e.Schedule(math.MaxInt64-1, func() { got = append(got, "huge") })
	if evHuge.at != Forever {
		t.Fatalf("huge delay scheduled at %v, want Forever", evHuge.at)
	}
	e.Schedule(time.Millisecond, func() { got = append(got, "soon") })
	e.Run(time.Second)
	if len(got) != 1 || got[0] != "soon" {
		t.Fatalf("after Run(1s) fired %v, want [soon]", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the Forever event", e.Pending())
	}
	e.RunAll()
	if len(got) != 2 || got[1] != "huge" {
		t.Fatalf("after RunAll fired %v, want [soon huge]", got)
	}
	if e.Now() != Forever {
		t.Fatalf("clock at %v after firing Forever event", e.Now())
	}
}

// The same clamp must protect the closure-free path.
func TestScheduleArgOverflowClampsToForever(t *testing.T) {
	e := NewEngine()
	e.Run(time.Millisecond)
	h := &recordingHandler{}
	ev := e.ScheduleArg(math.MaxInt64, h, "late")
	if ev.at != Forever {
		t.Fatalf("ScheduleArg huge delay at %v, want Forever", ev.at)
	}
}

type recordingHandler struct{ args []any }

func (r *recordingHandler) OnSimEvent(arg any) { r.args = append(r.args, arg) }

func noop() {}

// Cancel churn against a standing backlog: each cancel unlinks its event
// from its bucket and recycles it at once, so 100k schedule+cancel pairs
// leave Pending flat, allocate nothing, and the backlog still fires in
// (at, seq) order.
func TestCancelChurnKeepsPendingFlat(t *testing.T) {
	const backlog, churn = 10_000, 100_000
	e := NewEngine()
	var want []Time
	for i := 0; i < backlog; i++ {
		at := Time(i+1) * Time(37*time.Microsecond) // spreads across levels 0-2
		want = append(want, at)
		e.ScheduleAt(at, noop)
	}
	e.Cancel(e.Schedule(time.Millisecond, noop)) // warm the freelist
	i := 0
	allocs := testing.AllocsPerRun(churn, func() {
		i++
		e.Cancel(e.Schedule(Time(i%backlog)*Time(41*time.Microsecond), noop))
		if e.Pending() != backlog {
			t.Fatalf("Pending() = %d after %d schedule+cancel pairs, want %d", e.Pending(), i, backlog)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %v/op against a %d-event backlog", allocs, backlog)
	}
	var got []Time
	for e.Step() {
		got = append(got, e.Now())
	}
	wantOrder(t, got, want)
}

// Cancelling a bucketed event releases it at once, with no deferred
// sweep: after mass cancels across many levels every bucket is empty,
// Pending reads 0, and nothing fires.
func TestLazyCancelSweep(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 3072)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1)*time.Hour, func() { t.Fatal("cancelled event fired") })
	}
	for _, ev := range evs {
		e.Cancel(ev)
		if ev.state != stateDone {
			t.Fatal("Cancel did not mark the event")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancelling everything", e.Pending())
	}
	for l := range e.w.level {
		if occ := e.w.level[l].occupied; occ != 0 {
			t.Fatalf("level %d still has occupied buckets %#x after cancelling everything", l, occ)
		}
	}
	if fired := e.RunAll(); fired != 0 {
		t.Fatalf("RunAll fired %d cancelled events", fired)
	}
}

// Mass cancels must preserve the survivors and their order: interleave
// live and cancelled events across several levels, cancel, and verify the
// live ones still fire exactly in (at, seq) order.
func TestSweepPreservesSurvivors(t *testing.T) {
	e := NewEngine()
	var want []Time
	var doomed []*Event
	for i := 0; i < 4096; i++ {
		at := Time(i+1) * Time(37*time.Microsecond) // spreads across levels 0-2
		if i%8 == 0 {
			want = append(want, at)
			e.ScheduleAt(at, func() {})
		} else {
			doomed = append(doomed, e.ScheduleAt(at, func() {}))
		}
	}
	for _, ev := range doomed {
		e.Cancel(ev)
	}
	if e.Pending() != len(want) {
		t.Fatalf("Pending() = %d after the cancels, want %d", e.Pending(), len(want))
	}
	var got []Time
	for e.Step() {
		got = append(got, e.Now())
	}
	wantOrder(t, got, want)
}

// An event cancelled after it reached the due heap stays there as a
// tombstone: it never fires, NextAt and Step skip it, and peek recycles
// it when it reaches the root, so the heap ends empty.
func TestDueHeapSkipsTombstones(t *testing.T) {
	e := NewEngine()
	far := gran(1 << 20)
	e.ScheduleAt(far, noop)
	e.NextAt() // the cursor runs ahead to far
	var want []Time
	var doomed []*Event
	for i := 0; i < 64; i++ {
		at := gran(int64(64 - i))
		if i%3 == 0 {
			want = append(want, at)
			e.ScheduleAt(at, noop)
		} else {
			doomed = append(doomed, e.ScheduleAt(at, noop))
		}
	}
	for _, ev := range doomed {
		e.Cancel(ev)
		if ev.state != stateDone {
			t.Fatal("Cancel did not mark the event")
		}
	}
	if n := len(e.w.due); n != 65 {
		t.Fatalf("due heap holds %d events, want 65 (live, tombstones and far)", n)
	}
	if e.Pending() != len(want)+1 {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), len(want)+1)
	}
	slices.Reverse(want)
	want = append(want, far)
	var got []Time
	for e.Step() {
		got = append(got, e.Now())
	}
	wantOrder(t, got, want)
	if n := len(e.w.due); n != 0 {
		t.Fatalf("due heap holds %d events after the drain", n)
	}
}

// NextAt must skip a cancelled head: cancel the earliest event and the
// next-earliest becomes the answer, even after the cancelled one had
// already been surfaced to the due chain by a prior NextAt.
func TestNextAtSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	if at, _ := e.NextAt(); at != time.Millisecond {
		t.Fatalf("NextAt() = %v, want 1ms", at)
	}
	e.Cancel(first)
	if at, _ := e.NextAt(); at != 2*time.Millisecond {
		t.Fatalf("NextAt() after cancel = %v, want 2ms", at)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

// Same-granule events keep FIFO order through the bucket sort even when
// they arrive interleaved with cancels in the same bucket.
func TestWheelSameGranuleFIFOWithCancels(t *testing.T) {
	e := NewEngine()
	at := gran(40) + 3
	var got []int
	var cancels []*Event
	for i := 0; i < 32; i++ {
		i := i
		if i%3 == 1 {
			cancels = append(cancels, e.ScheduleAt(at, func() { t.Fatal("cancelled fired") }))
		} else {
			e.ScheduleAt(at, func() { got = append(got, i) })
		}
	}
	for _, ev := range cancels {
		e.Cancel(ev)
	}
	e.RunAll()
	want := 0
	for i := 0; i < 32; i++ {
		if i%3 == 1 {
			continue
		}
		if got[want] != i {
			t.Fatalf("same-granule FIFO broken: position %d fired #%d, want #%d", want, got[want], i)
		}
		want++
	}
}

// lateBurst is the arrival pattern of a barrier drain or a set-up burst:
// a far timer and NextAt run the cursor ahead, then n events land in
// already-passed granules in a fixed shuffled order (stride is coprime to
// n, so i*stride mod n visits every slot once) and run.
func lateBurst(e *Engine, h ArgHandler, n int) {
	const stride = 7919
	base := e.Now()
	end := base + Time(n+1)*Time(2*time.Microsecond)
	e.ScheduleArgAt(end, h, nil)
	e.NextAt()
	for i := 0; i < n; i++ {
		e.ScheduleArgAt(base+Time(1+i*stride%n)*Time(2*time.Microsecond), h, nil)
	}
	e.Run(end)
}

// Events landing behind the cursor in arbitrary order fire in (at, seq)
// order, and DuePeak reports how deep the due set got.
func TestWheelLateBurstFiresInOrder(t *testing.T) {
	const n = 4096
	e := NewEngine()
	rec := &argRecorder{eng: e}
	lateBurst(e, rec, n)
	if len(rec.ats) != n+1 {
		t.Fatalf("fired %d events, want %d", len(rec.ats), n+1)
	}
	for i, at := range rec.ats {
		if want := Time(i+1) * Time(2*time.Microsecond); at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	// The far timer sat in the due set while the burst arrived.
	if e.Stats.DuePeak != n+1 {
		t.Fatalf("DuePeak = %d, want %d", e.Stats.DuePeak, n+1)
	}
}

// The due set must take a late burst at O(log n) per event: with a sorted
// list and a head walk the per-event cost at 32k late events was 140× the
// cost at 1k (956 ns → 135 µs); with the heap it is about 2.3×.
func TestLateBurstScales(t *testing.T) {
	if testing.Short() || RaceEnabled {
		t.Skip("timing guard: skipped under -short and the race detector")
	}
	perEvent := func(n int) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			e := NewEngine()
			h := &counterHandler{}
			lateBurst(e, h, n) // warm the freelist and the heap's slice
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lateBurst(e, h, n)
			}
		})
		return float64(res.NsPerOp()) / float64(n)
	}
	// A noisy neighbour can slow either side; only a ratio that stays
	// high three times running is the structure's fault.
	var small, large float64
	for try := 0; try < 3; try++ {
		small, large = perEvent(1024), perEvent(32768)
		t.Logf("late burst: %.0f ns/event at 1 024, %.0f ns/event at 32 768 (%.1f×)", small, large, large/small)
		if large <= 6*small {
			return
		}
	}
	t.Fatalf("late-burst cost grew %.1f× from 1 024 to 32 768 events (%.0f → %.0f ns/event), want ≤6×",
		large/small, small, large)
}
