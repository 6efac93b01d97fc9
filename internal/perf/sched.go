// Scheduler micro-benchmarks: schedule+fire and schedule+cancel on the
// timing wheel (sim.Engine) against a standing backlog of ten thousand
// pending events. The backlog is the point: with n≈10k pending a
// comparison-based queue pays O(log n) per operation while the wheel's
// bucket arithmetic stays O(1), so a wheel that lost that property shows
// here first (the benchmark harness reports these bodies as
// sim.sched_fire_ns and sim.cancel_ns). LateBurst is the case the wheel
// cannot place: events arriving behind a cursor that has run ahead.
package perf

import (
	"testing"
	"time"

	"tango/internal/sim"
)

// schedBacklog is the standing pending-event population the hot loop runs
// against. The delays are spread exponentially from one microsecond to
// hours so the backlog occupies wheel levels 0 through 5 rather than one
// convenient bucket — cursor advances during the measured loop cross real
// cascade boundaries.
const schedBacklog = 10240

func backlogDelay(i int) time.Duration {
	return time.Duration(int64(1)<<(10+uint(i)%30)) + time.Duration(i)
}

// BenchSchedFire measures one Schedule(10µs)+Step cycle on the wheel with
// schedBacklog events pending. The scheduled event is always the earliest,
// so each iteration measures exactly one placement and one fire (bucket
// insert, due-heap pop, freelist recycle); the backlog makes the wheel
// actually maintain its levels while the clock advances.
func BenchSchedFire(b *testing.B) {
	e := sim.NewEngine()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		e.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < warmupIters; i++ {
		e.Schedule(10*time.Microsecond, noop)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(10*time.Microsecond, noop)
		e.Step()
	}
	b.StopTimer()
	if got := e.Stats.Fired; got != uint64(b.N+warmupIters) {
		b.Fatalf("fired %d of %d", got, b.N+warmupIters)
	}
}

// cancelWarmup runs the cancel loop before measurement so the buckets
// its targets land in and the event freelist are warm: the timer sees
// the steady state, not first touches.
const cancelWarmup = 8192

// BenchCancel measures one Schedule+Cancel cycle on the wheel with
// schedBacklog live events pending. The cancel target's delay is drawn
// from the same exponential span as the backlog so it lands mid-structure
// rather than past every pending event. Cancel unlinks a bucketed event
// and recycles it at once, so the measured cost is one placement and one
// O(1) unlink.
func BenchCancel(b *testing.B) {
	e := sim.NewEngine()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		e.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < cancelWarmup; i++ {
		e.Cancel(e.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.StopTimer()
	if got := e.Stats.Cancelled; got != uint64(b.N+cancelWarmup) {
		b.Fatalf("cancelled %d of %d", got, b.N+cancelWarmup)
	}
}

// lateBurstSize is one burst of BenchLateBurst: the order of a barrier
// drain's batch on the wide mesh.
const lateBurstSize = 1024

type nopHandler struct{}

func (nopHandler) OnSimEvent(any) {}

// BenchLateBurst measures one event of a late burst, schedule through
// fire. A far timer and NextAt run the wheel's cursor ahead; lateBurstSize
// events then arrive for granules the cursor has already passed, in a
// fixed shuffled order (the stride is coprime to the burst size), and
// run. This is how a barrier's cross-partition batch and a set-up burst
// reach an engine, and the wheel cannot bucket them: each goes straight
// to the due set, so the cost per event is the due set's insert and pop
// at that depth.
func BenchLateBurst(b *testing.B) {
	const stride = 389
	e := sim.NewEngine()
	var h nopHandler
	burst := func(n int) {
		base := e.Now()
		end := base + sim.Time(lateBurstSize+1)*sim.Time(2*time.Microsecond)
		e.ScheduleArgAt(end, h, nil)
		e.NextAt()
		for i := 0; i < n; i++ {
			e.ScheduleArgAt(base+sim.Time(1+i*stride%lateBurstSize)*sim.Time(2*time.Microsecond), h, nil)
		}
		e.Run(end)
	}
	burst(lateBurstSize)
	fired := e.Stats.Fired
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= lateBurstSize {
		burst(min(left, lateBurstSize))
	}
	b.StopTimer()
	bursts := uint64((b.N + lateBurstSize - 1) / lateBurstSize)
	if got := e.Stats.Fired - fired; got != uint64(b.N)+bursts {
		b.Fatalf("fired %d of %d", got, uint64(b.N)+bursts)
	}
}
