package perf

import (
	"runtime"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/workload"
)

// FlowBenchFlows is the concurrent-flow population of the flow micros:
// large enough that the wheel drains real buckets, small enough that one
// benchmark iteration stays sub-millisecond.
const FlowBenchFlows = 1024

// flowFixture wires two switches over a 5ms link with one tunnel each
// way and a flow table on A whose sink is bound at B — the smallest
// network on which emit, deliver, and depart all run their real paths.
func flowFixture(capacity int) (*simnet.Network, *workload.FlowTable, int) {
	w := simnet.New(4)
	na := w.AddNode("a", 0)
	nb := w.AddNode("b", 0)
	cfg := simnet.FixedDelay(5 * time.Millisecond)
	w.Connect(na, nb, cfg, cfg)
	na.SetRoute(addr.MustParsePrefix("2001:db8:b::/48"), na.Ports()[0])
	nb.SetRoute(addr.MustParsePrefix("2001:db8:a::/48"), nb.Ports()[0])
	swA := dataplane.NewSwitch(na)
	swB := dataplane.NewSwitch(nb)
	swA.AddTunnel(&dataplane.Tunnel{PathID: 1, Name: "p1",
		LocalAddr:  mustAddr("2001:db8:a::1"),
		RemoteAddr: mustAddr("2001:db8:b::1"), SrcPort: 40001})
	swB.AddTunnel(&dataplane.Tunnel{PathID: 1, Name: "p1",
		LocalAddr:  mustAddr("2001:db8:b::1"),
		RemoteAddr: mustAddr("2001:db8:a::1"), SrcPort: 40001})
	swA.Instrument(obs.NewRegistry(), "bench")

	// Uniform 1ms intervals keep the wheel's buckets dense, so one
	// drained granule fires a large batch — the shape E13 runs at.
	classes := [workload.NumClasses]workload.ClassSpec{}
	for c := range classes {
		classes[c] = workload.ClassSpec{Interval: time.Millisecond, Payload: 160}
	}
	ft := workload.NewFlowTable(w.Eng, classes, capacity)
	ep := ft.AddEndpoint(swA, mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"))
	ft.Instrument(obs.NewRegistry(), "bench")
	sink := ft.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) { sink(inner) }
	return w, ft, ep
}

// BenchFlowEmit measures the steady-state per-packet cost of the flow
// table: wheel drain, template stamp, encap, link traversal, delivery,
// per-class histogram accounting — with FlowBenchFlows concurrent flows
// emitting every millisecond. One op is one emitted (and eventually
// delivered) packet.
func BenchFlowEmit(b *testing.B) {
	w, ft, ep := flowFixture(FlowBenchFlows)
	for i := 0; i < FlowBenchFlows; i++ {
		// Effectively-infinite lifetimes: no departures during the run.
		if ft.Start(ep, workload.Class(i%workload.NumClasses), 1<<31, 0) < 0 {
			b.Fatal("flow refused")
		}
	}
	// Warm every pool (wheel links, packet buffers, event freelist,
	// lazily-registered rx counters) before the measured region.
	w.Run(w.Eng.Now() + sim.Time(32*time.Millisecond))
	warm := ft.Totals()
	b.ReportAllocs()
	b.ResetTimer()
	target := warm.Sent + uint64(b.N)
	for ft.Totals().Sent < target {
		w.Run(w.Eng.Now() + sim.Time(time.Millisecond))
	}
	b.StopTimer()
	if ft.Active() != FlowBenchFlows {
		b.Fatalf("active flows %d of %d", ft.Active(), FlowBenchFlows)
	}
	if tot := ft.Totals(); tot.Sent <= warm.Sent || tot.Delivered <= warm.Delivered {
		b.Fatalf("no steady-state traffic: %+v -> %+v", warm, tot)
	}
}

// BenchFlowArriveDepart measures one full flow lifecycle: Start (slot
// claim off the endpoint free list), single emission, delivery into the
// receiver record, and departure back onto the free list. One op is one
// flow.
func BenchFlowArriveDepart(b *testing.B) {
	w, ft, ep := flowFixture(FlowBenchFlows)
	for i := 0; i < warmupIters; i++ {
		if ft.Start(ep, workload.Class(i%workload.NumClasses), 1, 0) < 0 {
			b.Fatal("flow refused")
		}
		w.Eng.RunAll()
	}
	warm := ft.Totals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Start(ep, workload.Class(i%workload.NumClasses), 1, 0)
		w.Eng.RunAll()
	}
	b.StopTimer()
	if ft.Active() != 0 {
		b.Fatalf("flows leaked: active %d", ft.Active())
	}
	tot := ft.Totals()
	if tot.Sent != warm.Sent+uint64(b.N) || tot.Delivered != tot.Sent {
		b.Fatalf("sent/delivered %d/%d, want %d each", tot.Sent, tot.Delivered, warm.Sent+uint64(b.N))
	}
}

// memFlows sizes the memory-per-flow comparison: large enough that
// per-object overhead dominates measurement noise.
const memFlows = 20_000

// measureHeap runs build under a quiesced heap and returns the live
// bytes it retained.
func measureHeap(build func() any) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// FlowMemoryPerFlow returns the retained heap bytes per concurrent flow
// for the flyweight table and for the per-AppGen baseline, measured on
// identical tunnel-less switches (packets drop at the sender, isolating
// generator state) after 200 ms of virtual time at a 20 ms emission
// interval — the VoIP shape. The baseline carries what every AppGen
// carries per stream: the generator object, its Ticker and pending
// event, the packet template, and a sentAt map entry per emitted packet.
func FlowMemoryPerFlow() (tableBytes, appgenBytes float64) {
	mkSwitch := func() (*simnet.Network, *dataplane.Switch) {
		w := simnet.New(1)
		n := w.AddNode("mem", 0)
		return w, dataplane.NewSwitch(n) // no tunnel: SendToPeer drops, NoTunnel++
	}

	wt, swT := mkSwitch()
	var table *workload.FlowTable
	tableTotal := measureHeap(func() any {
		classes := workload.DefaultClasses()
		table = workload.NewFlowTable(wt.Eng, classes, memFlows)
		ep := table.AddEndpoint(swT, mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"))
		for i := 0; i < memFlows; i++ {
			table.Start(ep, workload.ClassVoIP, 1<<31, 0)
		}
		wt.Run(sim.Time(200 * time.Millisecond))
		return table
	})

	wa, swA := mkSwitch()
	var gens []*workload.AppGen
	appTotal := measureHeap(func() any {
		gens = make([]*workload.AppGen, memFlows)
		for i := range gens {
			gens[i] = workload.NewAppGen(wa.Eng, swA,
				mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"),
				20*time.Millisecond, 160)
		}
		wa.Run(sim.Time(200 * time.Millisecond))
		return gens
	})

	return float64(tableTotal) / memFlows, float64(appTotal) / memFlows
}
