package workload

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
)

// flowNet wires twoSwitchNet plus a flow table on switch A with one
// endpoint, instrumented, with B's delivery hooked to the table's sink.
func flowNet(t *testing.T, capacity int) (*FlowTable, func(d time.Duration)) {
	t.Helper()
	w, swA, swB := twoSwitchNet(t)
	ft := NewFlowTable(w.Eng, DefaultClasses(), capacity)
	ft.AddEndpoint(swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"))
	ft.Instrument(obs.NewRegistry(), "a")
	sink := ft.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) { sink(inner) }
	return ft, func(d time.Duration) { w.Run(w.Eng.Now() + sim.Time(d)) }
}

func TestFlowTableDeliveryGroundTruth(t *testing.T) {
	ft, run := flowNet(t, 64)
	// One flow per class, 10 packets each, started immediately.
	for c := Class(0); c < NumClasses; c++ {
		if idx := ft.Start(0, c, 10, 0); idx < 0 {
			t.Fatalf("class %v refused", c)
		}
	}
	if ft.Active() != 3 {
		t.Fatalf("Active = %d", ft.Active())
	}
	run(2 * time.Second)
	for c := Class(0); c < NumClasses; c++ {
		s := ft.ClassStats(c)
		if s.Sent != 10 || s.Delivered != 10 {
			t.Fatalf("class %v sent/delivered = %d/%d, want 10/10", c, s.Sent, s.Delivered)
		}
		if s.Dups != 0 || s.Gaps != 0 || s.Refused != 0 {
			t.Fatalf("class %v spurious counters: %+v", c, s)
		}
		h := ft.OWDHistogram(c)
		if h.Count() != 10 {
			t.Fatalf("class %v OWD observations = %d", c, h.Count())
		}
		// The lossless 5ms link: every OWD is exactly 5ms of virtual time,
		// so the histogram's whole mass sits in the 5ms log2 bucket and
		// the mean is exact.
		if got := h.Sum() / int64(h.Count()); got != int64(5*time.Millisecond) {
			t.Fatalf("class %v mean OWD = %v, want 5ms ground truth", c, time.Duration(got))
		}
		if io := ft.InOrderHistogram(c); io.Sum() != h.Sum() {
			t.Fatalf("class %v in-order latency diverged on a lossless in-order link", c)
		}
	}
	if ft.Active() != 0 {
		t.Fatalf("Active = %d after all flows ran out", ft.Active())
	}
	if ft.Peak() != 3 {
		t.Fatalf("Peak = %d", ft.Peak())
	}
	tot := ft.Totals()
	if tot.Sent != 30 || tot.Delivered != 30 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestFlowTableEmitCadence(t *testing.T) {
	// VoIP emits every 20ms (a multiple of the wheel granule), so packet
	// k's OWD-stamped send time is start + k*20ms: with a fixed-delay
	// link, distinct arrivals land exactly 20ms apart. Verify via sent
	// counts at two probe times.
	ft, run := flowNet(t, 8)
	ft.Start(0, ClassVoIP, 100, 0)
	run(205 * time.Millisecond)
	if s := ft.ClassStats(ClassVoIP); s.Sent != 11 { // t=0ms..200ms inclusive
		t.Fatalf("sent = %d after 205ms, want 11", s.Sent)
	}
	run(200 * time.Millisecond)
	if s := ft.ClassStats(ClassVoIP); s.Sent != 21 {
		t.Fatalf("sent = %d after 405ms, want 21", s.Sent)
	}
}

func TestFlowTableSlotReuseAndGenerations(t *testing.T) {
	ft, run := flowNet(t, 4)
	first := ft.Start(0, ClassBulk, 1, 0)
	run(time.Second)
	if ft.Active() != 0 {
		t.Fatalf("flow still active")
	}
	second := ft.Start(0, ClassBulk, 1, 0)
	if second != first {
		t.Fatalf("slot not reused: first %d, second %d", first, second)
	}
	run(time.Second)
	s := ft.ClassStats(ClassBulk)
	if s.Sent != 2 || s.Delivered != 2 {
		t.Fatalf("sent/delivered = %d/%d across reuse", s.Sent, s.Delivered)
	}
	// Both incarnations emitted seq 0; the generation bump keeps the
	// second from being mistaken for a duplicate.
	if s.Dups != 0 {
		t.Fatalf("reincarnation miscounted as duplicate (dups=%d)", s.Dups)
	}
}

func TestFlowTableCapacityRefusal(t *testing.T) {
	ft, run := flowNet(t, 2)
	if ft.Start(0, ClassVoIP, 4, 0) < 0 || ft.Start(0, ClassVoIP, 4, 0) < 0 {
		t.Fatal("starts under capacity refused")
	}
	if idx := ft.Start(0, ClassVideo, 4, 0); idx != -1 {
		t.Fatalf("start over capacity returned %d, want -1", idx)
	}
	if s := ft.ClassStats(ClassVideo); s.Refused != 1 {
		t.Fatalf("Refused = %d", s.Refused)
	}
	run(time.Second)
	// Capacity freed by departures is usable again.
	if ft.Start(0, ClassVideo, 1, 0) < 0 {
		t.Fatal("start after departures refused")
	}
}

// flowPacket hand-crafts an inner packet in the table's wire layout.
func flowPacket(idx int32, c Class, gen uint8, seq uint32, sentAt sim.Time) []byte {
	p := packet.InnerUDP{
		Src: netip.MustParseAddr("2001:db8:aa::1"), Dst: netip.MustParseAddr("2001:db8:bb::1"),
		SrcPort: 7000, DstPort: FlowPort,
	}.New(make([]byte, flowHeaderLen))
	_, hdr, _ := packet.UDP6(p)
	binary.BigEndian.PutUint32(hdr[0:4], seq)
	binary.BigEndian.PutUint32(hdr[4:8], flowWord(idx, c, gen))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(sentAt))
	return p
}

func TestFlowTableSinkRejectsForeign(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFlowTable(eng, DefaultClasses(), 4)
	ft.Instrument(obs.NewRegistry(), "x")
	sink := ft.SinkFor(eng)
	if sink([]byte{1, 2, 3}) {
		t.Fatal("garbage accepted")
	}
	if sink(make([]byte, 64)) {
		t.Fatal("non-IPv6 accepted")
	}
	app := make([]byte, 64)
	app[0] = 6 << 4
	binary.BigEndian.PutUint16(app[42:44], AppPort)
	if sink(app) {
		t.Fatal("AppGen-port packet accepted")
	}
	if sink(flowPacket(1000, ClassVoIP, 1, 0, 0)) {
		t.Fatal("out-of-range flow index accepted")
	}
	// The two class bits can spell 3, a class no table has: refused as
	// foreign — with and without a registered endpoint — before any
	// per-class counter is indexed.
	if sink(flowPacket(0, Class(3), 1, 0, 0)) {
		t.Fatal("class-3 packet accepted")
	}
	w, swA, _ := twoSwitchNet(t)
	bound := NewFlowTable(w.Eng, DefaultClasses(), 4)
	bound.AddEndpoint(swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"))
	bound.Instrument(obs.NewRegistry(), "y")
	if bound.SinkFor(w.Eng)(flowPacket(0, Class(3), 1, 0, 0)) {
		t.Fatal("class-3 packet accepted by a table with an endpoint")
	}
	if s, b := ft.Totals(), bound.Totals(); s.Delivered != 0 || b.Delivered != 0 {
		t.Fatalf("spurious deliveries: %+v %+v", s, b)
	}
}

func TestFlowTableSinkGoldenHoL(t *testing.T) {
	// Golden head-of-line sequence, receiver-side only: packets sent
	// every 10ms; seq 2 is delayed past seqs 3 and 4, so their in-order
	// latency is stalled to seq 2's arrival while raw OWD is not.
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	type d struct {
		at     sim.Time
		seq    uint32
		sentAt sim.Time
	}
	sched := []d{
		{ms(28), 0, ms(0)},
		{ms(38), 1, ms(10)},
		{ms(58), 3, ms(30)}, // arrives before seq 2: a gap for now
		{ms(68), 4, ms(40)},
		{ms(98), 2, ms(20)}, // late gap-filler: frontier already moved past it
	}
	eng := sim.NewEngine()
	ft2 := NewFlowTable(eng, DefaultClasses(), 4)
	ft2.Instrument(obs.NewRegistry(), "x")
	sink2 := ft2.SinkFor(eng)
	var inorder []time.Duration
	// Drive deliveries at exact virtual times via scheduled callbacks.
	for _, dv := range sched {
		dv := dv
		eng.Schedule(time.Duration(dv.at), func() {
			before := ft2.InOrderHistogram(ClassVideo).Sum()
			if !sink2(flowPacket(0, ClassVideo, 1, dv.seq, dv.sentAt)) {
				t.Errorf("seq %d rejected", dv.seq)
			}
			after := ft2.InOrderHistogram(ClassVideo).Sum()
			if after != before { // the late gap-filler is counted as a dup, unobserved
				inorder = append(inorder, time.Duration(after-before))
			}
		})
	}
	eng.RunAll()

	// seq 0: 28ms; seq 1: 28ms; seq 3: frontier 58 - sent 30 = 28ms;
	// seq 4: 68-40 = 28ms. seq 2 arrives after the frontier skipped it:
	// dup, no observation.
	want := []time.Duration{28 * time.Millisecond, 28 * time.Millisecond,
		28 * time.Millisecond, 28 * time.Millisecond}
	if len(inorder) != len(want) {
		t.Fatalf("in-order observations %v, want %d", inorder, len(want))
	}
	for i := range want {
		if inorder[i] != want[i] {
			t.Fatalf("in-order[%d] = %v, want %v", i, inorder[i], want[i])
		}
	}
	s := ft2.ClassStats(ClassVideo)
	if s.Delivered != 4 || s.Dups != 1 || s.Gaps != 1 {
		t.Fatalf("delivered/dups/gaps = %d/%d/%d, want 4/1/1", s.Delivered, s.Dups, s.Gaps)
	}
}

func TestFlowTableSinkHoLStallsLatePacket(t *testing.T) {
	// Variant where the delayed packet arrives *before* anything behind
	// it: in-order latency of the followers is stalled to its arrival.
	eng := sim.NewEngine()
	ft := NewFlowTable(eng, DefaultClasses(), 4)
	ft.Instrument(obs.NewRegistry(), "x")
	sink := ft.SinkFor(eng)
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	var got []time.Duration
	deliver := func(at sim.Time, seq uint32, sentAt sim.Time) {
		eng.Schedule(time.Duration(at), func() {
			before := ft.InOrderHistogram(ClassVoIP).Sum()
			sink(flowPacket(0, ClassVoIP, 1, seq, sentAt))
			got = append(got, time.Duration(ft.InOrderHistogram(ClassVoIP).Sum()-before))
		})
	}
	deliver(ms(28), 0, ms(0))
	deliver(ms(98), 1, ms(10)) // spike: 88ms OWD
	deliver(ms(99), 2, ms(20)) // on-time 79ms OWD, but frontier is 98... wait
	deliver(ms(100), 3, ms(30))
	eng.RunAll()
	want := []time.Duration{28 * time.Millisecond, 88 * time.Millisecond,
		79 * time.Millisecond, 70 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-order[%d] = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestFlowTableStaleGenerationCountedAsDup(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFlowTable(eng, DefaultClasses(), 4)
	ft.Instrument(obs.NewRegistry(), "x")
	sink := ft.SinkFor(eng)
	if !sink(flowPacket(0, ClassBulk, 2, 0, 0)) { // current incarnation: gen 2
		t.Fatal("gen-2 packet rejected")
	}
	if !sink(flowPacket(0, ClassBulk, 1, 5, 0)) { // straggler from gen 1
		t.Fatal("stale packet must be consumed (it is our traffic), not foreign")
	}
	s := ft.ClassStats(ClassBulk)
	if s.Delivered != 1 || s.Dups != 1 {
		t.Fatalf("delivered/dups = %d/%d, want 1/1", s.Delivered, s.Dups)
	}
	// A *newer* generation adopts (slot reused, first packet arrives).
	if !sink(flowPacket(0, ClassBulk, 3, 0, 0)) {
		t.Fatal("gen-3 packet rejected")
	}
	if s = ft.ClassStats(ClassBulk); s.Delivered != 2 {
		t.Fatalf("delivered = %d after reincarnation", s.Delivered)
	}
}

func TestFlowTableDuplicateDelivery(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFlowTable(eng, DefaultClasses(), 4)
	ft.Instrument(obs.NewRegistry(), "x")
	sink := ft.SinkFor(eng)
	sink(flowPacket(0, ClassVoIP, 1, 0, 0))
	if !sink(flowPacket(0, ClassVoIP, 1, 0, 0)) {
		t.Fatal("duplicate must be consumed, not reported foreign")
	}
	s := ft.ClassStats(ClassVoIP)
	if s.Delivered != 1 || s.Dups != 1 {
		t.Fatalf("delivered/dups = %d/%d, want 1/1", s.Delivered, s.Dups)
	}
	if ft.OWDHistogram(ClassVoIP).Count() != 1 {
		t.Fatal("duplicate observed into the OWD histogram")
	}
}

func TestFlowTableValidation(t *testing.T) {
	eng := sim.NewEngine()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	small := DefaultClasses()
	small[ClassVoIP].Payload = flowHeaderLen - 1
	expectPanic("payload below flow header", func() { NewFlowTable(eng, small, 4) })
	zero := DefaultClasses()
	zero[ClassBulk].Interval = 0
	expectPanic("zero interval", func() { NewFlowTable(eng, zero, 4) })
	expectPanic("zero capacity", func() { NewFlowTable(eng, DefaultClasses(), 0) })
	ft := NewFlowTable(eng, DefaultClasses(), 4)
	ft.AddEndpoint(nil, netip.MustParseAddr("::1"), netip.MustParseAddr("::2"))
	expectPanic("zero emits", func() { ft.Start(0, ClassVoIP, 0, 0) })
	expectPanic("bad class", func() { ft.Start(0, NumClasses, 1, 0) })
	expectPanic("arrivals without endpoints", func() {
		ft2 := NewFlowTable(eng, DefaultClasses(), 4)
		ft2.StartArrivals(sim.NewStreams(1).Stream("x"), ArrivalConfig{Rate: 1})
	})
}

func TestFlowTableStop(t *testing.T) {
	ft, run := flowNet(t, 8)
	ft.Start(0, ClassVoIP, 1000, 0)
	ft.Start(0, ClassBulk, 1000, 0)
	run(100 * time.Millisecond)
	sentAtStop := ft.Totals().Sent
	ft.Stop()
	if ft.Active() != 0 {
		t.Fatalf("Active = %d after Stop", ft.Active())
	}
	run(time.Second)
	if got := ft.Totals().Sent; got != sentAtStop {
		t.Fatalf("emissions continued after Stop: %d -> %d", sentAtStop, got)
	}
	// The table stays usable: freed slots restart.
	if ft.Start(0, ClassVideo, 2, 0) < 0 {
		t.Fatal("start after Stop refused")
	}
	run(time.Second)
	if s := ft.ClassStats(ClassVideo); s.Sent < 2 {
		t.Fatalf("post-Stop flow sent %d", s.Sent)
	}
}

func arrivalsRun(t *testing.T, seed int64, cfg ArrivalConfig, dur time.Duration) (*FlowTable, *Arrivals) {
	t.Helper()
	w, swA, swB := twoSwitchNet(t)
	ft := NewFlowTable(w.Eng, DefaultClasses(), 1<<14)
	ft.AddEndpoint(swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"))
	ft.Instrument(obs.NewRegistry(), "a")
	sink := ft.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) { sink(inner) }
	a := ft.StartArrivals(sim.NewStreams(seed).Stream("flows/arrivals"), cfg)
	w.Run(sim.Time(dur))
	a.Stop()
	w.Run(sim.Time(dur) + sim.Time(10*time.Second))
	return ft, a
}

func TestArrivalsFluidRateIsDeterministic(t *testing.T) {
	cfg := ArrivalConfig{Rate: 500, Emits: 3}
	ft1, a1 := arrivalsRun(t, 42, cfg, 2*time.Second)
	ft2, a2 := arrivalsRun(t, 42, cfg, 2*time.Second)
	if a1.Started == 0 {
		t.Fatal("no arrivals")
	}
	// The fluid generator starts exactly rate*duration flows.
	if want := uint64(500 * 2); a1.Started+a1.Refused != want {
		t.Fatalf("arrivals = %d, want %d", a1.Started+a1.Refused, want)
	}
	if a1.Started != a2.Started || ft1.Totals() != ft2.Totals() {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v",
			a1.Started, ft1.Totals(), a2.Started, ft2.Totals())
	}
	_, a3 := arrivalsRun(t, 43, cfg, 2*time.Second)
	if a3.Started != a1.Started {
		t.Fatal("fluid arrival count must not depend on the seed")
	}
	tot := ft1.Totals()
	if tot.Delivered != tot.Sent {
		t.Fatalf("lossless link lost packets: %+v", tot)
	}
	// Uniform class mix: every class sees traffic.
	for c := Class(0); c < NumClasses; c++ {
		if ft1.ClassStats(c).Sent == 0 {
			t.Fatalf("class %v starved", c)
		}
	}
}

func TestArrivalsFlashCrowd(t *testing.T) {
	base := ArrivalConfig{Rate: 200, Emits: 2}
	flash := base
	flash.FlashAt = sim.Time(500 * time.Millisecond)
	flash.FlashFor = time.Second
	flash.FlashFactor = 5
	_, a1 := arrivalsRun(t, 7, base, 2*time.Second)
	_, a2 := arrivalsRun(t, 7, flash, 2*time.Second)
	// 2s at 200/s = 400; flash adds 1s at 5x = +800.
	if a1.Started+a1.Refused != 400 {
		t.Fatalf("base arrivals = %d", a1.Started+a1.Refused)
	}
	if got := a2.Started + a2.Refused; got != 400+800 {
		t.Fatalf("flash arrivals = %d, want 1200", got)
	}
}

func TestFlowTableSinkDisambiguatesTables(t *testing.T) {
	// Two tables with overlapping flow-index ranges share one receiving
	// switch (the E13 shape: one table per sending site). The inner
	// source address keyed by the packet's flow index must route each
	// delivery to its own table.
	w, swA, swB := twoSwitchNet(t)
	ftX := NewFlowTable(w.Eng, DefaultClasses(), 8)
	ftX.AddEndpoint(swA,
		netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::1"))
	ftX.Instrument(obs.NewRegistry(), "x")
	ftY := NewFlowTable(w.Eng, DefaultClasses(), 8)
	ftY.AddEndpoint(swA,
		netip.MustParseAddr("2001:db8:aa::2"), netip.MustParseAddr("2001:db8:bb::1"))
	ftY.Instrument(obs.NewRegistry(), "y")
	sinkX, sinkY := ftX.SinkFor(w.Eng), ftY.SinkFor(w.Eng)
	swB.DeliverLocal = func(inner []byte) {
		if !sinkX(inner) {
			sinkY(inner)
		}
	}
	// Same flow index (0) live in both tables, different packet counts.
	ftX.Start(0, ClassVoIP, 3, 0)
	ftY.Start(0, ClassVoIP, 5, 0)
	w.Run(time.Second)
	sx, sy := ftX.ClassStats(ClassVoIP), ftY.ClassStats(ClassVoIP)
	if sx.Sent != 3 || sx.Delivered != 3 || sx.Dups != 0 {
		t.Fatalf("table X stats %+v, want 3 sent/delivered", sx)
	}
	if sy.Sent != 5 || sy.Delivered != 5 || sy.Dups != 0 {
		t.Fatalf("table Y stats %+v, want 5 sent/delivered", sy)
	}
}

func TestHistogramQuantileFlowScale(t *testing.T) {
	// The SLO check path: p99 of a distribution with a known tail.
	var h obs.Histogram
	for i := 0; i < 990; i++ {
		h.Observe(int64(5 * time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(300 * time.Millisecond))
	}
	// 5ms lands in the 2^23ns (~8.4ms) log2 bucket: the bound is within
	// 2x of the true quantile.
	if q := obs.Quantile(0.5, &h); q > int64(10*time.Millisecond) {
		t.Fatalf("p50 bound = %v", time.Duration(q))
	}
	if q := obs.Quantile(0.99, &h); q > int64(10*time.Millisecond) {
		t.Fatalf("p99 bound = %v (tail is exactly 1%%)", time.Duration(q))
	}
	if q := obs.Quantile(1, &h); q < int64(300*time.Millisecond) {
		t.Fatalf("p100 bound = %v misses the tail", time.Duration(q))
	}
}
