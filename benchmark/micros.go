package main

import (
	"flag"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/perf"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/transport/udp"
	"tango/internal/workload"
)

// Per-layer unit costs. Each micro is the median of sizing.microReps runs
// of testing.Benchmark (the MAD is stored beside it in the result file);
// bodies come from internal/perf where one measures the layer alone, and
// are written here where it does not.

const microWarmup = 128

// micro is one measured unit cost.
type micro struct {
	name  string
	unit  string
	scale float64 // ns/op is divided by this (1000 for µs metrics)
	fn    func(*testing.B)
}

func microTable() []micro {
	return []micro{
		{"packet.serialize_ns_1k", "ns", 1, benchSerialize(1024)},
		{"packet.serialize_ns_64", "ns", 1, benchSerialize(64)},
		{"packet.checksum_ns_1k", "ns", 1, benchChecksum},
		{"packet.parse_ns", "ns", 1, benchParse},
		{"packet.verify_ns_1k", "ns", 1, benchVerify(1024)},
		{"packet.verify_ns_64", "ns", 1, benchVerify(64)},
		{"packet.pool_ns", "ns", 1, benchPool},
		{"dataplane.encap_ns_1k", "ns", 1, perf.BenchEncap},
		{"dataplane.encap_ns_64", "ns", 1, benchEncap(64, true)},
		{"dataplane.decap_ns_1k", "ns", 1, perf.BenchDecap},
		{"dataplane.decap_ns_64", "ns", 1, benchDecap(64, true)},
		{"simnet.link_ns", "ns", 1, perf.BenchLinkTraverse},
		{"sim.sched_fire_ns", "ns", 1, perf.BenchSchedFire},
		{"sim.cancel_ns", "ns", 1, perf.BenchCancel},
		{"sim.batch_ns", "ns", 1, benchBatchWheel},
		{"workload.emit_ns", "ns", 1, benchFlowEmitOnly},
		{"workload.sink_ns", "ns", 1, benchFlowSink},
		{"workload.arrive_depart_ns", "ns", 1, perf.BenchFlowArriveDepart},
		{"control.ingest_ns", "ns", 1, benchIngest},
		{"control.select_ns", "ns", 1, benchSelect},
		{"control.decide_ns", "ns", 1, benchDecide},
		{"obs.counter_ns", "ns", 1, perf.BenchObsCounter},
		{"obs.hist_ns", "ns", 1, perf.BenchObsHistogram},
		{"te.move_ns", "ns", 1, perf.BenchTEMoveEval},
		{"te.solve_us", "us", 1000, perf.BenchSolverConverge},
		{"udp.inject_ns", "ns", 1, benchUDPInject},
	}
}

// microResult is a micro's median and spread over its repetitions.
type microResult struct {
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	Unit   string  `json:"unit"`
}

// runMicro runs fn reps times and returns the median ns/op and MAD.
func runMicro(fn func(*testing.B), reps int) (med, spread float64, err error) {
	var xs []float64
	for r := 0; r < reps; r++ {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			return 0, 0, fmt.Errorf("benchmark body failed")
		}
		xs = append(xs, float64(res.T.Nanoseconds())/float64(res.N))
	}
	return median(xs), mad(xs), nil
}

// runMicros measures the whole table plus the derived obs overhead.
func runMicros(size sizing) (map[string]microResult, error) {
	// testing.Benchmark takes its run length from the testing flags, which
	// exist once testing.Init has run (main and the test binary both do).
	if err := flag.Set("test.benchtime", size.microBenchtime); err != nil {
		return nil, err
	}
	out := map[string]microResult{}
	for _, m := range microTable() {
		med, sp, err := runMicro(m.fn, size.microReps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = microResult{Median: med / m.scale, MAD: sp / m.scale, Unit: m.unit}
	}
	// The same two bodies without instrumentation, measured only to derive
	// what the instrumentation costs.
	overhead := out["dataplane.encap_ns_64"].Median + out["dataplane.decap_ns_64"].Median
	for _, bare := range []func(*testing.B){benchEncap(64, false), benchDecap(64, false)} {
		med, _, err := runMicro(bare, size.microReps)
		if err != nil {
			return nil, err
		}
		overhead -= med
	}
	out["dataplane.obs_overhead_ns"] = microResult{Median: overhead, Unit: "ns"}
	tb, _ := perf.FlowMemoryPerFlow()
	out["workload.bytes_per_flow"] = microResult{Median: tb, Unit: "B"}
	return out, nil
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// innerPacket builds a host IPv6/UDP packet whose total length is size
// bytes (48 bytes of headers plus payload).
func innerPacket(size int, src, dst netip.Addr, dport uint16) []byte {
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload(make([]byte, size-48))
	u := &packet.UDP{SrcPort: 7000, DstPort: dport}
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	if err := packet.SerializeLayers(buf, ip, u, &pay); err != nil {
		panic(err) // fixed, valid layers
	}
	return append([]byte(nil), buf.Bytes()...)
}

func benchInner(size int) []byte {
	return innerPacket(size, mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"), 7001)
}

var benchTunnel = dataplane.Tunnel{
	PathID:     1,
	Name:       "bench",
	LocalAddr:  mustAddr("2001:db8:1::1"),
	RemoteAddr: mustAddr("2001:db8:2::1"),
	SrcPort:    40001,
}

// outerLayers returns the encapsulation the sender program builds around
// inner, as seen by the tunnel's far end.
func outerLayers(inner []byte) (*packet.IPv6, *packet.UDP, *packet.Tango, *packet.Payload) {
	pay := packet.Payload(inner)
	hdr := &packet.Tango{
		Flags:    packet.TangoFlagSeq | packet.TangoFlagTimestamp | packet.TangoFlagInner6,
		PathID:   1,
		SendTime: 1,
	}
	u := &packet.UDP{SrcPort: 40001, DstPort: packet.TangoPort}
	u.SetNetworkForChecksum(benchTunnel.RemoteAddr, benchTunnel.LocalAddr)
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: benchTunnel.RemoteAddr, Dst: benchTunnel.LocalAddr}
	return ip, u, hdr, &pay
}

func benchOuter(inner []byte) []byte {
	buf := packet.NewSerializeBuffer()
	ip, u, hdr, pay := outerLayers(inner)
	if err := packet.SerializeLayers(buf, ip, u, hdr, pay); err != nil {
		panic(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// benchSerialize measures the sender program's packet work alone: lease a
// pooled buffer, serialize payload, Tango, UDP (with its checksum) and
// IPv6 into it bottom-up, release.
func benchSerialize(size int) func(*testing.B) {
	return func(b *testing.B) {
		pool := packet.NewBufPool()
		ip, u, hdr, pay := outerLayers(benchInner(size))
		one := func() {
			pb := pool.Get()
			buf := &pb.SerializeBuffer
			err := pay.SerializeTo(buf)
			if err == nil {
				err = hdr.SerializeTo(buf)
			}
			if err == nil {
				err = u.SerializeTo(buf)
			}
			if err == nil {
				err = ip.SerializeTo(buf)
			}
			if err != nil {
				b.Fatal(err)
			}
			pb.Release()
		}
		for i := 0; i < microWarmup; i++ {
			one()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one()
		}
	}
}

var sinkU16 uint16

func benchChecksum(b *testing.B) {
	outer := benchOuter(benchInner(1024))
	datagram := outer[40:]
	src, dst := benchTunnel.RemoteAddr, benchTunnel.LocalAddr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU16 = packet.UDPChecksumFor(src, dst, datagram)
	}
}

func benchParse(b *testing.B) {
	outer := benchOuter(benchInner(1024))
	var ip packet.IPv6
	var u packet.UDP
	var tng packet.Tango
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.DecodeFromBytes(outer); err != nil {
			b.Fatal(err)
		}
		if err := u.DecodeFromBytes(ip.LayerPayload()); err != nil {
			b.Fatal(err)
		}
		if err := tng.DecodeFromBytes(u.LayerPayload()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVerify(size int) func(*testing.B) {
	return func(b *testing.B) { verifyBody(b, benchOuter(benchInner(size))) }
}

func verifyBody(b *testing.B, outer []byte) {
	var ip packet.IPv6
	var u packet.UDP
	if err := ip.DecodeFromBytes(outer); err != nil {
		b.Fatal(err)
	}
	if err := u.DecodeFromBytes(ip.LayerPayload()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := u.VerifyChecksum(ip.Src, ip.Dst, ip.LayerPayload()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPool(b *testing.B) {
	pool := packet.NewBufPool()
	pool.Get().Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Get().Release()
	}
}

// benchEncap is perf.BenchEncap with the inner size and instrumentation
// as parameters: SendOnTunnel into a node with no route, so each packet is
// consumed locally and one iteration is exactly one sender program.
func benchEncap(size int, instrumented bool) func(*testing.B) {
	return func(b *testing.B) {
		w := simnet.New(1)
		sw := dataplane.NewSwitch(w.AddNode("bench", 0))
		tun := benchTunnel
		sw.AddTunnel(&tun)
		if instrumented {
			sw.Instrument(obs.NewRegistry(), "bench")
		}
		inner := benchInner(size)
		for i := 0; i < microWarmup; i++ {
			sw.SendOnTunnel(&tun, inner)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.SendOnTunnel(&tun, inner)
		}
		b.StopTimer()
		if sw.Stats.Encapped != uint64(b.N+microWarmup) {
			b.Fatalf("encapped %d of %d", sw.Stats.Encapped, b.N+microWarmup)
		}
	}
}

// benchDecap is perf.BenchDecap with the same two parameters: Node.Inject
// of a prebuilt outer packet addressed to the node itself.
func benchDecap(size int, instrumented bool) func(*testing.B) {
	return func(b *testing.B) {
		w := simnet.New(2)
		n := w.AddNode("recv", 0)
		sw := dataplane.NewSwitch(n)
		if instrumented {
			sw.Instrument(obs.NewRegistry(), "bench")
		}
		outer := benchOuter(benchInner(size))
		n.AddAddr(benchTunnel.LocalAddr)
		measured := 0
		sw.OnMeasure = func(dataplane.Measurement) { measured++ }
		for i := 0; i < microWarmup; i++ {
			n.Inject(outer)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Inject(outer)
		}
		b.StopTimer()
		if measured != b.N+microWarmup {
			b.Fatalf("measured %d of %d", measured, b.N+microWarmup)
		}
	}
}

// benchBatchWheel measures one BatchWheel Add plus its share of the drain
// that fires it, with 1024 items re-armed every granule.
func benchBatchWheel(b *testing.B) {
	const items = 1024
	eng := sim.NewEngine()
	var wheel *sim.BatchWheel
	fired := 0
	wheel = sim.NewBatchWheel(eng, time.Millisecond, 64*time.Millisecond, func(now sim.Time, item int32) {
		fired++
		wheel.Add(item, now+sim.Time(time.Millisecond))
	})
	wheel.Reserve(items)
	for i := int32(0); i < items; i++ {
		wheel.Add(i, sim.Time(time.Millisecond))
	}
	eng.Run(sim.Time(8 * time.Millisecond))
	fired = 0
	b.ResetTimer()
	for fired < b.N {
		eng.Run(eng.Now() + sim.Time(time.Millisecond))
	}
}

// flowTableOnly builds a flow table over a switch with no tunnel: every
// emission stops at the sender program's first branch, so what remains is
// the table's own work (wheel drain, template stamp, re-arm).
func flowTableOnly(flows int) (*simnet.Network, *workload.FlowTable, *dataplane.Switch) {
	w := simnet.New(4)
	sw := dataplane.NewSwitch(w.AddNode("a", 0))
	var classes [workload.NumClasses]workload.ClassSpec
	for c := range classes {
		classes[c] = workload.ClassSpec{Interval: time.Millisecond, Payload: 64}
	}
	ft := workload.NewFlowTable(w.Eng, classes, flows)
	ft.Instrument(obs.NewRegistry(), "bench")
	ep := ft.AddEndpoint(sw, mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"))
	for i := 0; i < flows; i++ {
		ft.Start(ep, workload.Class(i%workload.NumClasses), 1<<31, 0)
	}
	return w, ft, sw
}

func benchFlowEmitOnly(b *testing.B) {
	w, ft, sw := flowTableOnly(perf.FlowBenchFlows)
	w.Run(sim.Time(8 * time.Millisecond))
	start := ft.Totals().Sent
	b.ResetTimer()
	for ft.Totals().Sent-start < uint64(b.N) {
		w.Run(w.Eng.Now() + sim.Time(time.Millisecond))
	}
	b.StopTimer()
	if sw.Stats.NoTunnel == 0 {
		b.Fatal("emissions did not reach the switch")
	}
}

// benchFlowSink measures receiver-side flow accounting alone: the sink is
// handed the packets a one-flow table would have emitted, in order.
func benchFlowSink(b *testing.B) {
	w, ft, _ := flowTableOnly(1)
	sink := ft.SinkFor(w.Eng)
	inner := innerPacket(48+64, mustAddr("2001:db8:aa::1"), mustAddr("2001:db8:bb::1"), workload.FlowPort)
	// Flow word: index 0, class 0, generation 1 (the first incarnation).
	inner[52], inner[53], inner[54], inner[55] = 1, 0, 0, 0
	put := func(seq uint32) {
		inner[48], inner[49], inner[50], inner[51] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	}
	put(0)
	if !sink(inner) {
		b.Fatal("sink did not claim the flow packet")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(uint32(i + 1))
		sink(inner)
	}
	b.StopTimer()
	if got := ft.Totals().Delivered; got != uint64(b.N+1) {
		b.Fatalf("delivered %d of %d", got, b.N+1)
	}
}

func benchIngest(b *testing.B) {
	mon := control.NewMonitor()
	mon.Instrument(obs.NewRegistry(), "bench")
	name := func(uint8) string { return "p" }
	m := dataplane.Measurement{PathID: 1, OWD: 30 * time.Millisecond, Size: 1100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint32(i)
		m.At = sim.Time(i) * sim.Time(time.Microsecond)
		m.OWD = 30*time.Millisecond + time.Duration(i&1023)
		mon.Ingest(m, name)
	}
}

// controllerFixture is a switch with four tunnels under a MinOWD
// controller that has an estimate for each — the pair deployment's shape.
func controllerFixture() (*sim.Engine, *dataplane.Switch, *control.Controller) {
	w := simnet.New(5)
	sw := dataplane.NewSwitch(w.AddNode("ctl", 0))
	for i := uint8(1); i <= 4; i++ {
		t := benchTunnel
		t.PathID = i
		sw.AddTunnel(&t)
	}
	ctl := control.NewController(w.Eng, sw, &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second})
	ctl.Instrument(obs.NewRegistry(), obs.NewJournal(64), "bench")
	for i := uint8(1); i <= 4; i++ {
		ctl.UpdateEstimate(i, 30+float64(i), 0.1, 100)
	}
	return w.Eng, sw, ctl
}

// benchSelect measures what the controller's installed Selector does per
// packet: resolve the current path ID to its tunnel.
func benchSelect(b *testing.B) {
	eng, _, ctl := controllerFixture()
	ctl.Start(time.Millisecond)
	eng.Run(sim.Time(2 * time.Millisecond)) // one decision, so a current path is set
	ctl.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU16 += uint16(ctl.Current())
	}
}

// benchDecide measures one controller decision tick on an otherwise empty
// engine: the 1 ms ticker is the only event source.
func benchDecide(b *testing.B) {
	eng, _, ctl := controllerFixture()
	ctl.Start(time.Millisecond)
	eng.Run(sim.Time(8 * time.Millisecond))
	start := ctl.Stats.Decisions
	b.ResetTimer()
	eng.Run(eng.Now() + sim.Time(b.N)*sim.Time(time.Millisecond))
	b.StopTimer()
	if got := ctl.Stats.Decisions - start; got != uint64(b.N) {
		b.Fatalf("decided %d of %d", got, b.N)
	}
}

// benchUDPInject measures Backend.Do around InjectBuf of a 1 KiB-inner
// frame, including the write syscall, toward a socket that is drained by
// a plain reader.
func benchUDPInject(b *testing.B) {
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			if _, _, err := sinkConn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	be, err := udp.New(udp.Config{Name: "bench", Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	be.Start()
	outer := benchOuter(benchInner(1024))
	to := sinkConn.LocalAddr().(*net.UDPAddr).AddrPort()
	be.Do(func() { be.AddRoute(benchTunnel.LocalAddr, netip.AddrPortFrom(to.Addr().Unmap(), to.Port()), 0) })
	one := func() {
		be.Do(func() {
			pb := be.Pool().Get()
			pb.SetBytes(outer)
			be.InjectBuf(pb)
		})
	}
	for i := 0; i < microWarmup; i++ {
		one()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
	b.StopTimer()
	sent := be.Stats().TxFrames
	be.Close()
	sinkConn.Close()
	<-done
	if sent != uint64(b.N+microWarmup) {
		b.Fatalf("transmitted %d of %d", sent, b.N+microWarmup)
	}
}
