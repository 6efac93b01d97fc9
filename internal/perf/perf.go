// Package perf is the one table of micro-benchmark bodies for the
// per-packet hot paths: plain functions over *testing.B, listed once in
// Micros. perf_test.go loops over the table twice — TestZeroAlloc is the
// hard zero-allocation gate, BenchmarkMicro the `go test -bench` face —
// and the benchmark harness (benchmark/) times the same bodies by name
// for its per-layer cost sheet. A new micro is a body plus one row.
//
// Each body warms the buffer/event freelists before ResetTimer so the
// measured region is the steady state the pools are designed for: after
// warmup the encap→inject→deliver path performs zero heap allocations,
// and TestZeroAlloc fails the build if that regresses.
package perf

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/simnet"
)

// Micro is one row of the table: a name and the body it labels.
type Micro struct {
	Name string
	Fn   func(*testing.B)
}

// Micros lists every micro body once. Every row is held to zero
// allocations per op in steady state: the packet path, the scheduler's
// freelist-backed schedule/fire/cancel, the telemetry instruments that
// ride every encap, the flow table's emit and slot churn, and the TE
// solver's move evaluation and re-solve.
var Micros = []Micro{
	{"Encap", BenchEncap},
	{"Decap", BenchDecap},
	{"LinkTraverse", BenchLinkTraverse},
	{"SchedFire", BenchSchedFire},
	{"Cancel", BenchCancel},
	{"LateBurst", BenchLateBurst},
	{"ObsCounter", BenchObsCounter},
	{"ObsHistogram", BenchObsHistogram},
	{"FlowEmit", BenchFlowEmit},
	{"FlowArriveDepart", BenchFlowArriveDepart},
	{"TEMoveEval", BenchTEMoveEval},
	{"SolverConverge", BenchSolverConverge},
}

const payloadSize = 1024

// warmupIters primes pools (packet buffers, engine event freelist, heap
// storage) so steady-state measurement starts with everything recycled.
const warmupIters = 128

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// buildInner returns a host-level IPv6/UDP packet with a payload of
// payloadSize zero bytes.
func buildInner() []byte {
	return packet.InnerUDP{
		Src: mustAddr("2001:db8:aa::1"), Dst: mustAddr("2001:db8:bb::1"),
		SrcPort: 7000, DstPort: 7001,
	}.New(make([]byte, payloadSize))
}

// BenchEncap measures the sender program — classify, lease a pooled
// buffer, encapsulate, timestamp, checksum, inject — on 1 KiB payloads.
// The fixture has no route for the tunnel's remote endpoint, so each
// packet is consumed (and its buffer recycled) at the local node and the
// loop measures exactly one encap per iteration.
func BenchEncap(b *testing.B) {
	w := simnet.New(1)
	n := w.AddNode("bench", 0)
	sw := dataplane.NewSwitch(n)
	tun := &dataplane.Tunnel{
		PathID:     1,
		Name:       "bench",
		LocalAddr:  mustAddr("2001:db8:1::1"),
		RemoteAddr: mustAddr("2001:db8:2::1"),
		SrcPort:    40001,
	}
	sw.AddTunnel(tun)
	// The gate measures the *instrumented* path: per-packet counter
	// increments and latency observations must stay allocation-free.
	sw.Instrument(obs.NewRegistry(), "bench")
	inner := buildInner()
	for i := 0; i < warmupIters; i++ {
		sw.SendOnTunnel(tun, inner)
	}
	w.Eng.RunAll()
	b.ReportAllocs()
	b.SetBytes(int64(len(inner)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SendOnTunnel(tun, inner)
	}
	b.StopTimer()
	w.Eng.RunAll()
	if sw.Stats.Encapped != uint64(b.N+warmupIters) {
		b.Fatalf("encapped %d of %d", sw.Stats.Encapped, b.N+warmupIters)
	}
}

// BenchDecap measures the receiver program — parse, verify, one-way
// delay measurement, decap, local delivery — on 1 KiB payloads.
func BenchDecap(b *testing.B) {
	w := simnet.New(2)
	n := w.AddNode("recv", 0)
	sw := dataplane.NewSwitch(n)
	tun := &dataplane.Tunnel{PathID: 1,
		LocalAddr:  mustAddr("2001:db8:2::1"), // remote's view
		RemoteAddr: mustAddr("2001:db8:1::1"),
	}
	// Instrumented like BenchEncap: warmup covers the receive path's
	// one-time lazy rx-counter registration, so the measured region is
	// pure atomics.
	sw.Instrument(obs.NewRegistry(), "bench")
	// The frame as the tunnel's remote peer would send it.
	outer := packet.OuterFrame(tun.RemoteAddr, tun.LocalAddr, 40001, tun.PathID, buildInner())
	n.AddAddr(tun.LocalAddr)
	measured := 0
	sw.OnMeasure = func(dataplane.Measurement) { measured++ }
	for i := 0; i < warmupIters; i++ {
		n.Inject(outer)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(outer)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(outer)
	}
	b.StopTimer()
	if measured != b.N+warmupIters {
		b.Fatalf("measured %d of %d", measured, b.N+warmupIters)
	}
}

// BenchLinkTraverse measures one full link traversal: inject at A,
// serialize onto the line, closure-free delivery event through the
// engine, arrival and local consumption at B. Each iteration runs the
// engine to completion, so the event freelist and the packet buffer are
// recycled every op.
func BenchLinkTraverse(b *testing.B) {
	w := simnet.New(3)
	na := w.AddNode("a", 0)
	nb := w.AddNode("b", 0)
	w.Connect(na, nb, simnet.FixedDelay(time.Millisecond), simnet.FixedDelay(time.Millisecond))
	dst := mustAddr("2001:db8:bb::1")
	nb.AddAddr(dst)
	na.SetRoute(addr.MustParsePrefix("2001:db8:bb::/48"), na.Ports()[0])
	pkt := buildInner()
	for i := 0; i < warmupIters; i++ {
		na.Inject(pkt)
		w.Eng.RunAll()
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		na.Inject(pkt)
		w.Eng.RunAll()
	}
	b.StopTimer()
	if nb.Stats.Delivered != uint64(b.N+warmupIters) {
		b.Fatalf("delivered %d of %d", nb.Stats.Delivered, b.N+warmupIters)
	}
}
