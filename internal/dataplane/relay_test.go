package dataplane

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
	"tango/internal/simnet"
)

// relayChain wires the minimal overlay: site A, a relay site with an
// ingress and an egress switch (the intra-site hand-off), and site C.
//
//	swA ──(segment 1)── swIn │ relay │ swOut ──(segment 2)── swC
type relayChain struct {
	w                     *simnet.Network
	swA, swIn, swOut, swC *Switch
	relay                 *Relay
}

const (
	seg1Delay = 10 * time.Millisecond
	seg2Delay = 25 * time.Millisecond
)

func newRelayChain(t *testing.T) *relayChain {
	t.Helper()
	w := simnet.New(7)
	na := w.AddNode("siteA", 0)
	nin := w.AddNode("relayIn", 0)
	nout := w.AddNode("relayOut", 0)
	nc := w.AddNode("siteC", 0)
	w.Connect(na, nin,
		simnet.FixedDelay(seg1Delay),
		simnet.FixedDelay(seg1Delay))
	w.Connect(nout, nc,
		simnet.FixedDelay(seg2Delay),
		simnet.FixedDelay(seg2Delay))

	na.SetRoute(addr.MustParsePrefix("2001:db8:e1::/48"), na.Ports()[0])
	nin.SetRoute(addr.MustParsePrefix("2001:db8:a1::/48"), nin.Ports()[0])
	nout.SetRoute(addr.MustParsePrefix("2001:db8:c1::/48"), nout.Ports()[0])
	nc.SetRoute(addr.MustParsePrefix("2001:db8:e2::/48"), nc.Ports()[0])

	c := &relayChain{w: w, relay: NewRelay()}
	c.swA = NewSwitch(na)
	c.swIn = NewSwitch(nin)
	c.swOut = NewSwitch(nout)
	c.swC = NewSwitch(nc)
	c.swA.AddTunnel(&Tunnel{PathID: 1, Name: "seg1",
		LocalAddr:  netip.MustParseAddr("2001:db8:a1::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:e1::1"), SrcPort: 41001})
	c.swIn.AddTunnel(&Tunnel{PathID: 1, Name: "seg1-back",
		LocalAddr:  netip.MustParseAddr("2001:db8:e1::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:a1::1"), SrcPort: 41001})
	c.swOut.AddTunnel(&Tunnel{PathID: 3, Name: "seg2",
		LocalAddr:  netip.MustParseAddr("2001:db8:e2::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:c1::1"), SrcPort: 41002})
	c.swC.AddTunnel(&Tunnel{PathID: 3, Name: "seg2-back",
		LocalAddr:  netip.MustParseAddr("2001:db8:c1::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:e2::1"), SrcPort: 41002})

	// Site C's hosts are two overlay segments from A.
	cHosts := addr.MustParsePrefix("2001:db8:cc::/48")
	c.swA.AddRelayPrefix(cHosts, 2)
	c.relay.AddRoute(cHosts, c.swOut)
	c.relay.Attach(c.swIn)
	return c
}

func relayInner(t testing.TB, dst string, payload string) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte(payload))
	udp := &packet.UDP{SrcPort: 7000, DstPort: 7001}
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8:aa::1"),
		Dst: netip.MustParseAddr(dst)}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

// TestRelayTagOnWire checks the sender stamps the relay extension for
// relay prefixes and that the tag parses back, with and without a
// coexisting report block and auth tag.
func TestRelayTagOnWire(t *testing.T) {
	hdr := packet.Tango{
		Flags:    packet.TangoFlagSeq | packet.TangoFlagTimestamp | packet.TangoFlagReport,
		ExtFlags: packet.TangoExtRelay,
		PathID:   5,
		Seq:      99,
		SendTime: 1234,
		RelayTTL: 3,
		Report:   packet.OWDReport{PathID: 2, SampleCount: 7, MeanOWDNano: 1e6, JitterNano: 2e5},
	}
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("x"))
	if err := packet.SerializeLayers(buf, &hdr, &pay); err != nil {
		t.Fatal(err)
	}
	var dec packet.Tango
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.ExtFlags&packet.TangoExtRelay == 0 || dec.RelayTTL != 3 {
		t.Fatalf("relay tag lost: ext=%#x ttl=%d", dec.ExtFlags, dec.RelayTTL)
	}
	if dec.Report.SampleCount != 7 || string(dec.LayerPayload()) != "x" {
		t.Fatalf("relay block corrupted neighbours: %+v", dec)
	}

	// End to end: host traffic matching a relay prefix leaves the origin
	// switch tagged with the configured TTL budget.
	c := newRelayChain(t)
	seen := map[uint8]uint8{} // pathID -> ttl observed at relay ingress
	var atIn packet.Tango
	c.swIn.ep.SetHandler(func(data []byte) {
		var ip packet.IPv6
		var udp packet.UDP
		if ip.DecodeFromBytes(data) != nil || udp.DecodeFromBytes(ip.LayerPayload()) != nil {
			t.Fatal("bad outer packet")
		}
		if err := atIn.DecodeFromBytes(udp.LayerPayload()); err != nil {
			t.Fatal(err)
		}
		seen[atIn.PathID] = atIn.RelayTTL
		if atIn.ExtFlags&packet.TangoExtRelay == 0 {
			t.Fatal("relay-prefix traffic not tagged")
		}
	})
	c.swA.HandleHostTraffic(relayInner(t, "2001:db8:cc::1", "tagme"))
	c.w.Run(time.Second)
	if seen[1] != 2 {
		t.Fatalf("relay TTL on wire = %d, want 2", seen[1])
	}
}

// TestRelayForwardReencapsulates checks the full chain: the relay
// re-encapsulates onto the next segment (fresh path ID, sequence, and
// timestamp) and the far site delivers the unmodified inner packet.
func TestRelayForwardReencapsulates(t *testing.T) {
	c := newRelayChain(t)
	var delivered [][]byte
	// DeliverLocal borrows its slice; copy to retain past the callback.
	c.swC.DeliverLocal = func(inner []byte) { delivered = append(delivered, append([]byte(nil), inner...)) }
	var measIn, measC []Measurement
	c.swIn.OnMeasure = func(m Measurement) { measIn = append(measIn, m) }
	c.swC.OnMeasure = func(m Measurement) { measC = append(measC, m) }

	orig := relayInner(t, "2001:db8:cc::1", "over the top")
	c.swA.HandleHostTraffic(append([]byte{}, orig...))
	c.w.Run(time.Second)

	if len(delivered) != 1 || !bytes.Equal(delivered[0], orig) {
		t.Fatalf("delivered=%d, inner corrupted=%v", len(delivered), len(delivered) == 1)
	}
	if c.relay.Stats.Forwarded != 1 || c.swIn.Stats.Relayed != 1 {
		t.Fatalf("relay stats: %+v, ingress: %+v", c.relay.Stats, c.swIn.Stats)
	}
	// Per-segment measurement: each segment sees its own delay under its
	// own path ID, proving re-encapsulation rather than pass-through.
	if len(measIn) != 1 || measIn[0].PathID != 1 || measIn[0].OWD != seg1Delay {
		t.Fatalf("segment 1 measurement: %+v", measIn)
	}
	if len(measC) != 1 || measC[0].PathID != 3 || measC[0].OWD != seg2Delay {
		t.Fatalf("segment 2 measurement: %+v", measC)
	}
}

// TestRelayTTLGuard checks an exhausted hop budget drops the packet at
// the relay instead of forwarding it.
func TestRelayTTLGuard(t *testing.T) {
	c := newRelayChain(t)
	c.swA.AddRelayPrefix(addr.MustParsePrefix("2001:db8:cc::/48"), 1) // overrides TTL 2
	var delivered int
	c.swC.DeliverLocal = func([]byte) { delivered++ }
	c.swIn.DeliverLocal = func([]byte) { t.Fatal("expired packet delivered locally") }

	c.swA.HandleHostTraffic(relayInner(t, "2001:db8:cc::1", "doomed"))
	c.w.Run(time.Second)

	if delivered != 0 {
		t.Fatal("TTL-expired packet reached the far site")
	}
	if c.relay.Stats.TTLExpired != 1 || c.relay.Stats.Forwarded != 0 {
		t.Fatalf("relay stats: %+v", c.relay.Stats)
	}
}

// TestRelayLoopGuard wires two relay sites that point the same prefix at
// each other; the TTL budget must terminate the loop.
func TestRelayLoopGuard(t *testing.T) {
	w := simnet.New(9)
	na := w.AddNode("siteA", 0)
	n1in, n1out := w.AddNode("r1in", 0), w.AddNode("r1out", 0)
	n2in, n2out := w.AddNode("r2in", 0), w.AddNode("r2out", 0)
	d := simnet.FixedDelay(time.Millisecond)
	w.Connect(na, n1in, d, d)
	w.Connect(n1out, n2in, d, d)
	w.Connect(n2out, n1in, d, d)
	na.SetRoute(addr.MustParsePrefix("2001:db8:10::/48"), na.Ports()[0])
	n1out.SetRoute(addr.MustParsePrefix("2001:db8:20::/48"), n1out.Ports()[0])
	n2out.SetRoute(addr.MustParsePrefix("2001:db8:10::/48"), n2out.Ports()[0])

	swA := NewSwitch(na)
	sw1in, sw1out := NewSwitch(n1in), NewSwitch(n1out)
	sw2in, sw2out := NewSwitch(n2in), NewSwitch(n2out)
	swA.AddTunnel(&Tunnel{PathID: 1, LocalAddr: netip.MustParseAddr("2001:db8:a1::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:10::1"), SrcPort: 41001})
	sw1in.AddTunnel(&Tunnel{PathID: 1, LocalAddr: netip.MustParseAddr("2001:db8:10::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:a1::1"), SrcPort: 41001})
	sw1out.AddTunnel(&Tunnel{PathID: 1, LocalAddr: netip.MustParseAddr("2001:db8:1f::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:20::1"), SrcPort: 41002})
	sw2in.AddTunnel(&Tunnel{PathID: 1, LocalAddr: netip.MustParseAddr("2001:db8:20::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:1f::1"), SrcPort: 41002})
	sw2out.AddTunnel(&Tunnel{PathID: 1, LocalAddr: netip.MustParseAddr("2001:db8:2f::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:10::1"), SrcPort: 41003})

	// The destination prefix is local nowhere; the two relays bounce it
	// at each other.
	ghost := addr.MustParsePrefix("2001:db8:99::/48")
	r1, r2 := NewRelay(), NewRelay()
	r1.AddRoute(ghost, sw1out)
	r1.Attach(sw1in)
	r2.AddRoute(ghost, sw2out)
	r2.Attach(sw2in)
	swA.AddRelayPrefix(ghost, 5)

	swA.HandleHostTraffic(relayInner(t, "2001:db8:99::1", "looper"))
	w.Run(time.Second) // would never return if the loop were unbounded

	if r1.Stats.TTLExpired+r2.Stats.TTLExpired != 1 {
		t.Fatalf("loop not terminated by TTL: r1=%+v r2=%+v", r1.Stats, r2.Stats)
	}
	hops := r1.Stats.Forwarded + r2.Stats.Forwarded
	if hops != 4 { // TTL 5: four forwards, then the guard fires
		t.Fatalf("forwards before expiry = %d, want 4", hops)
	}
}

// TestRelayNoRouteDeliversLocally checks a tagged packet whose inner
// destination has no next segment falls through to local delivery — the
// behaviour at the overlay route's final site.
func TestRelayNoRouteDeliversLocally(t *testing.T) {
	c := newRelayChain(t)
	var atRelay int
	c.swIn.DeliverLocal = func([]byte) { atRelay++ }
	// Tag traffic for a prefix the relay has no route for.
	stray := addr.MustParsePrefix("2001:db8:dd::/48")
	c.swA.AddRelayPrefix(stray, 2)

	c.swA.HandleHostTraffic(relayInner(t, "2001:db8:dd::1", "stray"))
	c.w.Run(time.Second)

	if atRelay != 1 {
		t.Fatalf("stray tagged packet local deliveries = %d, want 1", atRelay)
	}
	if c.relay.Stats.Forwarded != 0 || c.relay.Stats.TTLExpired != 0 {
		t.Fatalf("relay stats: %+v", c.relay.Stats)
	}
}

// BenchmarkRelayHop measures one full relay hop (parse + verify + decap +
// relay lookup + re-encapsulate onto the next segment) on 1 KiB payloads —
// the per-relay cost an overlay route adds over direct delivery
// (perf.BenchDecap is the direct-delivery baseline).
func BenchmarkRelayHop(b *testing.B) {
	w := simnet.New(3)
	nin := w.AddNode("relayIn", 0)
	nout := w.AddNode("relayOut", 0)
	nsink := w.AddNode("sink", 0)
	w.Connect(nout, nsink,
		simnet.FixedDelay(time.Millisecond),
		simnet.FixedDelay(time.Millisecond))
	nout.SetRoute(addr.MustParsePrefix("2001:db8:e2::/48"), nout.Ports()[0])

	swIn := NewSwitch(nin)
	inTun := &Tunnel{PathID: 1, Name: "seg1",
		LocalAddr:  netip.MustParseAddr("2001:db8:2::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:1::1")}
	swIn.AddTunnel(inTun)
	nin.AddAddr(inTun.LocalAddr)
	swOut := NewSwitch(nout)
	swOut.AddTunnel(&Tunnel{PathID: 1, Name: "seg2",
		LocalAddr:  netip.MustParseAddr("2001:db8:c1::1"),
		RemoteAddr: netip.MustParseAddr("2001:db8:e2::1"), SrcPort: 41002})

	relay := NewRelay()
	relay.AddRoute(addr.MustParsePrefix("2001:db8:cc::/48"), swOut)
	relay.Attach(swIn)

	// One relay-tagged packet whose inner destination is a further overlay
	// segment away.
	inner := relayInner(b, "2001:db8:cc::1", string(make([]byte, 1024)))
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload(inner)
	hdr := &packet.Tango{Flags: packet.TangoFlagSeq | packet.TangoFlagTimestamp | packet.TangoFlagInner6,
		ExtFlags: packet.TangoExtRelay, RelayTTL: 2, PathID: 1, SendTime: 1}
	udp := &packet.UDP{SrcPort: 40001, DstPort: packet.TangoPort}
	udp.SetNetworkForChecksum(inTun.RemoteAddr, inTun.LocalAddr)
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: inTun.RemoteAddr, Dst: inTun.LocalAddr}
	if err := packet.SerializeLayers(buf, ip, udp, hdr, &pay); err != nil {
		b.Fatal(err)
	}
	outer := make([]byte, buf.Len())
	copy(outer, buf.Bytes())

	b.SetBytes(int64(len(outer)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nin.Inject(outer)
		if i%4096 == 0 {
			b.StopTimer()
			w.Eng.RunAll() // drain the egress segment's delivery events
			b.StartTimer()
		}
	}
	b.StopTimer()
	w.Eng.RunAll()
	if relay.Stats.Forwarded != uint64(b.N) {
		b.Fatalf("forwarded %d of %d", relay.Stats.Forwarded, b.N)
	}
}
