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

// testPair wires two switches over two disjoint router paths with
// distinct delays:
//
//	swA ── r1 ── swB   (fast path, tunnels *1)
//	  └─── r2 ───┘     (slow path, tunnels *2)
type testPair struct {
	w        *simnet.Network
	swA, swB *Switch
	na, nb   *simnet.Node // the nodes swA and swB are attached to
	r1, r2   *simnet.Node
}

const (
	fastDelay = 10 * time.Millisecond
	slowDelay = 30 * time.Millisecond
)

func newTestPair(t testing.TB, offsetA, offsetB time.Duration) *testPair {
	t.Helper()
	w := simnet.New(11)
	na := w.AddNode("swA", offsetA)
	nb := w.AddNode("swB", offsetB)
	r1 := w.AddNode("r1", 0)
	r2 := w.AddNode("r2", 0)
	fast := simnet.LinkConfig{Delay: simnet.FixedDelay(fastDelay / 2)}
	slow := simnet.LinkConfig{Delay: simnet.FixedDelay(slowDelay / 2)}
	w.Connect(na, r1, fast, fast)
	w.Connect(r1, nb, fast, fast)
	w.Connect(na, r2, slow, slow)
	w.Connect(r2, nb, slow, slow)

	// Tunnel endpoint prefixes: b1/b2 at B, a1/a2 at A; path 1 via r1,
	// path 2 via r2.
	route := func(n *simnet.Node, pfx string, port int) {
		n.SetRoute(addr.MustParsePrefix(pfx), n.Ports()[port])
	}
	// swA ports: 0->r1, 1->r2. swB ports: 0->r1, 1->r2.
	route(na, "2001:db8:b1::/48", 0)
	route(na, "2001:db8:b2::/48", 1)
	route(nb, "2001:db8:a1::/48", 0)
	route(nb, "2001:db8:a2::/48", 1)
	// r1 ports: 0->swA, 1->swB; r2 same.
	for _, r := range []*simnet.Node{r1, r2} {
		route(r, "2001:db8:b1::/48", 1)
		route(r, "2001:db8:b2::/48", 1)
		route(r, "2001:db8:a1::/48", 0)
		route(r, "2001:db8:a2::/48", 0)
	}

	swA := NewSwitch(na)
	swB := NewSwitch(nb)
	mk := func(id uint8, name, local, remote string, sport uint16) *Tunnel {
		return &Tunnel{PathID: id, Name: name,
			LocalAddr:  netip.MustParseAddr(local),
			RemoteAddr: netip.MustParseAddr(remote),
			SrcPort:    sport,
		}
	}
	swA.AddTunnel(mk(1, "fast", "2001:db8:a1::1", "2001:db8:b1::1", 40001))
	swA.AddTunnel(mk(2, "slow", "2001:db8:a2::1", "2001:db8:b2::1", 40002))
	swB.AddTunnel(mk(1, "fast", "2001:db8:b1::1", "2001:db8:a1::1", 40001))
	swB.AddTunnel(mk(2, "slow", "2001:db8:b2::1", "2001:db8:a2::1", 40002))
	swA.AddPeerPrefix(addr.MustParsePrefix("2001:db8:bb::/48"))
	swB.AddPeerPrefix(addr.MustParsePrefix("2001:db8:aa::/48"))
	return &testPair{w: w, swA: swA, swB: swB, na: na, nb: nb, r1: r1, r2: r2}
}

// innerPkt builds a host-level packet from A's host space to B's.
func innerPkt(t *testing.T, payload string) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte(payload))
	udp := &packet.UDP{SrcPort: 7000, DstPort: 7001}
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8:aa::1"),
		Dst: netip.MustParseAddr("2001:db8:bb::1")}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestEncapDecapRoundTrip(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	var delivered [][]byte
	// DeliverLocal borrows its slice; copy to retain past the callback.
	tp.swB.DeliverLocal = func(inner []byte) { delivered = append(delivered, append([]byte(nil), inner...)) }
	var meas []Measurement
	tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }

	orig := innerPkt(t, "hello through the tunnel")
	tp.swA.HandleHostTraffic(append([]byte{}, orig...))
	tp.w.Run(time.Second)

	if len(delivered) != 1 {
		t.Fatalf("delivered %d inner packets", len(delivered))
	}
	if !bytes.Equal(delivered[0], orig) {
		t.Fatal("inner packet corrupted through encapsulation")
	}
	if len(meas) != 1 {
		t.Fatalf("measurements = %d", len(meas))
	}
	m := meas[0]
	if m.PathID != 1 {
		t.Fatalf("default tunnel = %d, want first registered", m.PathID)
	}
	if m.OWD != fastDelay {
		t.Fatalf("OWD = %v, want %v", m.OWD, fastDelay)
	}
	if tp.swA.Stats.Encapped != 1 || tp.swB.Stats.Decapped != 1 {
		t.Fatalf("stats: %+v / %+v", tp.swA.Stats, tp.swB.Stats)
	}
}

func TestSelectorRoutesPerPath(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	var meas []Measurement
	tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }

	// Route odd payload sizes via slow path.
	tun1, _ := tp.swA.Tunnel(1)
	tun2, _ := tp.swA.Tunnel(2)
	tp.swA.SetSelector(func(inner []byte) *Tunnel {
		if len(inner)%2 == 1 {
			return tun2
		}
		return tun1
	})

	tp.swA.HandleHostTraffic(innerPkt(t, "even")) // 4 bytes payload -> even total? compute below
	tp.swA.HandleHostTraffic(innerPkt(t, "odd!!"))
	tp.w.Run(time.Second)

	if len(meas) != 2 {
		t.Fatalf("measurements = %d", len(meas))
	}
	// innerPkt("even") = 40+8+4 = 52 (even -> path1, OWD fast)
	// innerPkt("odd!!") = 40+8+5 = 53 (odd -> path2, OWD slow)
	byPath := map[uint8]time.Duration{}
	for _, m := range meas {
		byPath[m.PathID] = m.OWD
	}
	if byPath[1] != fastDelay || byPath[2] != slowDelay {
		t.Fatalf("OWDs = %v", byPath)
	}
}

func TestOWDIncludesClockOffsetConstant(t *testing.T) {
	// Receiver clock is 2s ahead: raw OWDs shift by exactly +2s on
	// every path, so the *difference* between paths is unchanged — the
	// paper's core measurement argument.
	offsets := []time.Duration{0, 2 * time.Second, -3 * time.Second}
	var diffs []time.Duration
	for _, off := range offsets {
		tp := newTestPair(t, 0, off)
		var meas []Measurement
		tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }
		tun1, _ := tp.swA.Tunnel(1)
		tun2, _ := tp.swA.Tunnel(2)
		sel := 0
		tp.swA.SetSelector(func([]byte) *Tunnel {
			sel++
			if sel%2 == 0 {
				return tun2
			}
			return tun1
		})
		tp.swA.HandleHostTraffic(innerPkt(t, "a"))
		tp.swA.HandleHostTraffic(innerPkt(t, "b"))
		tp.w.Run(time.Second)
		if len(meas) != 2 {
			t.Fatalf("meas = %d", len(meas))
		}
		owd := map[uint8]time.Duration{}
		for _, m := range meas {
			owd[m.PathID] = m.OWD
		}
		if off != 0 && owd[1] == fastDelay {
			t.Fatal("clock offset did not distort raw OWD (unrealistic)")
		}
		diffs = append(diffs, owd[2]-owd[1])
	}
	for _, d := range diffs {
		if d != slowDelay-fastDelay {
			t.Fatalf("path OWD difference %v varies with clock offset, want constant %v",
				diffs, slowDelay-fastDelay)
		}
	}
}

func TestSequenceNumbersPerTunnel(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	var seqs1, seqs2 []uint32
	tp.swB.OnMeasure = func(m Measurement) {
		if m.PathID == 1 {
			seqs1 = append(seqs1, m.Seq)
		} else {
			seqs2 = append(seqs2, m.Seq)
		}
	}
	tun1, _ := tp.swA.Tunnel(1)
	tun2, _ := tp.swA.Tunnel(2)
	n := 0
	tp.swA.SetSelector(func([]byte) *Tunnel {
		n++
		if n%3 == 0 {
			return tun2
		}
		return tun1
	})
	for i := 0; i < 9; i++ {
		tp.swA.HandleHostTraffic(innerPkt(t, "x"))
	}
	tp.w.Run(time.Second)
	if len(seqs1) != 6 || len(seqs2) != 3 {
		t.Fatalf("per-path counts: %d/%d", len(seqs1), len(seqs2))
	}
	for i, s := range seqs1 {
		if s != uint32(i) {
			t.Fatalf("tunnel1 seqs = %v", seqs1)
		}
	}
	for i, s := range seqs2 {
		if s != uint32(i) {
			t.Fatalf("tunnel2 seqs = %v", seqs2)
		}
	}
	if tun1.Stats.Sent != 6 || tun2.Stats.Sent != 3 {
		t.Fatal("tunnel send stats wrong")
	}
}

func TestReportPiggyback(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	var got []packet.OWDReport
	tp.swB.OnReport = func(r packet.OWDReport) { got = append(got, r) }

	rep := packet.OWDReport{PathID: 2, SampleCount: 100, MeanOWDNano: 30_000_000}
	tp.swA.QueueReport(rep)
	tp.swA.HandleHostTraffic(innerPkt(t, "carries report"))
	tp.swA.HandleHostTraffic(innerPkt(t, "no report"))
	tp.w.Run(time.Second)

	if len(got) != 1 {
		t.Fatalf("reports = %d, want exactly 1 (consumed after one packet)", len(got))
	}
	if got[0] != rep {
		t.Fatalf("report = %+v", got[0])
	}
	if tp.swA.Stats.ReportsSent != 1 || tp.swB.Stats.ReportsRecvd != 1 {
		t.Fatal("report stats wrong")
	}
}

func TestNonTangoTrafficBypasses(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	// Traffic to a non-peer destination is injected unmodified.
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("elsewhere"))
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8:aa::1"),
		Dst: netip.MustParseAddr("2001:db8:cc::1")}
	udp := &packet.UDP{SrcPort: 1, DstPort: 2}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len())
	copy(raw, buf.Bytes())
	tp.swA.HandleHostTraffic(raw)
	tp.w.Run(time.Second)
	if tp.swA.Stats.Encapped != 0 {
		t.Fatal("non-peer traffic was encapsulated")
	}
	// No route for cc:: -> dropped at node with NoRoute.
	if tp.na.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", tp.na.Stats.NoRoute)
	}
}

func TestNoTunnelDrop(t *testing.T) {
	w := simnet.New(1)
	n := w.AddNode("lonely", 0)
	sw := NewSwitch(n)
	sw.AddPeerPrefix(addr.MustParsePrefix("2001:db8:bb::/48"))
	sw.HandleHostTraffic(innerPkt(t, "void"))
	if sw.Stats.NoTunnel != 1 {
		t.Fatalf("NoTunnel = %d", sw.Stats.NoTunnel)
	}
	// Garbage input.
	sw.HandleHostTraffic([]byte{0x00})
	if sw.Stats.BadPacket != 1 {
		t.Fatalf("BadPacket = %d", sw.Stats.BadPacket)
	}
}

func TestRemoveTunnel(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	tp.swA.RemoveTunnel(1)
	if len(tp.swA.Tunnels()) != 1 {
		t.Fatal("tunnel not removed")
	}
	if _, ok := tp.swA.Tunnel(1); ok {
		t.Fatal("removed tunnel still indexed")
	}
	tp.swA.RemoveTunnel(99) // no-op
	var meas []Measurement
	tp.swB.OnMeasure = func(m Measurement) { meas = append(meas, m) }
	tp.swA.HandleHostTraffic(innerPkt(t, "x"))
	tp.w.Run(time.Second)
	if len(meas) != 1 || meas[0].PathID != 2 {
		t.Fatalf("traffic after removal: %+v", meas)
	}
}

func TestDuplicateTunnelPanics(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate path id did not panic")
		}
	}()
	tp.swA.AddTunnel(&Tunnel{PathID: 1})
}

func TestBidirectionalIndependence(t *testing.T) {
	// Both directions measure independently — B->A traffic over path 2
	// does not disturb A->B accounting.
	tp := newTestPair(t, 0, 0)
	var measA, measB []Measurement
	tp.swA.OnMeasure = func(m Measurement) { measA = append(measA, m) }
	tp.swB.OnMeasure = func(m Measurement) { measB = append(measB, m) }
	tun2B, _ := tp.swB.Tunnel(2)
	tp.swB.SetSelector(func([]byte) *Tunnel { return tun2B })

	tp.swA.HandleHostTraffic(innerPkt(t, "a->b"))
	// Reverse-direction inner packet.
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("b->a"))
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8:bb::1"),
		Dst: netip.MustParseAddr("2001:db8:aa::1")}
	udp := &packet.UDP{SrcPort: 1, DstPort: 2}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len())
	copy(raw, buf.Bytes())
	tp.swB.HandleHostTraffic(raw)
	tp.w.Run(time.Second)

	if len(measA) != 1 || measA[0].PathID != 2 || measA[0].OWD != slowDelay {
		t.Fatalf("B->A measurement: %+v", measA)
	}
	if len(measB) != 1 || measB[0].PathID != 1 || measB[0].OWD != fastDelay {
		t.Fatalf("A->B measurement: %+v", measB)
	}
}

func TestQueueReportRingFIFO(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	for i := 0; i < 5; i++ {
		tp.swA.QueueReport(packet.OWDReport{PathID: 1, SampleCount: uint16(i)})
	}
	if got := tp.swA.PendingReports(); got != 5 {
		t.Fatalf("PendingReports = %d, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if r := tp.swA.popReport(); r.SampleCount != uint16(i) {
			t.Fatalf("pop %d = %+v, want SampleCount %d", i, r, i)
		}
	}
	if got := tp.swA.PendingReports(); got != 0 {
		t.Fatalf("PendingReports after drain = %d", got)
	}
}

func TestQueueReportOverflowDropsOldest(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	// Fill past capacity: the ring keeps the newest maxPendingReports.
	for i := 0; i < maxPendingReports+4; i++ {
		tp.swA.QueueReport(packet.OWDReport{PathID: 1, SampleCount: uint16(i)})
	}
	if got := tp.swA.PendingReports(); got != maxPendingReports {
		t.Fatalf("PendingReports = %d, want %d", got, maxPendingReports)
	}
	for i := 0; i < maxPendingReports; i++ {
		want := uint16(i + 4) // the 4 oldest were dropped
		if r := tp.swA.popReport(); r.SampleCount != want {
			t.Fatalf("pop %d = SampleCount %d, want %d", i, r.SampleCount, want)
		}
	}
}

func TestQueueReportReusesStorage(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	// Wrap the ring many times over: enqueueing must reuse the fixed
	// in-struct array rather than growing a slice.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3*maxPendingReports; i++ {
			tp.swA.QueueReport(packet.OWDReport{PathID: 2, SampleCount: uint16(i)})
		}
		for tp.swA.PendingReports() > 0 {
			tp.swA.popReport()
		}
	})
	if allocs != 0 {
		t.Fatalf("QueueReport allocated %.1f times per run, want 0", allocs)
	}
}

func TestRemoveTunnelReleasesLocalAddr(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	local := netip.MustParseAddr("2001:db8:a1::1")
	if !tp.na.OwnsAddr(local) {
		t.Fatal("tunnel local address not owned after AddTunnel")
	}
	tp.swA.RemoveTunnel(1)
	if tp.na.OwnsAddr(local) {
		t.Fatal("tunnel local address still owned after RemoveTunnel")
	}

	// A Tango packet addressed to the withdrawn endpoint must no longer
	// reach A's receiver program: swB still has its side of path 1, so
	// send on it and watch the packet die in the network instead.
	var delivered int
	tp.swA.DeliverLocal = func([]byte) { delivered++ }
	tun1B, _ := tp.swB.Tunnel(1)
	tp.swB.SendOnTunnel(tun1B, innerPkt(t, "to a dead endpoint"))
	tp.w.Run(time.Second)
	if delivered != 0 || tp.swA.Stats.Decapped != 0 {
		t.Fatalf("packet to removed tunnel endpoint was delivered (delivered=%d, decapped=%d)",
			delivered, tp.swA.Stats.Decapped)
	}
	if tp.na.Stats.NoRoute == 0 {
		t.Fatal("expected the packet to be dropped with NoRoute at the destination node")
	}
}

func TestRemoveTunnelSharedAddrRefcount(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	shared := netip.MustParseAddr("2001:db8:a2::1")
	// A second tunnel claims the same local endpoint (core's provision
	// shares the switch address across all tunnels of a site).
	tp.swA.AddTunnel(&Tunnel{PathID: 3, Name: "alt",
		LocalAddr:  shared,
		RemoteAddr: netip.MustParseAddr("2001:db8:b2::1"),
		SrcPort:    40003,
	})
	tp.swA.RemoveTunnel(3)
	if !tp.na.OwnsAddr(shared) {
		t.Fatal("shared local address released while another tunnel still uses it")
	}
	tp.swA.RemoveTunnel(2)
	if tp.na.OwnsAddr(shared) {
		t.Fatal("shared local address still owned after last claim removed")
	}
}
