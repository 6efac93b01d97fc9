package simnet

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
	"tango/internal/sim"
)

// mkPkt builds a minimal IPv6 packet from src to dst with the given hop
// limit and ports.
func mkPkt(t *testing.T, src, dst string, hop uint8, sport, dport uint16) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("test-payload"))
	udp := &packet.UDP{SrcPort: sport, DstPort: dport}
	ip := &packet.IPv6{
		NextHeader: packet.ProtoUDP,
		HopLimit:   hop,
		Src:        netip.MustParseAddr(src),
		Dst:        netip.MustParseAddr(dst),
	}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestDirectDelivery(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, FixedDelay(10*time.Millisecond), FixedDelay(10*time.Millisecond))

	dstIP := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dstIP)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])

	var gotAt sim.Time
	var got []byte
	b.SetHandler(func(data []byte) {
		gotAt = w.Now()
		got = data
	})

	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	w.Run(time.Second)

	if got == nil {
		t.Fatal("packet not delivered")
	}
	if gotAt != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", gotAt)
	}
	if a.Stats.Sent != 1 || b.Stats.Delivered != 1 {
		t.Fatalf("stats: sent=%d delivered=%d", a.Stats.Sent, b.Stats.Delivered)
	}
}

func TestMultiHopForwardingAndTTL(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	r := w.AddNode("r", 0)
	b := w.AddNode("b", 0)
	cfg := FixedDelay(5 * time.Millisecond)
	w.Connect(a, r, cfg, cfg)
	w.Connect(r, b, cfg, cfg)

	dst := addr.MustParsePrefix("2001:db8:b::/48")
	b.AddAddr(netip.MustParseAddr("2001:db8:b::1"))
	a.SetRoute(dst, a.Ports()[0])
	r.SetRoute(dst, r.Ports()[1])

	delivered := 0
	var hopAtDelivery uint8
	b.SetHandler(func(data []byte) {
		delivered++
		hopAtDelivery = data[7]
	})

	a.Inject(mkPkt(t, "2001:db8:a::1", "2001:db8:b::1", 64, 1, 2))
	w.Run(time.Second)
	if delivered != 1 {
		t.Fatal("multi-hop packet not delivered")
	}
	if tx := r.Ports()[1].Out().Stats.Tx; tx != 1 {
		t.Fatalf("router forwarded = %d", tx)
	}
	if hopAtDelivery != 63 {
		t.Fatalf("hop limit at delivery = %d, want 63", hopAtDelivery)
	}

	// TTL expiry: hop limit 1 dies at the router.
	delivered = 0
	a.Inject(mkPkt(t, "2001:db8:a::1", "2001:db8:b::1", 1, 1, 2))
	w.Run(2 * time.Second)
	if delivered != 0 {
		t.Fatal("expired packet delivered")
	}
	if r.Stats.TTLExpired != 1 {
		t.Fatalf("TTLExpired = %d", r.Stats.TTLExpired)
	}
}

func TestNoRouteDrop(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	a.Inject(mkPkt(t, "2001:db8::1", "2001:db8::2", 64, 1, 2))
	w.Run(time.Second)
	if a.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", a.Stats.NoRoute)
	}
}

// TestUnroutedTransitDroppedBeforeAgeing: a router drops a transit packet
// it has no route for as NoRoute before it ages it, whatever its hop
// limit and without touching its bytes, so only a packet SetRoute's IPv6
// routes carry is ever aged.
func TestUnroutedTransitDroppedBeforeAgeing(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	r := w.AddNode("r", 0)
	w.Connect(a, r, nil, nil)
	for _, hop := range []uint8{1, 2} {
		pkt := mkPkt(t, "2001:db8:a::1", "2001:db8:b::1", hop, 1, 2)
		pb := r.Pool().Get()
		pb.SetBytes(pkt)
		dropped := pb.Bytes() // the router releases pb; its array keeps the bytes
		r.deliverFromLink(r.Ports()[0], pb)
		if !bytes.Equal(dropped, pkt) {
			t.Fatalf("hop limit %d: dropped packet was rewritten to %x", hop, dropped)
		}
	}
	if r.Stats.NoRoute != 2 || r.Stats.TTLExpired != 0 {
		t.Fatalf("NoRoute = %d, TTLExpired = %d; want 2, 0", r.Stats.NoRoute, r.Stats.TTLExpired)
	}
}

// The route cache memoizes local delivery too, so claiming an address
// must drop its cached FIB route: the next packet is delivered, not
// forwarded.
func TestAddrClaimedAfterCachedRoute(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, FixedDelay(time.Millisecond), FixedDelay(time.Millisecond))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	handled := 0
	a.SetHandler(func([]byte) { handled++ })

	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)
	a.Inject(pkt)
	a.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.Inject(pkt)
	w.Run(time.Second)
	if tx := a.Ports()[0].Out().Stats.Tx; tx != 1 || handled != 1 || a.Stats.Delivered != 1 {
		t.Fatalf("forwarded %d, handled %d, delivered %d: want 1, 1, 1", tx, handled, a.Stats.Delivered)
	}
}

func TestParseErrDrop(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	a.Inject([]byte{0xff, 0x00})
	a.Inject(nil)
	w.Run(time.Second)
	if a.Stats.ParseErr != 2 {
		t.Fatalf("ParseErr = %d", a.Stats.ParseErr)
	}
}

func TestLoss(t *testing.T) {
	w := New(7)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, FixedDelay(time.Millisecond), FixedDelay(time.Millisecond)).LineAB().SetLoss(0.5)
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	got := 0
	b.SetHandler(func([]byte) { got++ })

	const n = 2000
	for i := 0; i < n; i++ {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	}
	w.Run(time.Second)
	line := w.Links()[0].LineAB()
	if line.Stats.Lost+uint64(got) != n {
		t.Fatalf("lost %d + delivered %d != %d", line.Stats.Lost, got, n)
	}
	frac := float64(got) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivery fraction %.3f with 50%% loss", frac)
	}
}

// TestFixedLosslessLineNeverSeeds: a line draws from its stream only for
// jitter or loss, so one with a fixed delay and no loss never seeds its
// generator, and a lossy line seeds on its first packet.
func TestFixedLosslessLineNeverSeeds(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	l := w.Connect(a, b, FixedDelay(time.Millisecond), FixedDelay(time.Millisecond))
	b.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	got := 0
	b.SetHandler(func([]byte) { got++ })
	for i := 0; i < 100; i++ {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	}
	w.Run(time.Second)
	if got != 100 || l.LineAB().rngDelay.Seeded() || l.LineBA().rngDelay.Seeded() {
		t.Fatalf("delivered %d; seeded %v/%v, want 100 and neither", got,
			l.LineAB().rngDelay.Seeded(), l.LineBA().rngDelay.Seeded())
	}
	l.LineAB().SetLoss(0.01)
	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	if !l.LineAB().rngLoss.Seeded() || l.LineBA().rngLoss.Seeded() {
		t.Fatal("a lossy line's first packet did not seed its stream alone")
	}
}

func TestLinkDown(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	l := w.Connect(a, b, nil, nil)
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	got := 0
	b.SetHandler(func([]byte) { got++ })

	l.LineAB().SetDown(true)
	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	w.Run(time.Second)
	if got != 0 || l.LineAB().Stats.Dropped != 1 {
		t.Fatalf("down line delivered: got=%d dropped=%d", got, l.LineAB().Stats.Dropped)
	}
	if !l.LineAB().Down() {
		t.Fatal("Down() false")
	}
	l.LineAB().SetDown(false)
	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	w.Run(2 * time.Second)
	if got != 1 {
		t.Fatal("restored line did not deliver")
	}
}

func TestGaussianDelayStats(t *testing.T) {
	rng := sim.NewStreams(1).Stream("g")
	d := GaussianDelay{Floor: 28 * time.Millisecond, Mean: 30 * time.Millisecond, Std: time.Millisecond}
	var sum time.Duration
	minSeen := time.Hour
	for i := 0; i < 10000; i++ {
		v := d.Sample(0, rng)
		if v < minSeen {
			minSeen = v
		}
		sum += v
	}
	if minSeen < 28*time.Millisecond {
		t.Fatalf("sample below floor: %v", minSeen)
	}
	mean := sum / 10000
	if mean < 29*time.Millisecond || mean > 31*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestSpikeDelay(t *testing.T) {
	rng := sim.NewStreams(2).Stream("s")
	base := FixedDelay(28 * time.Millisecond)
	d := SpikeDelay{Base: base, Prob: 0.1, Mean: 20 * time.Millisecond, Cap: 50 * time.Millisecond}
	spikes := 0
	maxSeen := time.Duration(0)
	for i := 0; i < 10000; i++ {
		v := d.Sample(0, rng)
		if v > 28*time.Millisecond {
			spikes++
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	if spikes < 800 || spikes > 1200 {
		t.Fatalf("spike count %d for p=0.1", spikes)
	}
	if maxSeen > 78*time.Millisecond {
		t.Fatalf("spike exceeded cap: %v", maxSeen)
	}
	if maxSeen < 40*time.Millisecond {
		t.Fatalf("max spike only %v; tail too light", maxSeen)
	}
}

func TestShaper(t *testing.T) {
	rng := sim.NewStreams(1).Stream("sh")
	s := NewShaper(FixedDelay(10 * time.Millisecond))
	if s.Sample(0, rng) != 10*time.Millisecond {
		t.Fatal("pass-through broken")
	}
	s.SetOffset(5 * time.Millisecond)
	if s.Sample(0, rng) != 15*time.Millisecond {
		t.Fatal("offset not applied")
	}
	if s.Offset() != 5*time.Millisecond {
		t.Fatal("Offset getter")
	}
	s.SetOverlay(FixedDelay(40 * time.Millisecond))
	if s.Sample(0, rng) != 45*time.Millisecond {
		t.Fatal("overlay + offset not applied")
	}
	s.SetOverlay(nil)
	s.SetOffset(0)
	if s.Sample(0, rng) != 10*time.Millisecond {
		t.Fatal("restore broken")
	}
	if _, ok := s.Base().(FixedDelay); !ok {
		t.Fatal("Base lost")
	}
}

func TestNodesSortedAndLookups(t *testing.T) {
	w := New(1)
	w.AddNode("zeta", 0)
	w.AddNode("alpha", 0)
	ns := w.Nodes()
	if len(ns) != 2 || ns[0].Name() != "alpha" || ns[1].Name() != "zeta" {
		t.Fatalf("Nodes() = %v", ns)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	w := New(1)
	w.AddNode("a", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	w.AddNode("a", 0)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, sim.Time) {
		w := New(99)
		a := w.AddNode("a", 0)
		b := w.AddNode("b", 0)
		w.Connect(a, b,
			GaussianDelay{Floor: 10 * time.Millisecond, Mean: 12 * time.Millisecond, Std: 2 * time.Millisecond},
			nil).LineAB().SetLoss(0.1)
		dst := netip.MustParseAddr("2001:db8::b")
		b.AddAddr(dst)
		a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
		var lastAt sim.Time
		b.SetHandler(func([]byte) { lastAt = w.Now() })
		for i := 0; i < 500; i++ {
			pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, uint16(i), 2)
			w.Eng.Schedule(time.Duration(i)*time.Millisecond, func() { a.Inject(pkt) })
		}
		w.Run(10 * time.Second)
		return b.Stats.Delivered, lastAt
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("replay diverged: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
	if d1 == 0 || d1 == 500 {
		t.Fatalf("loss process degenerate: delivered %d/500", d1)
	}
}

func TestLineFromAndPortAccessors(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	l := w.Connect(a, b, nil, nil)
	if l.LineFrom(a) != l.LineAB() || l.LineFrom(b) != l.LineBA() {
		t.Fatal("LineFrom wrong")
	}
	pa := l.PortA()
	if pa.Node() != a || pa.Peer() != b {
		t.Fatal("port accessors wrong")
	}
	if pa.Out() != l.LineAB() || pa.In() != l.LineBA() {
		t.Fatal("port line accessors wrong")
	}
	if pa.Name() != "a:0" {
		t.Fatalf("port name %q", pa.Name())
	}
	c := w.AddNode("c", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("LineFrom foreign node did not panic")
		}
	}()
	l.LineFrom(c)
}
