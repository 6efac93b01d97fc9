package control

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/simnet"
)

func est(id uint8, owd float64, at sim.Time) PathEstimate {
	return PathEstimate{ID: id, OWDMs: owd, UpdatedAt: at, Valid: true}
}

func TestMinOWDPicksFastest(t *testing.T) {
	p := &MinOWD{HysteresisMs: 0.5}
	ests := []PathEstimate{est(1, 36.6, 0), est(2, 31.2, 0), est(3, 28.1, 0)}
	if got := p.Choose(0, 1, ests); got != 3 {
		t.Fatalf("Choose = %d, want 3", got)
	}
}

func TestMinOWDHysteresis(t *testing.T) {
	p := &MinOWD{HysteresisMs: 2.0}
	// 2 is only 1.5ms better than current 1: stay.
	ests := []PathEstimate{est(1, 30, 0), est(2, 28.5, 0)}
	if got := p.Choose(0, 1, ests); got != 1 {
		t.Fatalf("switched on sub-hysteresis gain: %d", got)
	}
	// 2 is 4.5ms better: switch.
	ests[1].OWDMs = 25.5
	if got := p.Choose(0, 1, ests); got != 2 {
		t.Fatalf("did not switch on clear gain: %d", got)
	}
}

// TestMinOWDOffsetInvariance: shifting every estimate by the same clock
// offset must never change the decision — the policy arithmetic has to be
// translation-invariant because raw OWDs carry the inter-switch skew.
func TestMinOWDOffsetInvariance(t *testing.T) {
	for _, off := range []float64{0, 2600, -2600, 1e6} {
		p := &MinOWD{HysteresisMs: 2.0}
		ests := []PathEstimate{est(1, 36.6+off, 0), est(2, 28.1+off, 0)}
		if got := p.Choose(0, 1, ests); got != 2 {
			t.Fatalf("offset %v changed the decision: %d", off, got)
		}
		p2 := &MinOWD{HysteresisMs: 2.0}
		ests2 := []PathEstimate{est(1, 29+off, 0), est(2, 28.1+off, 0)}
		if got := p2.Choose(0, 1, ests2); got != 1 {
			t.Fatalf("offset %v broke hysteresis: %d", off, got)
		}
	}
}

func TestMinOWDDwell(t *testing.T) {
	p := &MinOWD{HysteresisMs: 0.1, MinDwell: 10 * time.Second}
	ests := []PathEstimate{est(1, 30, 0), est(2, 20, 0)}
	if got := p.Choose(time.Second, 1, ests); got != 2 {
		t.Fatal("first switch blocked")
	}
	// Immediately better the other way: dwell must block.
	ests2 := []PathEstimate{est(1, 10, 2*time.Second), est(2, 20, 2*time.Second)}
	if got := p.Choose(2*time.Second, 2, ests2); got != 2 {
		t.Fatal("dwell did not hold")
	}
	// After dwell expires, switch allowed.
	ests3 := []PathEstimate{est(1, 10, 15*time.Second), est(2, 20, 15*time.Second)}
	if got := p.Choose(15*time.Second, 2, ests3); got != 1 {
		t.Fatal("switch blocked after dwell")
	}
}

func TestMinOWDStaleCurrentFails(t *testing.T) {
	p := &MinOWD{HysteresisMs: 5, StaleAfter: 5 * time.Second}
	// Current path 1 has a stale estimate: even a small gain moves.
	ests := []PathEstimate{est(1, 28, 0), est(2, 29, 59*time.Second)}
	if got := p.Choose(time.Minute, 1, ests); got != 2 {
		t.Fatalf("did not abandon stale current path: %d", got)
	}
}

func TestMinOWDNoValidEstimates(t *testing.T) {
	p := &MinOWD{}
	if got := p.Choose(0, 7, []PathEstimate{{ID: 1}}); got != 7 {
		t.Fatal("moved without valid estimates")
	}
	if got := p.Choose(0, 7, nil); got != 7 {
		t.Fatal("moved with no estimates")
	}
}

func TestMinJitter(t *testing.T) {
	p := &MinJitter{MaxOWDPenaltyMs: 5}
	ests := []PathEstimate{
		{ID: 1, OWDMs: 28, JitterMs: 0.33, Valid: true},
		{ID: 2, OWDMs: 31, JitterMs: 0.01, Valid: true},
		{ID: 3, OWDMs: 40, JitterMs: 0.001, Valid: true}, // too slow
	}
	if got := p.Choose(0, 1, ests); got != 2 {
		t.Fatalf("Choose = %d, want 2 (low jitter within delay budget)", got)
	}
	if got := (&MinJitter{}).Choose(0, 9, nil); got != 9 {
		t.Fatal("moved with no estimates")
	}
}

func TestStatic(t *testing.T) {
	p := &Static{ID: 4}
	if p.Choose(0, 1, []PathEstimate{est(1, 1, 0)}) != 4 {
		t.Fatal("Static moved")
	}
}

func newLoopback(t *testing.T) (*simnet.Network, *dataplane.Switch, *dataplane.Switch) {
	t.Helper()
	w := simnet.New(5)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, simnet.FixedDelay(time.Millisecond), simnet.FixedDelay(time.Millisecond))
	// trivial routing: everything b-ward / a-ward
	swA := dataplane.NewSwitch(a)
	swB := dataplane.NewSwitch(b)
	return w, swA, swB
}

func TestMonitorIngestAndPaths(t *testing.T) {
	m := NewMonitor()
	m.RecordBucket = time.Second
	name := func(id uint8) string { return map[uint8]string{1: "NTT", 2: "GTT"}[id] }
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(10*time.Millisecond)
		m.Ingest(dataplane.Measurement{At: at, PathID: 1, OWD: 36 * time.Millisecond, Seq: uint32(i)}, name)
		m.Ingest(dataplane.Measurement{At: at, PathID: 2, OWD: 28 * time.Millisecond, Seq: uint32(i)}, name)
	}
	if m.Samples != 200 {
		t.Fatalf("Samples = %d", m.Samples)
	}
	ps := m.Paths()
	if len(ps) != 2 || ps[0].ID != 1 || ps[1].ID != 2 {
		t.Fatalf("Paths = %+v", ps)
	}
	ntt := m.Path(1)
	if ntt.Name != "NTT" || ntt.OWD.Mean() != 36 || ntt.OWD.N() != 100 {
		t.Fatalf("NTT stats: %+v", ntt.OWD)
	}
	if !ntt.Est.Valid() || ntt.Est.Value() != 36 {
		t.Fatalf("EWMA = %v", ntt.Est.Value())
	}
	if ntt.Seq.Lost != 0 || ntt.Seq.Received != 100 {
		t.Fatalf("seq stats: %+v", ntt.Seq)
	}
	if ntt.Series == nil || ntt.Series.Len() == 0 {
		t.Fatal("series not recorded")
	}
	if m.Path(9) != nil {
		t.Fatal("phantom path")
	}
}

func TestMonitorAttachAndReporterLoop(t *testing.T) {
	// Full loop: A sends probes to B on two paths with different
	// delays; B's monitor measures; B's reporter piggybacks estimates
	// back on B->A traffic; A's controller learns and switches to the
	// fast path.
	w := simnet.New(42)
	na := w.AddNode("A", 500*time.Millisecond) // deliberate clock skew
	nb := w.AddNode("B", -300*time.Millisecond)
	r1 := w.AddNode("r1", 0)
	r2 := w.AddNode("r2", 0)
	fast := simnet.FixedDelay(5 * time.Millisecond)
	slow := simnet.FixedDelay(15 * time.Millisecond)
	w.Connect(na, r1, fast, fast)
	w.Connect(r1, nb, fast, fast)
	w.Connect(na, r2, slow, slow)
	w.Connect(r2, nb, slow, slow)

	route := func(n *simnet.Node, pfx string, port int) {
		n.SetRoute(addr.MustParsePrefix(pfx), n.Ports()[port])
	}
	route(na, "2001:db8:b1::/48", 0)
	route(na, "2001:db8:b2::/48", 1)
	route(nb, "2001:db8:a1::/48", 0)
	route(nb, "2001:db8:a2::/48", 1)
	for _, r := range []*simnet.Node{r1, r2} {
		route(r, "2001:db8:b1::/48", 1)
		route(r, "2001:db8:b2::/48", 1)
		route(r, "2001:db8:a1::/48", 0)
		route(r, "2001:db8:a2::/48", 0)
	}
	swA := dataplane.NewSwitch(na)
	swB := dataplane.NewSwitch(nb)
	mkT := func(id uint8, la, ra string, sp uint16) *dataplane.Tunnel {
		return &dataplane.Tunnel{PathID: id, LocalAddr: mustAddr(la), RemoteAddr: mustAddr(ra), SrcPort: sp}
	}
	// Path 1 = slow (via *2 prefixes), path 2 = fast: the controller
	// must move off the initial default (first tunnel).
	swA.AddTunnel(mkT(1, "2001:db8:a2::1", "2001:db8:b2::1", 40001))
	swA.AddTunnel(mkT(2, "2001:db8:a1::1", "2001:db8:b1::1", 40002))
	swB.AddTunnel(mkT(1, "2001:db8:b2::1", "2001:db8:a2::1", 40001))
	swB.AddTunnel(mkT(2, "2001:db8:b1::1", "2001:db8:a1::1", 40002))

	mon := NewMonitor()
	mon.Attach(swB, nil)
	rep := NewReporter(w.Eng, mon, swB, 50*time.Millisecond)

	ctl := NewController(w.Eng, swA, &MinOWD{HysteresisMs: 0.5})
	ctl.AttachFeedback(swA)
	ctl.Start(100 * time.Millisecond)

	if ctl.Current() != 1 {
		t.Fatalf("initial path = %d, want first tunnel", ctl.Current())
	}

	// A probes both paths every 10ms; B sends a trickle back so
	// reports have a ride. (Reports ride on B->A tango packets.)
	inner := make([]byte, 60)
	inner[0] = 6 << 4
	sim.NewTicker(w.Eng, 10*time.Millisecond, func(sim.Time) {
		for _, tun := range swA.Tunnels() {
			swA.SendOnTunnel(tun, inner)
		}
	})
	sim.NewTicker(w.Eng, 25*time.Millisecond, func(sim.Time) {
		ts := swB.Tunnels()
		swB.SendOnTunnel(ts[0], inner)
	})

	w.Run(5 * time.Second)

	if ctl.Current() != 2 {
		t.Fatalf("controller stayed on slow path %d; reports=%d", ctl.Current(), ctl.Stats.Reports)
	}
	if ctl.Stats.Switches == 0 || ctl.Stats.Decisions == 0 {
		t.Fatalf("stats: %+v", ctl.Stats)
	}
	if rep.Sent == 0 {
		t.Fatal("reporter sent nothing")
	}
	// Raw estimates carry B's clock domain but the ordering is right.
	ests := ctl.ests
	if ests[1].OWDMs <= ests[2].OWDMs {
		t.Fatalf("estimates not ordered: %+v vs %+v", ests[1], ests[2])
	}
	rep.Stop()
	ctl.Stop()
}

func TestControllerOnSwitchCallback(t *testing.T) {
	w := simnet.New(1)
	n := w.AddNode("x", 0)
	sw := dataplane.NewSwitch(n)
	sw.AddTunnel(&dataplane.Tunnel{PathID: 1, LocalAddr: mustAddr("2001:db8::1"), RemoteAddr: mustAddr("2001:db8::2")})
	sw.AddTunnel(&dataplane.Tunnel{PathID: 2, LocalAddr: mustAddr("2001:db8::3"), RemoteAddr: mustAddr("2001:db8::4")})
	ctl := NewController(w.Eng, sw, &MinOWD{})
	var moves []uint8
	ctl.OnSwitch = func(at sim.Time, from, to uint8) { moves = append(moves, to) }
	ctl.Start(10 * time.Millisecond)
	ctl.UpdateEstimate(1, 30, 0, 10)
	ctl.UpdateEstimate(2, 20, 0, 10)
	w.Run(100 * time.Millisecond)
	if len(moves) != 1 || moves[0] != 2 {
		t.Fatalf("moves = %v", moves)
	}
	// Unknown path from policy is ignored.
	ctl.UpdateEstimate(9, 1, 0, 10)
	w.Run(200 * time.Millisecond)
	if ctl.Current() == 9 {
		t.Fatal("controller selected unregistered tunnel")
	}
}

func TestReporterSkipsInvalidAndEmpty(t *testing.T) {
	w := simnet.New(2)
	n := w.AddNode("x", 0)
	sw := dataplane.NewSwitch(n)
	mon := NewMonitor()
	rep := NewReporter(w.Eng, mon, sw, 10*time.Millisecond)
	w.Run(100 * time.Millisecond)
	if rep.Sent != 0 {
		t.Fatal("reporter sent with no paths")
	}
}

func TestMonitorSampleCap(t *testing.T) {
	// Reports clamp sample counts to uint16.
	w := simnet.New(3)
	n := w.AddNode("x", 0)
	sw := dataplane.NewSwitch(n)
	mon := NewMonitor()
	pm := mon.newPath(1, "x")
	for i := 0; i < 70000; i++ {
		pm.OWD.Add(1)
	}
	pm.Est.Add(5)
	rep := NewReporter(w.Eng, mon, sw, 10*time.Millisecond)
	var got *packet.OWDReport
	// QueueReport stores one pending report; sending requires an encap.
	w.Run(15 * time.Millisecond)
	_ = got
	_ = rep
	// The clamp logic is internal; just ensure no panic and Sent ticks.
	if rep.Sent != 1 {
		t.Fatalf("Sent = %d", rep.Sent)
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
