package simnet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
)

// midflightNet builds a -- b with 10 ms fixed lines and a delivery
// counter on b.
func midflightNet(t *testing.T) (*Network, *Node, *Line, *int) {
	t.Helper()
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	lk := w.Connect(a, b,
		LinkConfig{Delay: FixedDelay(10 * time.Millisecond)},
		LinkConfig{Delay: FixedDelay(10 * time.Millisecond)})
	b.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	delivered := 0
	b.SetHandler(func([]byte) { delivered++ })
	return w, a, lk.LineAB(), &delivered
}

// TestSetDownMidFlight pins the admin-down contract: SetDown gates
// admission, not propagation. A packet whose delivery event was already
// scheduled still arrives after the line goes down; packets offered while
// down are refused at admission (counted Dropped) and never delivered,
// even if the line comes back up before their would-be delivery time.
func TestSetDownMidFlight(t *testing.T) {
	w, a, ln, delivered := midflightNet(t)
	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)

	// t=0: packet admitted; delivery scheduled for t=10ms.
	a.Inject(pkt)
	// t=5ms: line goes down with the packet mid-flight.
	w.Eng.ScheduleAt(5*time.Millisecond, func() { ln.SetDown(true) })
	// t=6ms: a second packet is offered while down — refused at admission
	// (counted Dropped, never Tx'd).
	w.Eng.ScheduleAt(6*time.Millisecond, func() { a.Inject(pkt) })
	// t=7ms: line back up — well before the dropped packet's would-be
	// arrival at 16ms, which must NOT be resurrected.
	w.Eng.ScheduleAt(7*time.Millisecond, func() { ln.SetDown(false) })
	w.Run(100 * time.Millisecond)

	if *delivered != 1 {
		t.Fatalf("delivered %d packets, want 1 (in-flight survives, down-drop stays dropped)", *delivered)
	}
	if ln.Stats.Tx != 1 || ln.Stats.Dropped != 1 || ln.Stats.Rx != 1 {
		t.Fatalf("line stats tx=%d dropped=%d rx=%d, want 1/1/1",
			ln.Stats.Tx, ln.Stats.Dropped, ln.Stats.Rx)
	}
	if ln.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain, want 0", ln.InFlight())
	}
}

// TestSetLossMidFlight pins the loss contract: loss is sampled at send
// time, so packets already in flight keep the fate they drew when sent.
// Raising loss to 1.0 mid-flight cannot claw back an admitted packet, and
// lowering it back to 0 cannot save one offered during the burst.
func TestSetLossMidFlight(t *testing.T) {
	w, a, ln, delivered := midflightNet(t)
	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)

	a.Inject(pkt)
	w.Eng.ScheduleAt(5*time.Millisecond, func() { ln.SetLoss(1.0) })
	w.Eng.ScheduleAt(6*time.Millisecond, func() { a.Inject(pkt) })
	w.Eng.ScheduleAt(7*time.Millisecond, func() { ln.SetLoss(0) })
	w.Run(100 * time.Millisecond)

	if *delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", *delivered)
	}
	if ln.Stats.Tx != 2 || ln.Stats.Lost != 1 || ln.Stats.Rx != 1 {
		t.Fatalf("line stats tx=%d lost=%d rx=%d, want 2/1/1", ln.Stats.Tx, ln.Stats.Lost, ln.Stats.Rx)
	}
}

// TestInFlightTracksScheduledDeliveries checks the InFlight derivation
// used by the buffer-balance invariant: it must equal the number of
// packets admitted but not yet delivered or lost, at event boundaries.
func TestInFlightTracksScheduledDeliveries(t *testing.T) {
	w, a, ln, _ := midflightNet(t)
	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)

	var during, after uint64
	a.Inject(pkt)
	w.Eng.ScheduleAt(3*time.Millisecond, func() { a.Inject(pkt) })
	w.Eng.ScheduleAt(5*time.Millisecond, func() { during = ln.InFlight() })
	w.Eng.ScheduleAt(50*time.Millisecond, func() { after = ln.InFlight() })
	w.Run(100 * time.Millisecond)

	if during != 2 {
		t.Fatalf("in-flight at 5ms = %d, want 2", during)
	}
	if after != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", after)
	}
}
