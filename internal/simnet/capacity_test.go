package simnet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

func TestCapacitySerialization(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	// 8000 bits/s: the 60-byte test packet takes 60ms to serialize.
	w.Connect(a, b, nil, nil).LineAB().SetCapacity(8000)
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	var times []sim.Time
	b.SetHandler(func([]byte) { times = append(times, w.Now()) })

	pkt := mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)
	a.Inject(pkt)
	a.Inject(append([]byte{}, pkt...))
	w.Run(time.Second)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != 60*time.Millisecond || times[1] != 120*time.Millisecond {
		t.Fatalf("delivery times %v, want [60ms 120ms]", times)
	}
}

// TestCapacityDelaysButNeverDrops is the capacity model's contract:
// overload builds queueing delay, not loss.
func TestCapacityDelaysButNeverDrops(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil).LineAB().SetCapacity(8000)
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	got := 0
	b.SetHandler(func([]byte) { got++ })

	const n = 25
	for i := 0; i < n; i++ {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	}
	w.Run(10 * time.Second)
	line := w.Links()[0].LineAB()
	if got != n || line.Stats.Dropped != 0 {
		t.Fatalf("delivered %d (want %d), dropped %d (want 0)", got, n, line.Stats.Dropped)
	}
	if line.Capacity() != 8000 {
		t.Fatalf("Capacity() = %v, want 8000", line.Capacity())
	}
}

func TestCapacityAllowedOnCrossPartitionLinks(t *testing.T) {
	const la = 10 * time.Millisecond
	w := NewSharded(1, 2, la, func(name string) int {
		if name == "b" {
			return 1
		}
		return 0
	})
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	// Capacity is legal on a cross link: its clock is send-side only.
	w.Connect(a, b, FixedDelay(la), FixedDelay(la)).LineAB().SetCapacity(8000)

	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	var times []sim.Time
	b.SetHandler(func([]byte) { times = append(times, b.Eng().Now()) })

	w.Coord().EnterParallel()
	a.Eng().ScheduleAt(sim.Time(time.Millisecond), func() {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	})
	w.Run(sim.Time(500 * time.Millisecond))
	// 60 bytes at 8000bps = 60ms serialization each, plus 10ms
	// propagation: back-to-back sends land 60ms apart.
	want := []sim.Time{sim.Time(71 * time.Millisecond), sim.Time(131 * time.Millisecond)}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("delivery times %v, want %v", times, want)
	}
	if w.LeasedBufs() != 0 {
		t.Fatalf("leaked %d buffers", w.LeasedBufs())
	}
}

func TestTakeUtilizationWindows(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil).LineAB().SetCapacity(8000)
	dst := netip.MustParseAddr("2001:db8::b")
	b.AddAddr(dst)
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])
	b.SetHandler(func([]byte) {})
	line := w.Links()[0].LineAB()

	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2)) // 60 bytes
	w.Run(time.Second)
	// 480 bits offered over a 1s window at 8000 bps capacity = 6%.
	if u := line.TakeUtilization(w.Now()); u < 0.0599 || u > 0.0601 {
		t.Fatalf("utilization %v, want 0.06", u)
	}
	// The window restarted: an idle second reads zero.
	w.Run(2 * time.Second)
	if u := line.TakeUtilization(w.Now()); u != 0 {
		t.Fatalf("idle window utilization %v, want 0", u)
	}
	// Empty windows and uncapacitated lines report zero, not NaN.
	if u := line.TakeUtilization(w.Now()); u != 0 {
		t.Fatalf("empty window utilization %v, want 0", u)
	}
	uncap := w.Links()[0].LineBA()
	if u := uncap.TakeUtilization(w.Now()); u != 0 {
		t.Fatalf("uncapacitated utilization %v, want 0", u)
	}
}
