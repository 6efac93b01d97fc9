package simnet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/obs"
)

// TestLineInstrumentAdminDrop checks a down line accounts every refused
// packet to both the drop counter and the trace journal.
func TestLineInstrumentAdminDrop(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil)
	b.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])

	reg := obs.NewRegistry()
	j := obs.NewJournal(16)
	line := w.Links()[0].LineAB()
	drop := reg.Counter("tango_line_drops_total",
		"Packets refused at line admission.", obs.L("line", "a->b"))
	line.Instrument("a->b", drop, j)

	line.SetDown(true)
	for i := 0; i < 3; i++ {
		a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	}
	w.Run(time.Second)

	if line.Stats.Dropped != 3 {
		t.Fatalf("Stats.Dropped = %d, want 3", line.Stats.Dropped)
	}
	if got := drop.Value(); got != 3 {
		t.Fatalf("drop counter = %d, want 3", got)
	}
	recs := j.Tail(0)
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Kind != obs.KindQueueDrop || r.Target() != "a->b" || r.V != 60 { // 40 IPv6 + 8 UDP + 12 payload
			t.Fatalf("drop record wrong: kind %v target %q size %d", r.Kind, r.Target(), r.V)
		}
	}
}

// TestLineUninstrumentedNoJournal pins the fast-path contract: without
// Instrument, drops only move Stats.
func TestLineUninstrumentedNoJournal(t *testing.T) {
	w := New(1)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	w.Connect(a, b, nil, nil)
	b.AddAddr(netip.MustParseAddr("2001:db8::b"))
	a.SetRoute(addr.MustParsePrefix("2001:db8::/32"), a.Ports()[0])

	line := w.Links()[0].LineAB()
	line.SetDown(true)
	a.Inject(mkPkt(t, "2001:db8::a", "2001:db8::b", 64, 1, 2))
	w.Run(time.Second)
	if line.Stats.Dropped != 1 {
		t.Fatalf("Stats.Dropped = %d, want 1", line.Stats.Dropped)
	}
}
