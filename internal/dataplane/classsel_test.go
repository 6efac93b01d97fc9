package dataplane

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"tango/internal/packet"
)

// classInner builds an inner packet with the flow class stamped in the
// IPv6 traffic-class byte and a distinct flow (source port).
func classInner(t testing.TB, class uint8, sport uint16) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("flowdata"))
	udp := &packet.UDP{SrcPort: sport, DstPort: 7002}
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, TrafficClass: class,
		Src: netip.MustParseAddr("2001:db8:aa::1"),
		Dst: netip.MustParseAddr("2001:db8:bb::1")}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestClassSelectorSteersPerClass(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(0, []uint8{1}, []int{8})
	cs.SetWeights(1, []uint8{2}, []int{8})
	tp.swA.SetSelector(cs.Select)

	counts := map[uint8]map[uint8]int{0: {}, 1: {}}
	for i := 0; i < 100; i++ {
		for class := uint8(0); class < 2; class++ {
			tun := cs.Select(classInner(t, class, uint16(i)))
			counts[class][tun.PathID]++
		}
	}
	if counts[0][1] != 100 || counts[1][2] != 100 {
		t.Fatalf("class steering wrong: %v", counts)
	}
}

func TestClassSelectorProportionsAndDelivery(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(0, []uint8{1, 2}, []int{6, 2})
	tp.swA.SetSelector(cs.Select)

	got := map[uint8]int{}
	tp.swB.OnMeasure = func(m Measurement) { got[m.PathID]++ }

	const flows = 4000
	for i := 0; i < flows; i++ {
		tp.swA.HandleHostTraffic(classInner(t, 0, uint16(i)))
	}
	tp.w.Run(time.Second)
	total := got[1] + got[2]
	if total != flows {
		t.Fatalf("delivered %d/%d", total, flows)
	}
	frac := float64(got[1]) / float64(total)
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("path1 fraction = %.3f, want ~0.75 (counts %v)", frac, got)
	}
}

func TestClassSelectorFlowStickiness(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(2, []uint8{1, 2}, []int{1, 1})

	for flow := uint16(0); flow < 50; flow++ {
		pkt := classInner(t, 2, flow)
		first := cs.Select(pkt).PathID
		for i := 0; i < 20; i++ {
			if got := cs.Select(pkt).PathID; got != first {
				t.Fatalf("flow %d moved from path %d to %d", flow, first, got)
			}
		}
	}
}

func TestClassSelectorFallbacks(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(1, []uint8{2}, []int{4})

	// Uninstalled class, unknown class byte, garbage, and nil inners all
	// fall back to the first tunnel, like the selector-less switch.
	if got := cs.Select(classInner(t, 0, 1)).PathID; got != 1 {
		t.Fatalf("uninstalled class went to path %d, want 1", got)
	}
	if got := cs.Select(classInner(t, 200, 1)).PathID; got != 1 {
		t.Fatalf("out-of-range class went to path %d, want 1", got)
	}
	if cs.Select(nil) == nil || cs.Select([]byte{0x00, 0x01}) == nil {
		t.Fatal("garbage inner must still pick a tunnel")
	}
	// Out-of-range class indexes and unknown path IDs in SetWeights are
	// ignored rather than corrupting state.
	cs.SetWeights(-1, []uint8{1}, []int{1})
	cs.SetWeights(99, []uint8{1}, []int{1})
	cs.SetWeights(1, []uint8{9, 2}, []int{5, 0})
	if got := cs.Select(classInner(t, 1, 1)).PathID; got != 1 {
		t.Fatalf("all-zero install must clear to fallback, got path %d", got)
	}
	// Counts shorter than ids: missing entries count zero.
	cs.SetWeights(1, []uint8{1, 2}, []int{1})
	if got := cs.Select(classInner(t, 1, 1)).PathID; got != 1 {
		t.Fatalf("short counts: got path %d, want 1", got)
	}
}

// TestClassSelectorSelectZeroAlloc pins the fast path: selecting a
// tunnel for a classified packet must not allocate.
func TestClassSelectorSelectZeroAlloc(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(0, []uint8{1, 2}, []int{3, 5})
	pkt := classInner(t, 0, 7)
	if n := testing.AllocsPerRun(200, func() { cs.Select(pkt) }); n != 0 {
		t.Fatalf("Select allocates %v per op, want 0", n)
	}
}

// FuzzClassSelector feeds the selector what a socket can: arbitrary inner
// bytes. Whatever arrives, Select must not panic, must pick one of the
// switch's registered tunnels (garbage still rides somewhere — the
// selector-less fallback), and must pick the same one for equal bytes,
// or a flow would reorder.
func FuzzClassSelector(f *testing.F) {
	tp := newTestPair(f, 0, 0)
	cs := NewClassSelector(tp.swA, 3)
	cs.SetWeights(0, []uint8{1, 2}, []int{3, 5})
	cs.SetWeights(1, []uint8{2}, []int{4})

	f.Add(classInner(f, 0, 7))
	f.Add(classInner(f, 1, 9))
	f.Add(classInner(f, 200, 1)) // class beyond the table
	f.Add(classInner(f, 0, 7)[:20])
	f.Add(innerV4(f))
	f.Add([]byte(nil))
	f.Add([]byte{0x00, 0x01})

	f.Fuzz(func(t *testing.T, inner []byte) {
		got := cs.Select(inner)
		if reg, ok := tp.swA.Tunnel(got.PathID); !ok || reg != got {
			t.Fatalf("Select returned %+v, not a registered tunnel", got)
		}
		if again := cs.Select(append([]byte(nil), inner...)); again != got {
			t.Fatalf("equal bytes chose path %d then %d", got.PathID, again.PathID)
		}
	})
}
