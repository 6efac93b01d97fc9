package dataplane

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
)

// innerV4 builds an inner IPv4 packet between the test pair's host spaces.
func innerV4(t testing.TB) []byte {
	t.Helper()
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("v4 inner"))
	udp := &packet.UDP{SrcPort: 7000, DstPort: 7001}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1")}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

// TestIPv4InnerTunnelled: Tango tunnels IPv4 traffic over the IPv6
// wide-area tunnels ("a different IP version", §3). The Inner6 flag must
// be clear and the inner packet must survive intact.
func TestIPv4InnerTunnelled(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	tp.swA.AddPeerPrefix(addr.MustParsePrefix("10.2.0.0/16"))
	var got []byte
	tp.swB.DeliverLocal = func(inner []byte) { got = append([]byte(nil), inner...) }
	measured := 0
	tp.swB.OnMeasure = func(Measurement) { measured++ }

	orig := innerV4(t)
	tp.swA.HandleHostTraffic(append([]byte{}, orig...))
	tp.w.Run(time.Second)

	if got == nil || measured != 1 {
		t.Fatalf("v4 inner not delivered: got=%v measured=%d", got != nil, measured)
	}
	var dec packet.IPv4
	if err := dec.DecodeFromBytes(got); err != nil {
		t.Fatalf("inner v4 corrupted: %v", err)
	}
	if dec.TTL != 64 {
		t.Fatalf("inner TTL changed: %d (tunnelled packets must not be aged)", dec.TTL)
	}
}

// TestSendToPeerDirect: the host-colocated entry point encapsulates via
// the selector.
func TestSendToPeerDirect(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	measured := 0
	tp.swB.OnMeasure = func(Measurement) { measured++ }
	tp.swA.SendToPeer(innerPkt(t, "direct"))
	tp.w.Run(time.Second)
	if measured != 1 || tp.swA.Stats.Encapped != 1 {
		t.Fatalf("SendToPeer: measured=%d encapped=%d", measured, tp.swA.Stats.Encapped)
	}
}

// TestHandleNonTangoLocalTraffic: packets addressed to an owned address
// that are not Tango-encapsulated flow to DeliverLocal unmodified.
func TestHandleNonTangoLocalTraffic(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	// Address plain (non-Tango) traffic to A's tunnel endpoint.
	var got []byte
	tp.swA.DeliverLocal = func(inner []byte) { got = append([]byte(nil), inner...) }
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("plain"))
	udp := &packet.UDP{SrcPort: 5, DstPort: 6} // not the Tango port
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8:b1::1"),
		Dst: netip.MustParseAddr("2001:db8:a1::1")}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len())
	copy(raw, buf.Bytes())
	tp.nb.Inject(raw)
	tp.w.Run(time.Second)
	if got == nil {
		t.Fatal("non-Tango local traffic not delivered")
	}
}

func TestSetAuthKeyNilDisables(t *testing.T) {
	tp := newTestPair(t, 0, 0)
	tp.swB.SetAuthKey(testKey)
	tp.swB.SetAuthKey(nil) // disable again
	measured := 0
	tp.swB.OnMeasure = func(Measurement) { measured++ }
	tp.swA.HandleHostTraffic(innerPkt(t, "no auth"))
	tp.w.Run(time.Second)
	if measured != 1 {
		t.Fatal("auth not disabled by nil key")
	}
}
