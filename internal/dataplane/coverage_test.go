package dataplane

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
)

// innerV4 builds an inner IPv4/UDP packet between the test pair's host
// spaces, 10.1.0.1:7000 -> 10.2.0.1:7001, with TTL 64 and a zero UDP
// checksum (legal over IPv4).
func innerV4(t testing.TB) []byte {
	t.Helper()
	pay := []byte("v4 inner")
	b := make([]byte, 20+8+len(pay))
	b[0] = 4<<4 | 5
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	b[8] = 64
	b[9] = packet.ProtoUDP
	copy(b[12:16], []byte{10, 1, 0, 1})
	copy(b[16:20], []byte{10, 2, 0, 1})
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint16(b[10:12], ^uint16(sum))
	binary.BigEndian.PutUint16(b[20:22], 7000)
	binary.BigEndian.PutUint16(b[22:24], 7001)
	binary.BigEndian.PutUint16(b[24:26], uint16(8+len(pay)))
	copy(b[28:], pay)
	return b
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
	if !bytes.Equal(got, orig) {
		t.Fatalf("inner v4 changed in the tunnel (TTL %d, want 64: tunnelled packets must not be aged):\n got %x\nwant %x", got[8], got, orig)
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
