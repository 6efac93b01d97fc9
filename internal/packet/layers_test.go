package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcV6 = netip.MustParseAddr("2001:db8:1::1")
	dstV6 = netip.MustParseAddr("2001:db8:5::1")
	srcV4 = netip.MustParseAddr("10.0.0.1")
	dstV4 = netip.MustParseAddr("10.0.0.2")
)

func TestIPv6RoundTrip(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("hello tango"))
	ip := &IPv6{
		TrafficClass: 0xb8,
		FlowLabel:    0xabcde,
		NextHeader:   ProtoUDP,
		HopLimit:     64,
		Src:          srcV6,
		Dst:          dstV6,
	}
	if err := SerializeLayers(buf, ip, &pay); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != ipv6HeaderLen+len(pay) {
		t.Fatalf("serialized len = %d", buf.Len())
	}

	var dec IPv6
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.TrafficClass != 0xb8 || dec.FlowLabel != 0xabcde ||
		dec.NextHeader != ProtoUDP || dec.HopLimit != 64 ||
		dec.Src != srcV6 || dec.Dst != dstV6 {
		t.Fatalf("decode mismatch: %+v", dec)
	}
	if string(dec.LayerPayload()) != "hello tango" {
		t.Fatalf("payload = %q", dec.LayerPayload())
	}
}

func TestIPv6Errors(t *testing.T) {
	var ip IPv6
	if err := ip.DecodeFromBytes(make([]byte, 39)); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := make([]byte, 40)
	bad[0] = 4 << 4
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Payload length larger than available bytes.
	buf := NewSerializeBuffer()
	pay := Payload(make([]byte, 10))
	good := &IPv6{NextHeader: ProtoUDP, HopLimit: 1, Src: srcV6, Dst: dstV6}
	if err := SerializeLayers(buf, good, &pay); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:45]
	if err := ip.DecodeFromBytes(trunc); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Serializing with IPv4 addresses fails.
	buf.Clear()
	badIP := &IPv6{Src: srcV4, Dst: dstV6}
	if err := badIP.SerializeTo(buf); err == nil {
		t.Fatal("IPv4 src accepted by IPv6 layer")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("inner"))
	ip := &IPv4{TOS: 0x10, ID: 777, TTL: 63, Protocol: ProtoUDP, Src: srcV4, Dst: dstV4}
	if err := SerializeLayers(buf, ip, &pay); err != nil {
		t.Fatal(err)
	}
	var dec IPv4
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.TOS != 0x10 || dec.ID != 777 || dec.TTL != 63 ||
		dec.Src != srcV4 || dec.Dst != dstV4 {
		t.Fatalf("decode mismatch: %+v", dec)
	}
	if string(dec.LayerPayload()) != "inner" {
		t.Fatalf("payload = %q", dec.LayerPayload())
	}

	// Corrupt one byte: checksum must catch it.
	raw := append([]byte{}, buf.Bytes()...)
	raw[9] ^= 0xff
	if err := dec.DecodeFromBytes(raw); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestUDPRoundTripWithChecksum(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("datagram payload"))
	u := &UDP{SrcPort: 5000, DstPort: TangoPort}
	u.SetNetworkForChecksum(srcV6, dstV6)
	if err := SerializeLayers(buf, u, &pay); err != nil {
		t.Fatal(err)
	}
	var dec UDP
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.SrcPort != 5000 || dec.DstPort != TangoPort {
		t.Fatalf("ports = %d,%d", dec.SrcPort, dec.DstPort)
	}
	if err := dec.VerifyChecksum(srcV6, dstV6, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: verification must fail.
	raw := append([]byte{}, buf.Bytes()...)
	raw[len(raw)-1] ^= 1
	var dec2 UDP
	if err := dec2.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if err := dec2.VerifyChecksum(srcV6, dstV6, raw); err == nil {
		t.Fatal("corrupted datagram passed checksum")
	}
	// Wrong pseudo-header (different dst) must fail.
	if err := dec.VerifyChecksum(srcV6, netip.MustParseAddr("2001:db8:6::1"), buf.Bytes()); err == nil {
		t.Fatal("wrong pseudo-header passed checksum")
	}
}

func TestUDPZeroChecksumPolicy(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("x"))
	u := &UDP{SrcPort: 1, DstPort: 2} // no SetNetworkForChecksum
	if err := SerializeLayers(buf, u, &pay); err != nil {
		t.Fatal(err)
	}
	var dec UDP
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.Checksum != 0 {
		t.Fatalf("checksum = %#x, want 0", dec.Checksum)
	}
	if err := dec.VerifyChecksum(srcV4, dstV4, buf.Bytes()); err != nil {
		t.Fatalf("zero checksum over IPv4 rejected: %v", err)
	}
	if err := dec.VerifyChecksum(srcV6, dstV6, buf.Bytes()); err == nil {
		t.Fatal("zero checksum over IPv6 accepted")
	}
}

func TestUDPTruncated(t *testing.T) {
	var u UDP
	if err := u.DecodeFromBytes(make([]byte, 7)); err == nil {
		t.Fatal("7-byte datagram accepted")
	}
}

func TestTangoRoundTrip(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("inner packet bytes"))
	h := &Tango{
		Flags:    TangoFlagSeq | TangoFlagTimestamp | TangoFlagInner6,
		PathID:   3,
		Seq:      0xdeadbeef,
		SendTime: 123456789012345,
	}
	if err := SerializeLayers(buf, h, &pay); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != tangoFixedLen+len(pay) {
		t.Fatalf("len = %d", buf.Len())
	}
	var dec Tango
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.Flags != h.Flags || dec.PathID != 3 || dec.Seq != 0xdeadbeef || dec.SendTime != 123456789012345 {
		t.Fatalf("decode mismatch: %+v", dec)
	}
	if string(dec.LayerPayload()) != "inner packet bytes" {
		t.Fatalf("payload = %q", dec.LayerPayload())
	}
}

func TestTangoReportBlock(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("p"))
	h := &Tango{
		Flags:    TangoFlagTimestamp | TangoFlagReport,
		PathID:   1,
		SendTime: 42,
		Report:   OWDReport{PathID: 2, SampleCount: 900, MeanOWDNano: 28_000_000},
	}
	if err := SerializeLayers(buf, h, &pay); err != nil {
		t.Fatal(err)
	}
	if h.HeaderLen() != tangoFixedLen+tangoReportLen {
		t.Fatalf("HeaderLen = %d", h.HeaderLen())
	}
	var dec Tango
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.Report != h.Report {
		t.Fatalf("report = %+v, want %+v", dec.Report, h.Report)
	}
	if string(dec.LayerPayload()) != "p" {
		t.Fatalf("payload = %q", dec.LayerPayload())
	}
	// Negative OWD (receiver clock behind sender) must survive.
	h.Report.MeanOWDNano = -5_000_000
	if err := SerializeLayers(buf, h, &pay); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.Report.MeanOWDNano != -5_000_000 {
		t.Fatalf("negative OWD = %d", dec.Report.MeanOWDNano)
	}
}

func TestTangoErrors(t *testing.T) {
	var dec Tango
	if err := dec.DecodeFromBytes(make([]byte, 15)); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := make([]byte, 16)
	bad[0] = 9 << 4
	if err := dec.DecodeFromBytes(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Report flag set but block missing.
	short := make([]byte, 16)
	short[0] = TangoVersion<<4 | TangoFlagReport
	if err := dec.DecodeFromBytes(short); err == nil {
		t.Fatal("missing report block accepted")
	}
	// Oversized flags rejected at serialize time.
	buf := NewSerializeBuffer()
	h := &Tango{Flags: 0x1f}
	if err := h.SerializeTo(buf); err == nil {
		t.Fatal("5-bit flags accepted")
	}
}

func TestFullEncapStack(t *testing.T) {
	// Build the exact packet the Tango sender emits: outer IPv6 + UDP +
	// Tango + inner IPv6 + inner UDP + app payload.
	app := Payload([]byte("drone telemetry sample"))
	innerUDP := &UDP{SrcPort: 9000, DstPort: 9001}
	innerUDP.SetNetworkForChecksum(srcV6, dstV6)
	innerIP := &IPv6{NextHeader: ProtoUDP, HopLimit: 60, Src: srcV6, Dst: dstV6}
	tng := &Tango{Flags: TangoFlagSeq | TangoFlagTimestamp | TangoFlagInner6, PathID: 2, Seq: 7, SendTime: 1000}
	outerSrc := netip.MustParseAddr("2001:db8:100::1")
	outerDst := netip.MustParseAddr("2001:db8:200::1")
	outerUDP := &UDP{SrcPort: 40000, DstPort: TangoPort}
	outerUDP.SetNetworkForChecksum(outerSrc, outerDst)
	outerIP := &IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: outerSrc, Dst: outerDst}

	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, outerIP, outerUDP, tng, innerIP, innerUDP, &app); err != nil {
		t.Fatal(err)
	}

	// Parse it back the way the receiver program does: preallocated
	// layers, each decoding the previous one's payload.
	var oip IPv6
	var oudp UDP
	var oth Tango
	if err := oip.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := oudp.DecodeFromBytes(oip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if err := oudp.VerifyChecksum(oip.Src, oip.Dst, oip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if err := oth.DecodeFromBytes(oudp.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if oip.Dst != outerDst || oudp.DstPort != TangoPort {
		t.Fatalf("outer headers = %v port %d", oip.Dst, oudp.DstPort)
	}
	if oth.PathID != 2 || oth.Seq != 7 || oth.SendTime != 1000 {
		t.Fatalf("tango hdr = %+v", oth)
	}

	// Decode the inner packet separately, as the receiver program does
	// after computing OWD.
	var iip IPv6
	var iudp UDP
	if err := iip.DecodeFromBytes(oth.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if err := iudp.DecodeFromBytes(iip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if ipay := iudp.LayerPayload(); string(ipay) != "drone telemetry sample" {
		t.Fatalf("inner payload = %q", ipay)
	}
	if iip.Src != srcV6 || iudp.SrcPort != 9000 {
		t.Fatal("inner headers corrupted by encapsulation")
	}
}

// Property: Tango header round-trips for all field values.
func TestTangoRoundTripProperty(t *testing.T) {
	buf := NewSerializeBuffer()
	f := func(flags uint8, pathID uint8, seq uint32, ts int64, rep OWDReport, pay []byte) bool {
		if len(pay) > 512 {
			pay = pay[:512]
		}
		h := &Tango{Flags: flags & 0x0f, PathID: pathID, Seq: seq, SendTime: ts, Report: rep}
		p := Payload(pay)
		if err := SerializeLayers(buf, h, &p); err != nil {
			return false
		}
		var dec Tango
		if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		if dec.Flags != h.Flags || dec.PathID != pathID || dec.Seq != seq || dec.SendTime != ts {
			return false
		}
		if h.Flags&TangoFlagReport != 0 && dec.Report != rep {
			return false
		}
		return bytes.Equal(dec.LayerPayload(), pay)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPv6 serialization/decoding round-trips arbitrary payloads.
func TestIPv6RoundTripProperty(t *testing.T) {
	buf := NewSerializeBuffer()
	f := func(tc uint8, fl uint32, nh, hl uint8, srcRaw, dstRaw [16]byte, pay []byte) bool {
		if len(pay) > 1024 {
			pay = pay[:1024]
		}
		ip := &IPv6{
			TrafficClass: tc,
			FlowLabel:    fl & 0xfffff,
			NextHeader:   nh,
			HopLimit:     hl,
			Src:          netip.AddrFrom16(srcRaw),
			Dst:          netip.AddrFrom16(dstRaw),
		}
		p := Payload(pay)
		if err := SerializeLayers(buf, ip, &p); err != nil {
			// Only 4-in-6 addresses are rejected; treat as vacuous.
			return ip.Src.Is4In6() || ip.Dst.Is4In6()
		}
		var dec IPv6
		if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return dec.TrafficClass == ip.TrafficClass && dec.FlowLabel == ip.FlowLabel &&
			dec.NextHeader == nh && dec.HopLimit == hl &&
			dec.Src == ip.Src && dec.Dst == ip.Dst &&
			bytes.Equal(dec.LayerPayload(), pay)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: UDP checksum verification accepts every valid serialization
// and the checksum field is never the forbidden 0 when computed.
func TestUDPChecksumProperty(t *testing.T) {
	buf := NewSerializeBuffer()
	f := func(sp, dp uint16, pay []byte) bool {
		if len(pay) > 1024 {
			pay = pay[:1024]
		}
		u := &UDP{SrcPort: sp, DstPort: dp}
		u.SetNetworkForChecksum(srcV6, dstV6)
		p := Payload(pay)
		if err := SerializeLayers(buf, u, &p); err != nil {
			return false
		}
		var dec UDP
		if err := dec.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		if dec.Checksum == 0 {
			return false
		}
		return dec.VerifyChecksum(srcV6, dstV6, buf.Bytes()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// HeaderLen returns the encoded header length given the flags.
func (t *Tango) HeaderLen() int {
	n := tangoFixedLen
	if t.Flags&TangoFlagReport != 0 {
		n += tangoReportLen
	}
	if t.ExtFlags&TangoExtRelay != 0 {
		n += tangoRelayLen
	}
	if t.ExtFlags&TangoExtAuth != 0 {
		n += tangoAuthLen
	}
	return n
}
