package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

func TestDst(t *testing.T) {
	v6 := make([]byte, 40)
	v6[0], v6[7] = 0x60, 9
	want6 := netip.MustParseAddr("fd00::42")
	d := want6.As16()
	copy(v6[24:40], d[:])
	if got, hop, ok := Dst(v6); !ok || got != want6 || hop != 9 {
		t.Fatalf("Dst(v6) = %v, %d, %v", got, hop, ok)
	}

	v4 := make([]byte, 20)
	v4[0], v4[8] = 0x45, 3
	copy(v4[16:20], []byte{10, 0, 0, 7})
	want4 := netip.MustParseAddr("10.0.0.7")
	if got, ttl, ok := Dst(v4); !ok || got != want4 || ttl != 3 {
		t.Fatalf("Dst(v4) = %v, %d, %v", got, ttl, ok)
	}

	for _, bad := range [][]byte{nil, {0x60}, {0x45, 0, 0}, {0x30, 1, 2, 3}, make([]byte, 39)} {
		if _, _, ok := Dst(bad); ok {
			t.Fatalf("Dst(%v) accepted", bad)
		}
	}
}

// TestDecHopLimit ages both families; the IPv4 header must still verify.
func TestDecHopLimit(t *testing.T) {
	v6 := InnerUDP{Src: srcV6, Dst: dstV6, SrcPort: 1, DstPort: 2}.New(nil)
	DecHopLimit(v6)
	if _, hop, _ := Dst(v6); hop != 63 {
		t.Fatalf("IPv6 hop limit = %d, want 63", hop)
	}
	v4 := ipv4Seed(&IPv4{TTL: 5, Protocol: ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}, []byte("x"))
	DecHopLimit(v4)
	var ip IPv4
	if err := ip.DecodeFromBytes(v4); err != nil || ip.TTL != 4 {
		t.Fatalf("IPv4 after ageing: ttl %d, err %v", ip.TTL, err)
	}
}

// TestInnerUDPTemplate pins what the builder promises a generator: the
// fields land where the readers look, the checksum is the all-zero "not
// computed" value, and stamping through the payload view and the
// source-port setter edits the template itself.
func TestInnerUDPTemplate(t *testing.T) {
	h := InnerUDP{Src: srcV6, Dst: dstV6, SrcPort: 7000, DstPort: 7002, TrafficClass: 2}
	tmpl := h.New(make([]byte, 16))
	var ip IPv6
	var udp UDP
	if err := ip.DecodeFromBytes(tmpl); err != nil {
		t.Fatal(err)
	}
	if err := udp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if ip.Src != srcV6 || ip.Dst != dstV6 || ip.HopLimit != 64 || ip.TrafficClass != 2 ||
		udp.SrcPort != 7000 || udp.DstPort != 7002 || udp.Checksum != 0 || len(udp.LayerPayload()) != 16 {
		t.Fatalf("template decodes to %+v / %+v", ip, udp)
	}
	dport, pay, ok := UDP6(tmpl)
	if !ok || dport != 7002 || len(pay) != 16 {
		t.Fatalf("UDP6 = %d, %d bytes, %v", dport, len(pay), ok)
	}
	binary.BigEndian.PutUint32(pay, 0xfeedface)
	SetUDPSrcPort6(tmpl, 40123)
	if err := udp.DecodeFromBytes(tmpl[ipv6HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if udp.SrcPort != 40123 || binary.BigEndian.Uint32(udp.LayerPayload()) != 0xfeedface {
		t.Fatalf("stamps did not reach the template: %+v % x", udp, udp.LayerPayload()[:4])
	}
	if Src6(tmpl) != srcV6.As16() || IsTango(tmpl) {
		t.Fatal("Src6 / IsTango misread the template")
	}
	if c, ok := TrafficClass(tmpl); !ok || c != 2 {
		t.Fatalf("TrafficClass = %d, %v", c, ok)
	}

	buf := NewSerializeBuffer()
	if b, err := h.Build(buf, make([]byte, 16)); err != nil || len(b) != len(tmpl) {
		t.Fatalf("Build = %d bytes, %v", len(b), err)
	}
	if _, err := (InnerUDP{Src: netip.MustParseAddr("10.0.0.1"), Dst: dstV6}).Build(buf, nil); err == nil {
		t.Fatal("IPv4 source accepted")
	}
	if _, err := h.Build(buf, make([]byte, 70000)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestOuterFrameIsAcceptedEncap decodes the shared test frame the way the
// receiver program does.
func TestOuterFrameIsAcceptedEncap(t *testing.T) {
	inner := InnerUDP{Src: srcV6, Dst: dstV6, SrcPort: 1, DstPort: 2}.New([]byte("in"))
	src, dst := netip.MustParseAddr("2001:db8:1::1"), netip.MustParseAddr("2001:db8:2::1")
	frame := OuterFrame(src, dst, 40001, 3, inner)
	if !IsTango(frame) {
		t.Fatal("frame does not match the Tango port")
	}
	var ip IPv6
	var udp UDP
	var hdr Tango
	if err := ip.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if err := udp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if err := udp.VerifyChecksum(ip.Src, ip.Dst, ip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if err := hdr.DecodeFromBytes(udp.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if ip.Src != src || ip.Dst != dst || udp.SrcPort != 40001 || hdr.PathID != 3 ||
		hdr.Flags != TangoFlagSeq|TangoFlagTimestamp|TangoFlagInner6 || !bytes.Equal(hdr.LayerPayload(), inner) {
		t.Fatalf("frame decodes to %+v / %+v / %+v", ip, udp, hdr)
	}
}

// fnvTuple is FlowHash's reference: FNV-1a over decoded fields.
func fnvTuple(parts ...[]byte) uint32 {
	h := uint32(2166136261)
	for _, p := range parts {
		for _, v := range p {
			h = (h ^ uint32(v)) * 16777619
		}
	}
	return h
}

// FuzzHeaderReaders runs every fixed-offset reader on arbitrary bytes:
// none may panic, and whenever the full decoders accept the packet the
// readers must report what they decoded.
func FuzzHeaderReaders(f *testing.F) {
	inner := InnerUDP{Src: srcV6, Dst: dstV6, SrcPort: 7000, DstPort: 7001, TrafficClass: 1}.New([]byte("payload"))
	f.Add(inner)
	f.Add(inner[:47])
	f.Add(append(append([]byte(nil), inner...), 0xaa, 0xbb)) // bytes past the length fields
	f.Add(OuterFrame(srcV6, dstV6, 41000, 1, inner))
	f.Add(ipv4Seed(&IPv4{TOS: 0x20, TTL: 7, Protocol: ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
		[]byte{0x1b, 0x58, 0x1b, 0x59, 0, 9, 0, 0, 'x'}))
	f.Add([]byte{0x60})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, hop, dstOK := Dst(data)
		class, classOK := TrafficClass(data)
		hash := FlowHash(data)
		dport, pay, udpOK := UDP6(data)
		tango := IsTango(data)
		if Version(data) == 6 != (len(data) > 0 && data[0]>>4 == 6) {
			t.Fatalf("Version = %d", Version(data))
		}
		if udpOK {
			if got := Src6(data); !bytes.Equal(got[:], data[8:24]) {
				t.Fatalf("Src6 = %x", got)
			}
		}

		var ip6 IPv6
		var ip4 IPv4
		var transport []byte
		switch {
		case ip6.DecodeFromBytes(data) == nil:
			if !dstOK || dst != ip6.Dst || hop != ip6.HopLimit {
				t.Fatalf("Dst = %v, %d, %v; decoded %v, %d", dst, hop, dstOK, ip6.Dst, ip6.HopLimit)
			}
			if !classOK || class != int(ip6.TrafficClass) {
				t.Fatalf("TrafficClass = %d, %v; decoded %d", class, classOK, ip6.TrafficClass)
			}
			transport = data[ipv6HeaderLen:]
			if len(transport) >= 4 {
				s, d := ip6.Src.As16(), ip6.Dst.As16()
				if want := fnvTuple(s[:], d[:], transport[:4]); hash != want {
					t.Fatalf("FlowHash = %#x, want %#x", hash, want)
				}
			}
			var udp UDP
			if ip6.NextHeader != ProtoUDP || udp.DecodeFromBytes(ip6.LayerPayload()) != nil {
				return
			}
			if !udpOK || dport != udp.DstPort || !bytes.Equal(pay, udp.LayerPayload()) {
				t.Fatalf("UDP6 = %d, %x, %v; decoded %d, %x", dport, pay, udpOK, udp.DstPort, udp.LayerPayload())
			}
			if tango != (udp.DstPort == TangoPort) {
				t.Fatalf("IsTango = %v for port %d", tango, udp.DstPort)
			}
			aged := append([]byte(nil), data...)
			DecHopLimit(aged)
			if _, h, _ := Dst(aged); h != hop-1 {
				t.Fatalf("DecHopLimit: %d -> %d", hop, h)
			}
		case ip4.DecodeFromBytes(data) == nil:
			if !dstOK || dst != ip4.Dst || hop != ip4.TTL {
				t.Fatalf("Dst = %v, %d, %v; decoded %v, %d", dst, hop, dstOK, ip4.Dst, ip4.TTL)
			}
			if !classOK || class != int(ip4.TOS) {
				t.Fatalf("TrafficClass = %d, %v; decoded %d", class, classOK, ip4.TOS)
			}
			if udpOK || tango {
				t.Fatal("UDP6 / IsTango accepted an IPv4 packet")
			}
			if len(data) >= ipv4HeaderLen+4 {
				s, d := ip4.Src.As4(), ip4.Dst.As4()
				if want := fnvTuple(s[:], d[:], data[ipv4HeaderLen:ipv4HeaderLen+4]); hash != want {
					t.Fatalf("FlowHash = %#x, want %#x", hash, want)
				}
			}
			aged := append([]byte(nil), data...)
			DecHopLimit(aged)
			if err := ip4.DecodeFromBytes(aged); err != nil || ip4.TTL != hop-1 {
				t.Fatalf("DecHopLimit: ttl %d -> %d, err %v", hop, ip4.TTL, err)
			}
		}
	})
}
