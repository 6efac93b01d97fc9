package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// The fuzz targets check the parse -> serialize -> parse round trip for
// every wire codec: any input the decoder accepts must re-serialize into
// a form the decoder parses back to the same semantic header, and no
// input may panic the decoder. The comparison is per field rather than
// byte-for-byte because serialization is canonicalizing: IPv4 options
// are dropped and the checksum recomputed, UDP checksums are zeroed
// without pseudo-header addresses, and the Tango auth tag is re-zeroed
// for the data plane to sign.

// tangoSeed serializes a header over payload for the seed corpus.
func tangoSeed(t *Tango, payload []byte) []byte {
	buf := NewSerializeBuffer()
	pay := Payload(payload)
	if err := SerializeLayers(buf, t, &pay); err != nil {
		panic(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func FuzzTangoHeader(f *testing.F) {
	f.Add(tangoSeed(&Tango{Flags: TangoFlagSeq | TangoFlagTimestamp, PathID: 3, Seq: 77, SendTime: 1e9}, []byte("hi")))
	f.Add(tangoSeed(&Tango{
		Flags: TangoFlagSeq | TangoFlagReport | TangoFlagInner6, PathID: 1, Seq: 9,
		Report: OWDReport{PathID: 2, SampleCount: 40, MeanOWDNano: 11e6, JitterNano: 3e5},
	}, []byte("report")))
	f.Add(tangoSeed(&Tango{Flags: TangoFlagSeq, ExtFlags: TangoExtRelay | TangoExtAuth, RelayTTL: 4}, []byte("ext")))
	f.Add([]byte{0x20, 0, 0, 0})                                            // wrong version nibble
	f.Add([]byte{0x10, 1, 2, 3, 4, 5, 6, 7})                                // truncated fixed header
	f.Add(tangoSeed(&Tango{Flags: TangoFlagReport}, nil)[:tangoFixedLen+3]) // truncated report

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Tango
		if err := h.DecodeFromBytes(data); err != nil {
			return
		}
		if got := h.HeaderLen(); got != len(data)-len(h.LayerPayload()) {
			t.Fatalf("HeaderLen %d != consumed %d", got, len(data)-len(h.LayerPayload()))
		}
		buf := NewSerializeBuffer()
		pay := Payload(h.LayerPayload())
		if err := SerializeLayers(buf, &h, &pay); err != nil {
			t.Fatalf("re-serialize of accepted header failed: %v", err)
		}
		var h2 Tango
		if err := h2.DecodeFromBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if h2.Flags != h.Flags || h2.PathID != h.PathID || h2.ExtFlags != h.ExtFlags ||
			h2.Seq != h.Seq || h2.SendTime != h.SendTime || h2.RelayTTL != h.RelayTTL ||
			h2.Report != h.Report {
			t.Fatalf("round trip changed header:\n  %+v\n  %+v", h, h2)
		}
		if !bytes.Equal(h2.LayerPayload(), h.LayerPayload()) {
			t.Fatalf("round trip changed payload: %x -> %x", h.LayerPayload(), h2.LayerPayload())
		}
	})
}

// ipv4Seed builds a valid IPv4 datagram for the seed corpus.
func ipv4Seed(ip *IPv4, payload []byte) []byte {
	buf := NewSerializeBuffer()
	pay := Payload(payload)
	if err := SerializeLayers(buf, ip, &pay); err != nil {
		panic(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func FuzzIPv4Parse(f *testing.F) {
	f.Add(ipv4Seed(&IPv4{
		TOS: 0x10, ID: 7, TTL: 64, Protocol: ProtoUDP,
		Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.2"),
	}, []byte("payload")))
	f.Add(ipv4Seed(&IPv4{
		Flags: 0x2, FragOff: 0x1fff, TTL: 1, Protocol: ProtoIPv4,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
	}, nil))
	f.Add([]byte{0x60, 0, 0, 0}) // IPv6 version nibble
	f.Add(bytes.Repeat([]byte{0x45}, ipv4HeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ip IPv4
		if err := ip.DecodeFromBytes(data); err != nil {
			return
		}
		// The decoder accepts options (IHL > 5) and trailing bytes past the
		// total length; serialization canonicalizes to a bare 20-byte header
		// and recomputes the checksum, so compare the semantic fields.
		buf := NewSerializeBuffer()
		pay := Payload(ip.LayerPayload())
		if err := SerializeLayers(buf, &ip, &pay); err != nil {
			t.Fatalf("re-serialize of accepted header failed: %v", err)
		}
		var ip2 IPv4
		if err := ip2.DecodeFromBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if ip2.TOS != ip.TOS || ip2.ID != ip.ID || ip2.Flags != ip.Flags ||
			ip2.FragOff != ip.FragOff || ip2.TTL != ip.TTL || ip2.Protocol != ip.Protocol ||
			ip2.Src != ip.Src || ip2.Dst != ip.Dst {
			t.Fatalf("round trip changed header:\n  %+v\n  %+v", ip, ip2)
		}
		if !bytes.Equal(ip2.LayerPayload(), ip.LayerPayload()) {
			t.Fatalf("round trip changed payload: %x -> %x", ip.LayerPayload(), ip2.LayerPayload())
		}
	})
}

func FuzzUDPParse(f *testing.F) {
	{
		buf := NewSerializeBuffer()
		pay := Payload([]byte("datagram"))
		if err := SerializeLayers(buf, &UDP{SrcPort: 1234, DstPort: TangoPort}, &pay); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	f.Add([]byte{0, 1, 0, 2, 0, 8, 0, 0}) // empty datagram
	f.Add([]byte{0, 1, 0, 2, 0, 4, 0, 0}) // length below header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var u UDP
		if err := u.DecodeFromBytes(data); err != nil {
			return
		}
		if len(u.LayerPayload()) > len(data)-udpHeaderLen {
			t.Fatalf("payload %d bytes from %d-byte datagram", len(u.LayerPayload()), len(data))
		}
		// Without SetNetworkForChecksum the serializer writes checksum 0
		// (legal for IPv4), so ports, length, and payload round-trip but the
		// decoded checksum does not.
		buf := NewSerializeBuffer()
		pay := Payload(u.LayerPayload())
		if err := SerializeLayers(buf, &u, &pay); err != nil {
			t.Fatalf("re-serialize of accepted header failed: %v", err)
		}
		var u2 UDP
		if err := u2.DecodeFromBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if u2.SrcPort != u.SrcPort || u2.DstPort != u.DstPort {
			t.Fatalf("round trip changed ports: %d/%d -> %d/%d",
				u.SrcPort, u.DstPort, u2.SrcPort, u2.DstPort)
		}
		if !bytes.Equal(u2.LayerPayload(), u.LayerPayload()) {
			t.Fatalf("round trip changed payload: %x -> %x", u.LayerPayload(), u2.LayerPayload())
		}
	})
}
