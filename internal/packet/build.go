package packet

import "net/netip"

// InnerUDP describes the host-level packet the probers, traffic
// generators, experiments and benchmarks tunnel: IPv6/UDP with hop limit
// 64 and the all-zero "not computed" UDP checksum, so a generator may
// restamp its template in place without re-summing it. (The public
// Site.Send builds the checksummed variant, the only other inner packet
// in the tree.)
type InnerUDP struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	// TrafficClass carries a flow's class for dataplane.ClassSelector.
	TrafficClass uint8
}

// Build serializes the packet around payload into buf and returns a view
// of it, valid until buf is next used.
func (h InnerUDP) Build(buf *SerializeBuffer, payload []byte) ([]byte, error) {
	pay := Payload(payload)
	udp := UDP{SrcPort: h.SrcPort, DstPort: h.DstPort}
	ip := IPv6{TrafficClass: h.TrafficClass, NextHeader: ProtoUDP, HopLimit: 64, Src: h.Src, Dst: h.Dst}
	if err := SerializeLayers(buf, &ip, &udp, &pay); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// New returns the packet as a freshly allocated slice — a generator's
// template. It panics on what only a wiring bug produces: a non-IPv6
// address or a payload over 64 KiB.
func (h InnerUDP) New(payload []byte) []byte {
	b, err := h.Build(NewSerializeBuffer(), payload)
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), b...)
}

// OuterFrame returns inner encapsulated as the sender at src emits it
// toward a tunnel endpoint dst (sequence 0, send time 1), for
// experiments and benchmarks that feed a receiver program directly.
func OuterFrame(src, dst netip.Addr, srcPort uint16, pathID uint8, inner []byte) []byte {
	pay := Payload(inner)
	hdr := Tango{Flags: TangoFlagSeq | TangoFlagTimestamp | TangoFlagInner6, PathID: pathID, SendTime: 1}
	udp := UDP{SrcPort: srcPort, DstPort: TangoPort}
	udp.SetNetworkForChecksum(src, dst)
	ip := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, &ip, &udp, &hdr, &pay); err != nil {
		panic(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}
