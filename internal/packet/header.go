package packet

import (
	"encoding/binary"
	"net/netip"
)

// Fixed-offset readers and in-place setters: what a forwarding stage, a
// selector or a sink needs from a packet without decoding it — the
// matches an eBPF program does before (or instead of) a full parse.
// Every byte offset into an IP or UDP header that the rest of the tree
// depends on is in this file or in the layers' SerializeTo and
// DecodeFromBytes. The readers take arbitrary bytes: they bounds-check,
// never panic, and agree with the full decoders on every packet those
// accept (FuzzHeaderReaders).

// Version returns the IP version nibble, or 0 for an empty packet.
func Version(data []byte) uint8 {
	if len(data) == 0 {
		return 0
	}
	return data[0] >> 4
}

// Dst returns the destination address and hop limit (IPv4 TTL) of an
// IPv6 or IPv4 packet — the one routing decision a forwarding stage
// makes. ok is false for any other version or a truncated header.
func Dst(data []byte) (dst netip.Addr, hopLimit uint8, ok bool) {
	switch Version(data) {
	case 6:
		if len(data) >= ipv6HeaderLen {
			return netip.AddrFrom16([16]byte(data[24:40])), data[7], true
		}
	case 4:
		if len(data) >= ipv4HeaderLen {
			return netip.AddrFrom4([4]byte(data[16:20])), data[8], true
		}
	}
	return netip.Addr{}, 0, false
}

// DecHopLimit ages a packet Dst accepted by one hop, in place.
func DecHopLimit(data []byte) {
	if data[0]>>4 == 6 {
		data[7]--
		return
	}
	decTTL4(data)
}

// decTTL4 also rewrites the IPv4 header checksum, as a router does, so
// receivers that verify it keep working.
func decTTL4(data []byte) {
	data[8]--
	if ihl := int(data[0]&0x0f) * 4; ihl <= len(data) {
		data[10], data[11] = 0, 0
		binary.BigEndian.PutUint16(data[10:12], checksum(data[:ihl], 0))
	}
}

// FlowHash hashes a packet's flow identity — source and destination
// address plus the first four transport bytes, i.e. the ports — with
// FNV-1a, the way a core router's ECMP stage does. Same flow, same hash,
// same path: the outer UDP header exists so that this is constant per
// tunnel. A packet too short to carry the tuple hashes to the FNV
// offset basis.
func FlowHash(data []byte) uint32 {
	var tuple []byte
	switch Version(data) {
	case 6:
		if len(data) >= ipv6HeaderLen+4 {
			tuple = data[8:44]
		}
	case 4:
		if len(data) >= ipv4HeaderLen+4 {
			tuple = data[12:24]
		}
	}
	h := uint32(2166136261)
	for _, v := range tuple {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

// TrafficClass returns the IPv6 traffic-class byte or the IPv4 TOS byte,
// where senders stamp a flow's class for the data plane to steer by.
func TrafficClass(data []byte) (class int, ok bool) {
	if len(data) < 2 {
		return 0, false
	}
	switch data[0] >> 4 {
	case 6:
		return int(data[0]&0x0f)<<4 | int(data[1]>>4), true
	case 4:
		return int(data[1]), true
	}
	return 0, false
}

// isUDP6 matches an IPv6 packet with no extension headers carrying UDP,
// long enough to hold both headers — the only shape Tango and the
// traffic generators send.
func isUDP6(data []byte) bool {
	return len(data) >= ipv6HeaderLen+udpHeaderLen && data[0]>>4 == 6 && data[6] == ProtoUDP
}

// IsTango reports whether data is IPv6/UDP addressed to the Tango port:
// the cheap match the receiver runs before its full parse, which is what
// rejects (and counts) a frame that only looks the part.
func IsTango(data []byte) bool {
	return isUDP6(data) && binary.BigEndian.Uint16(data[42:44]) == TangoPort
}

// UDP6 locates the UDP datagram in an IPv6/UDP packet: its destination
// port and its payload, bounded by the UDP length field. The payload
// aliases data, so a generator stamps a template through it.
func UDP6(data []byte) (dport uint16, payload []byte, ok bool) {
	if !isUDP6(data) {
		return 0, nil, false
	}
	end := ipv6HeaderLen + int(binary.BigEndian.Uint16(data[44:46]))
	if end < ipv6HeaderLen+udpHeaderLen || end > len(data) {
		return 0, nil, false
	}
	return binary.BigEndian.Uint16(data[42:44]), data[ipv6HeaderLen+udpHeaderLen : end], true
}

// Src6 returns the source address bytes of a packet UDP6 accepted.
func Src6(data []byte) [16]byte { return [16]byte(data[8:24]) }

// SetUDPSrcPort6 rewrites the UDP source port of a packet UDP6 accepted.
// The generators' templates carry the all-zero "not computed" UDP
// checksum, so the rewrite leaves them consistent.
func SetUDPSrcPort6(data []byte, port uint16) {
	binary.BigEndian.PutUint16(data[40:42], port)
}
