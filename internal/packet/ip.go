package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// ProtoUDP is the IP protocol number of UDP, the one transport Tango
// packets use.
const ProtoUDP = 17

// IPv6 is the fixed 40-byte IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr

	payload []byte
}

const ipv6HeaderLen = 40

var errTruncated = errors.New("truncated")

// LayerPayload returns the bytes after the IPv6 header.
func (ip *IPv6) LayerPayload() []byte { return ip.payload }

// SerializeTo prepends the IPv6 header; the current buffer contents become
// the payload and set PayloadLength.
func (ip *IPv6) SerializeTo(buf *SerializeBuffer) error {
	if !ip.Src.Is6() || !ip.Dst.Is6() {
		return fmt.Errorf("ipv6: src/dst must be IPv6 (src=%v dst=%v)", ip.Src, ip.Dst)
	}
	plen := buf.Len()
	if plen > 0xffff {
		return fmt.Errorf("ipv6: payload %d exceeds 65535", plen)
	}
	b := buf.PrependBytes(ipv6HeaderLen)
	b[0] = 6<<4 | ip.TrafficClass>>4
	b[1] = ip.TrafficClass<<4 | uint8(ip.FlowLabel>>16)&0x0f
	binary.BigEndian.PutUint16(b[2:4], uint16(ip.FlowLabel))
	binary.BigEndian.PutUint16(b[4:6], uint16(plen))
	b[6] = ip.NextHeader
	b[7] = ip.HopLimit
	src := ip.Src.As16()
	dst := ip.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	return nil
}

// DecodeFromBytes parses an IPv6 header.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < ipv6HeaderLen {
		return fmt.Errorf("ipv6: %w: %d bytes", errTruncated, len(data))
	}
	if v := data[0] >> 4; v != 6 {
		return fmt.Errorf("ipv6: version %d", v)
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = uint32(data[1]&0x0f)<<16 | uint32(binary.BigEndian.Uint16(data[2:4]))
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	var src, dst [16]byte
	copy(src[:], data[8:24])
	copy(dst[:], data[24:40])
	ip.Src = netip.AddrFrom16(src)
	ip.Dst = netip.AddrFrom16(dst)
	if len(data)-ipv6HeaderLen < plen {
		return fmt.Errorf("ipv6: %w payload: have %d want %d", errTruncated, len(data)-ipv6HeaderLen, plen)
	}
	ip.payload = data[ipv6HeaderLen : ipv6HeaderLen+plen]
	return nil
}

// ipv4HeaderLen is an IPv4 header without options: the header readers
// take IPv4 inner packets, which cross Tango tunnels unchanged.
const ipv4HeaderLen = 20

// checksum computes the Internet checksum (RFC 1071) over data with an
// initial partial sum. It adds eight big-endian bytes per step into a
// 64-bit ones'-complement accumulator, the carry of each add fed into the
// next and added back once at the end, then folds 64 → 32 → 16. This is
// RFC 1071 §2(B)–(C): 2^16 ≡ 1 mod 0xffff, so a sum of wider words with
// deferred carries folds to the same 16-bit sum, and since every input is
// non-negative it folds to 0 only when every input was 0 — the same
// representative the 16-bit loop produces.
func checksum(data []byte, initial uint64) uint16 {
	sum, carry := initial, uint64(0)
	for len(data) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[24:32]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// Under eight bytes remain, each piece starting at an even offset.
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	// tail < 2^34, so when this add carries sum ends below tail and adding
	// the carry back cannot wrap.
	sum, carry = bits.Add64(sum, tail, carry)
	sum += carry
	s32, c32 := bits.Add32(uint32(sum>>32), uint32(sum), 0)
	s32 += c32
	s16 := s32>>16 + s32&0xffff
	s16 = s16>>16 + s16&0xffff
	return ^uint16(s16)
}
