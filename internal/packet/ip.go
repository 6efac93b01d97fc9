package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// IP protocol numbers used by Tango packets.
const (
	ProtoUDP  = 17
	ProtoIPv4 = 4 // IPv4-in-X encapsulation
)

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

// IPv4 is the 20-byte (no options) IPv4 header.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr

	payload []byte
}

const ipv4HeaderLen = 20

// LayerPayload returns the bytes after the IPv4 header.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// SerializeTo prepends the IPv4 header with a correct checksum.
func (ip *IPv4) SerializeTo(buf *SerializeBuffer) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("ipv4: src/dst must be IPv4 (src=%v dst=%v)", ip.Src, ip.Dst)
	}
	total := buf.Len() + ipv4HeaderLen
	if total > 0xffff {
		return fmt.Errorf("ipv4: total length %d exceeds 65535", total)
	}
	b := buf.PrependBytes(ipv4HeaderLen)
	b[0] = 4<<4 | ipv4HeaderLen/4
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	binary.BigEndian.PutUint16(b[10:12], checksum(b, 0))
	return nil
}

// DecodeFromBytes parses an IPv4 header and verifies its checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ipv4HeaderLen {
		return fmt.Errorf("ipv4: %w: %d bytes", errTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("ipv4: version %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(data) < ihl {
		return fmt.Errorf("ipv4: bad IHL %d", ihl)
	}
	if checksum(data[:ihl], 0) != 0 {
		return errors.New("ipv4: header checksum mismatch")
	}
	ip.TOS = data[1]
	total := int(binary.BigEndian.Uint16(data[2:4]))
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if total < ihl || len(data) < total {
		return fmt.Errorf("ipv4: %w: total %d have %d", errTruncated, total, len(data))
	}
	ip.payload = data[ihl:total]
	return nil
}

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
