package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// The IPv4 header codec tests build and check IPv4 packets with. Shipped
// code reads IPv4 inner packets only through the fixed-offset readers
// (header.go), which FuzzHeaderReaders holds to this decoder.

// ProtoIPv4 is the IP protocol number of IPv4-in-X encapsulation.
const ProtoIPv4 = 4

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
