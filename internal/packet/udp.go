package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// UDP is the 8-byte UDP header. Tango's outer UDP header exists for two
// reasons the paper calls out: it lets the sender *control ECMP behaviour*
// (core routers hash the 5-tuple, so a fixed tuple pins one intra-provider
// path per tunnel) and it makes the encapsulation look like ordinary
// traffic to the core.
type UDP struct {
	SrcPort, DstPort uint16

	// Checksum handling: for IPv6 the UDP checksum is mandatory, and it
	// covers a pseudo-header with the IP addresses. Callers set the
	// network addresses before serializing/verifying.
	csumSrc, csumDst netip.Addr
	haveNet          bool

	// Checksum holds the decoded checksum field after DecodeFromBytes.
	Checksum uint16

	payload []byte
}

const udpHeaderLen = 8

// TangoPort is the registered (for this simulation) destination port that
// identifies Tango-encapsulated traffic at the receiving border switch.
const TangoPort = 40897

// SetNetworkForChecksum provides the IP addresses for pseudo-header
// checksum computation and verification.
func (u *UDP) SetNetworkForChecksum(src, dst netip.Addr) {
	u.csumSrc, u.csumDst = src, dst
	u.haveNet = true
}

// LayerPayload returns the bytes after the UDP header.
func (u *UDP) LayerPayload() []byte { return u.payload }

// SerializeTo prepends the UDP header. If network addresses were provided
// via SetNetworkForChecksum the checksum is computed; otherwise it is
// zero (legal for IPv4, not for IPv6 — the data plane always sets it).
func (u *UDP) SerializeTo(buf *SerializeBuffer) error {
	length := buf.Len() + udpHeaderLen
	if length > 0xffff {
		return fmt.Errorf("udp: length %d exceeds 65535", length)
	}
	b := buf.PrependBytes(udpHeaderLen)
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(length))
	if u.haveNet {
		csum := udpChecksum(u.csumSrc, u.csumDst, buf.Bytes())
		binary.BigEndian.PutUint16(b[6:8], csum)
	}
	return nil
}

// DecodeFromBytes parses a UDP header. Checksum verification is separate
// (VerifyChecksum) because it needs the pseudo-header addresses.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < udpHeaderLen {
		return fmt.Errorf("udp: %w: %d bytes", errTruncated, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	length := int(binary.BigEndian.Uint16(data[4:6]))
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if length < udpHeaderLen || len(data) < length {
		return fmt.Errorf("udp: %w: length %d have %d", errTruncated, length, len(data))
	}
	u.payload = data[udpHeaderLen:length]
	return nil
}

// VerifyChecksum checks the decoded datagram's checksum against the
// pseudo-header built from src/dst. A zero checksum passes for IPv4
// (checksum disabled) and fails for IPv6.
func (u *UDP) VerifyChecksum(src, dst netip.Addr, datagram []byte) error {
	if u.Checksum == 0 {
		if src.Is6() && !src.Is4In6() {
			return errors.New("udp: zero checksum invalid over IPv6")
		}
		return nil
	}
	if udpChecksumRaw(src, dst, datagram) != 0 {
		return errors.New("udp: checksum mismatch")
	}
	return nil
}

// UDPChecksumFor computes the transmit checksum for a datagram whose
// checksum field is currently zero (exposed for tests and tools that
// mutate serialized packets).
func UDPChecksumFor(src, dst netip.Addr, datagram []byte) uint16 {
	return udpChecksum(src, dst, datagram)
}

// udpChecksum computes the transmit checksum for a datagram whose checksum
// field is zero. Per RFC 768 a computed 0 is transmitted as 0xffff.
func udpChecksum(src, dst netip.Addr, datagram []byte) uint16 {
	c := udpChecksumRaw(src, dst, datagram)
	if c == 0 {
		return 0xffff
	}
	return c
}

// udpChecksumRaw computes the checksum over pseudo-header + datagram as-is
// (used for verification: a valid datagram sums to zero). Each address
// enters the accumulator as two 64-bit words of its 16-byte form. For an
// IPv4 address that form is ::ffff:a.b.c.d, whose extra 0xffff word is
// ones'-complement zero: the pseudo-header always carries ProtoUDP, so the
// sum is never zero and adding 0xffff leaves its folded value unchanged.
func udpChecksumRaw(src, dst netip.Addr, datagram []byte) uint16 {
	s, d := src.As16(), dst.As16()
	sum, carry := bits.Add64(binary.BigEndian.Uint64(s[0:8]), binary.BigEndian.Uint64(s[8:16]), 0)
	sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(d[0:8]), carry)
	sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(d[8:16]), carry)
	sum, carry = bits.Add64(sum, uint64(ProtoUDP)+uint64(len(datagram)), carry)
	// checksum() adds the datagram, folds and complements; feed it the
	// partial sum with the last carry added back. That add's operand is a
	// length plus 17, so when it carries sum ends below that operand and
	// this cannot wrap.
	return checksum(datagram, sum+carry)
}
