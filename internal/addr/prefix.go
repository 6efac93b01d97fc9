// Package addr provides IP addressing for the Tango simulator: prefix
// arithmetic, a longest-prefix-match routing trie, and address allocators.
//
// Tango's central trick is to "rethink prefixes as routes": the same edge
// network is reachable via several prefixes, each of which propagates over
// a different interdomain path. That makes prefix handling — containment,
// subnetting an institutional IPv6 block into per-tunnel /48s, and
// longest-prefix-match lookup in router FIBs — a first-class substrate.
package addr

import (
	"fmt"
	"net/netip"
)

// Prefix is an IP prefix in canonical (masked) form. It wraps netip.Prefix
// and guarantees the address is the network address (host bits zero), so
// Prefix values are comparable with == and usable as map keys.
type Prefix struct {
	p netip.Prefix
}

// MustParsePrefix parses a CIDR string, panicking on error. For use in
// tests, scenario construction, and package-level variables.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a CIDR string into a canonical Prefix.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{p.Masked()}, nil
}

// PrefixFrom builds a canonical Prefix from an address and length.
func PrefixFrom(ip netip.Addr, bits int) (Prefix, error) {
	p := netip.PrefixFrom(ip, bits)
	if !p.IsValid() {
		return Prefix{}, fmt.Errorf("addr: invalid prefix %v/%d", ip, bits)
	}
	return Prefix{p.Masked()}, nil
}

// IsValid reports whether p is a real prefix (the zero Prefix is not).
func (p Prefix) IsValid() bool { return p.p.IsValid() }

// Addr returns the network address.
func (p Prefix) Addr() netip.Addr { return p.p.Addr() }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return p.p.Bits() }

// Contains reports whether the prefix contains ip.
func (p Prefix) Contains(ip netip.Addr) bool { return p.p.Contains(ip) }

// String returns the CIDR notation.
func (p Prefix) String() string { return p.p.String() }

// Compare orders prefixes by address then by length; usable for sorting
// route tables into a stable display order.
func (p Prefix) Compare(q Prefix) int {
	if c := p.p.Addr().Compare(q.p.Addr()); c != 0 {
		return c
	}
	switch {
	case p.Bits() < q.Bits():
		return -1
	case p.Bits() > q.Bits():
		return 1
	}
	return 0
}

// Subnet returns the idx-th subnet of length newBits carved out of p.
// For example Subnet(2001:db8::/32, 48, 5) = 2001:db8:5::/48.
func (p Prefix) Subnet(newBits, idx int) (Prefix, error) {
	if newBits < p.Bits() || newBits > p.p.Addr().BitLen() {
		return Prefix{}, fmt.Errorf("addr: cannot carve /%d from %v", newBits, p)
	}
	if idx < 0 {
		return Prefix{}, fmt.Errorf("addr: negative subnet index")
	}
	span := newBits - p.Bits()
	if span < 64 && uint64(idx) >= uint64(1)<<uint(span) {
		return Prefix{}, fmt.Errorf("addr: subnet index %d out of range for /%d in %v", idx, newBits, p)
	}
	b := p.p.Addr().As16()
	// Write idx into bits [p.Bits(), newBits) counting from the top of
	// the 128-bit address. IPv4 addresses are handled in 4-byte form.
	bitLen := p.p.Addr().BitLen()
	base := 128 - bitLen // offset of the address within the 16-byte array
	for i := 0; i < span; i++ {
		// Bit position (from the MSB of the address) of the i-th
		// lowest bit of idx.
		bitPos := newBits - 1 - i
		if idx&(1<<uint(i)) != 0 {
			byteIdx := (base + bitPos) / 8
			bitInByte := 7 - uint((base+bitPos)%8)
			b[byteIdx] |= 1 << bitInByte
		}
	}
	var ip netip.Addr
	if bitLen == 32 {
		var v4 [4]byte
		copy(v4[:], b[12:])
		ip = netip.AddrFrom4(v4)
	} else {
		ip = netip.AddrFrom16(b)
	}
	return PrefixFrom(ip, newBits)
}

// Host returns the idx-th usable address inside the prefix (idx 0 is the
// network address itself; most scenarios use idx >= 1).
func (p Prefix) Host(idx uint64) (netip.Addr, error) {
	b := p.p.Addr().As16()
	// Add idx to the low 64 bits (sufficient: scenarios never exceed
	// 2^64 hosts).
	var lo uint64
	for i := 8; i < 16; i++ {
		lo = lo<<8 | uint64(b[i])
	}
	lo += idx
	for i := 15; i >= 8; i-- {
		b[i] = byte(lo)
		lo >>= 8
	}
	if p.p.Addr().BitLen() == 32 {
		var v4 [4]byte
		copy(v4[:], b[12:])
		a := netip.AddrFrom4(v4)
		if !p.Contains(a) {
			return netip.Addr{}, fmt.Errorf("addr: host index %d overflows %v", idx, p)
		}
		return a, nil
	}
	a := netip.AddrFrom16(b)
	if !p.Contains(a) {
		return netip.Addr{}, fmt.Errorf("addr: host index %d overflows %v", idx, p)
	}
	return a, nil
}
