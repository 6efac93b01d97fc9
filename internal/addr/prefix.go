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
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// Prefix is an IP prefix in canonical (masked) form: the network address
// as two left-aligned words (an IPv6 address fills both, an IPv4 address
// the top 32 bits of hi), its length and its family. It holds no pointer
// and is 24 bytes, so the routing state that keys on it — every RIB's
// numbering map, every route and UPDATE — costs the garbage collector
// nothing to scan. Prefix values are comparable with == and usable as map
// keys; the zero Prefix is not a prefix.
type Prefix struct {
	hi, lo uint64
	bits   uint8
	family uint8 // 0 (the zero Prefix), 4 or 6
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
	return fromNetip(p), nil
}

// PrefixFrom builds a canonical Prefix from an address and length.
func PrefixFrom(ip netip.Addr, bits int) (Prefix, error) {
	p := netip.PrefixFrom(ip, bits)
	if !p.IsValid() {
		return Prefix{}, fmt.Errorf("addr: invalid prefix %v/%d", ip, bits)
	}
	return fromNetip(p), nil
}

// fromNetip converts a valid netip.Prefix, masking its host bits.
func fromNetip(p netip.Prefix) Prefix {
	hi, lo := words(p.Addr())
	hi, lo = mask(hi, lo, p.Bits())
	fam := uint8(6)
	if p.Addr().Is4() {
		fam = 4
	}
	return Prefix{hi: hi, lo: lo, bits: uint8(p.Bits()), family: fam}
}

// words returns ip left-aligned in two words.
func words(ip netip.Addr) (hi, lo uint64) {
	b := ip.As16()
	if ip.Is4() {
		return uint64(binary.BigEndian.Uint32(b[12:])) << 32, 0
	}
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// mask keeps the top n bits of the 128-bit word pair.
func mask(hi, lo uint64, n int) (uint64, uint64) {
	if n <= 64 {
		return hi &^ (^uint64(0) >> uint(n)), 0
	}
	return hi, lo &^ (^uint64(0) >> uint(n-64))
}

// commonBits returns how many leading bits two word pairs share.
func commonBits(ahi, alo, bhi, blo uint64) int {
	if x := ahi ^ bhi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	return 64 + bits.LeadingZeros64(alo^blo)
}

// bitAt returns bit i (0 = the most significant bit of hi) of the pair.
func bitAt(hi, lo uint64, i int) int {
	if i < 64 {
		return int(hi>>uint(63-i)) & 1
	}
	return int(lo>>uint(127-i)) & 1
}

// IsValid reports whether p is a real prefix (the zero Prefix is not).
func (p Prefix) IsValid() bool { return p.family != 0 }

// Is6 reports whether p is an IPv6 prefix, as netip's Addr.Is6 does for
// its address.
func (p Prefix) Is6() bool { return p.family == 6 }

// Addr returns the network address (the zero Addr for the zero Prefix).
func (p Prefix) Addr() netip.Addr {
	switch p.family {
	case 4:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(p.hi>>32))
		return netip.AddrFrom4(b)
	case 6:
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], p.hi)
		binary.BigEndian.PutUint64(b[8:], p.lo)
		return netip.AddrFrom16(b)
	}
	return netip.Addr{}
}

// Bits returns the prefix length, or -1 for the zero Prefix.
func (p Prefix) Bits() int {
	if p.family == 0 {
		return -1
	}
	return int(p.bits)
}

// maxBits is the address length of p's family.
func (p Prefix) maxBits() int {
	if p.family == 4 {
		return 32
	}
	return 128
}

// Contains reports whether the prefix contains ip. Like netip, an IPv4
// address never matches an IPv6 prefix nor the reverse (4-in-6
// addresses included), and a zoned address matches nothing.
func (p Prefix) Contains(ip netip.Addr) bool {
	switch {
	case p.family == 4 && ip.Is4():
	case p.family == 6 && ip.Is6() && ip.Zone() == "":
	default:
		return false
	}
	hi, lo := words(ip)
	hi, lo = mask(hi, lo, int(p.bits))
	return hi == p.hi && lo == p.lo
}

// String returns the CIDR notation.
func (p Prefix) String() string { return netip.PrefixFrom(p.Addr(), p.Bits()).String() }

// Compare orders prefixes by address then by length; usable for sorting
// route tables into a stable display order. IPv4 sorts before IPv6.
func (p Prefix) Compare(q Prefix) int {
	if p.family != q.family {
		return cmp.Compare(p.family, q.family)
	}
	if p.hi != q.hi {
		return cmp.Compare(p.hi, q.hi)
	}
	if p.lo != q.lo {
		return cmp.Compare(p.lo, q.lo)
	}
	return cmp.Compare(p.bits, q.bits)
}

// Subnet returns the idx-th subnet of length newBits carved out of p.
// For example Subnet(2001:db8::/32, 48, 5) = 2001:db8:5::/48.
func (p Prefix) Subnet(newBits, idx int) (Prefix, error) {
	if !p.IsValid() || newBits < p.Bits() || newBits > p.maxBits() {
		return Prefix{}, fmt.Errorf("addr: cannot carve /%d from %v", newBits, p)
	}
	if idx < 0 {
		return Prefix{}, fmt.Errorf("addr: negative subnet index")
	}
	span := newBits - p.Bits()
	if span < 64 && uint64(idx) >= uint64(1)<<uint(span) {
		return Prefix{}, fmt.Errorf("addr: subnet index %d out of range for /%d in %v", idx, newBits, p)
	}
	// idx fills bits [p.Bits(), newBits) counting from the top, so its
	// lowest bit sits 128-newBits bits above the bottom of lo.
	q, x, s := p, uint64(idx), uint(128-newBits)
	q.bits = uint8(newBits)
	if s >= 64 {
		q.hi |= x << (s - 64)
	} else {
		q.hi |= x >> (64 - s)
		q.lo |= x << s
	}
	return q, nil
}

// Host returns the idx-th usable address inside the prefix (idx 0 is the
// network address itself; most scenarios use idx >= 1). The index is
// added to the low 64 bits of an IPv6 address and to the 32 bits of an
// IPv4 one, without carry; an address that leaves the prefix is an error.
func (p Prefix) Host(idx uint64) (netip.Addr, error) {
	h := p
	if p.family == 4 {
		h.hi = uint64(uint32(p.hi>>32)+uint32(idx)) << 32
	} else {
		h.lo += idx
	}
	a := h.Addr()
	if !p.Contains(a) {
		return netip.Addr{}, fmt.Errorf("addr: host index %d overflows %v", idx, p)
	}
	return a, nil
}
