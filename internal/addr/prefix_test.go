package addr

import (
	"cmp"
	"math/big"
	"math/rand"
	"net/netip"
	"testing"
)

func TestParsePrefixCanonicalizes(t *testing.T) {
	p, err := ParsePrefix("2001:db8::5/48")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "2001:db8::/48" {
		t.Fatalf("not masked: %v", p)
	}
	p4 := MustParsePrefix("10.1.2.3/8")
	if p4.String() != "10.0.0.0/8" {
		t.Fatalf("not masked: %v", p4)
	}
}

func TestParsePrefixError(t *testing.T) {
	if _, err := ParsePrefix("not-a-prefix"); err == nil {
		t.Fatal("expected error")
	}
	var zero Prefix
	if zero.IsValid() {
		t.Fatal("zero Prefix is valid")
	}
}

func TestSubnet(t *testing.T) {
	parent := MustParsePrefix("2001:db8::/32")
	cases := []struct {
		idx  int
		want string
	}{
		{0, "2001:db8::/48"},
		{1, "2001:db8:1::/48"},
		{5, "2001:db8:5::/48"},
		{255, "2001:db8:ff::/48"},
		{65535, "2001:db8:ffff::/48"},
	}
	for _, c := range cases {
		got, err := parent.Subnet(48, c.idx)
		if err != nil {
			t.Fatalf("Subnet(48,%d): %v", c.idx, err)
		}
		if got.String() != c.want {
			t.Fatalf("Subnet(48,%d) = %v, want %v", c.idx, got, c.want)
		}
	}
	if _, err := parent.Subnet(48, 65536); err == nil {
		t.Fatal("out-of-range subnet index accepted")
	}
	if _, err := parent.Subnet(16, 0); err == nil {
		t.Fatal("shorter-than-parent subnet accepted")
	}
	if _, err := parent.Subnet(48, -1); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestSubnetIPv4(t *testing.T) {
	parent := MustParsePrefix("10.0.0.0/8")
	got, err := parent.Subnet(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "10.3.0.0/16" {
		t.Fatalf("Subnet = %v, want 10.3.0.0/16", got)
	}
	same, err := parent.Subnet(8, 0)
	if err != nil || same != parent {
		t.Fatalf("Subnet(8,0) = %v, %v", same, err)
	}
	if _, err := parent.Subnet(8, 1); err == nil {
		t.Fatal("index 1 with zero span accepted")
	}
}

func TestHost(t *testing.T) {
	p := MustParsePrefix("2001:db8:5::/48")
	h, err := p.Host(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "2001:db8:5::1" {
		t.Fatalf("Host(1) = %v", h)
	}
	h256, err := p.Host(256)
	if err != nil {
		t.Fatal(err)
	}
	if h256.String() != "2001:db8:5::100" {
		t.Fatalf("Host(256) = %v", h256)
	}

	p4 := MustParsePrefix("192.168.1.0/24")
	h4, err := p4.Host(10)
	if err != nil {
		t.Fatal(err)
	}
	if h4.String() != "192.168.1.10" {
		t.Fatalf("Host(10) = %v", h4)
	}
	if _, err := p4.Host(256); err == nil {
		t.Fatal("overflowing host index accepted")
	}
}

func TestPrefixCompare(t *testing.T) {
	a := MustParsePrefix("2001:db8::/32")
	b := MustParsePrefix("2001:db8::/48")
	c := MustParsePrefix("2001:db9::/32")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Fatal("shorter prefix should sort first at same address")
	}
	if a.Compare(c) >= 0 {
		t.Fatal("lower address should sort first")
	}
	if a.Compare(a) != 0 {
		t.Fatal("self-compare nonzero")
	}
}

func TestPrefixAsMapKey(t *testing.T) {
	m := map[Prefix]int{}
	m[MustParsePrefix("2001:db8::1/48")] = 1
	m[MustParsePrefix("2001:db8::2/48")] = 2 // same canonical prefix
	if len(m) != 1 || m[MustParsePrefix("2001:db8::/48")] != 2 {
		t.Fatalf("canonicalization broken: %v", m)
	}
}

func TestPrefixFromInvalid(t *testing.T) {
	if _, err := PrefixFrom(netip.Addr{}, 8); err == nil {
		t.Fatal("invalid addr accepted")
	}
	if _, err := PrefixFrom(netip.MustParseAddr("10.0.0.1"), 64); err == nil {
		t.Fatal("overlong IPv4 prefix accepted")
	}
}

// randPrefix draws a prefix of a random family — IPv4, IPv6 or
// IPv4-mapped IPv6 — and length, favouring the edge lengths, with its
// netip counterpart.
func randPrefix(r *rand.Rand) (Prefix, netip.Prefix) {
	var ip netip.Addr
	var b [16]byte
	r.Read(b[:])
	switch r.Intn(3) {
	case 0:
		ip = netip.AddrFrom4([4]byte(b[:4]))
	case 1:
		ip = netip.AddrFrom16(b)
	default:
		ip = netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	}
	edges := []int{0, 1, 32, 48, 63, 64, 65, 127, 128}
	bits := r.Intn(ip.BitLen() + 1)
	if e := edges[r.Intn(len(edges))]; r.Intn(2) == 0 && e <= ip.BitLen() {
		bits = e
	}
	p, err := PrefixFrom(ip, bits)
	if err != nil {
		panic(err)
	}
	return p, netip.PrefixFrom(ip, bits).Masked()
}

// randAddrNear draws an address that often lies inside ref: ref's
// address with random host bits, sometimes of the other family or zoned.
func randAddrNear(r *rand.Rand, ref netip.Prefix) netip.Addr {
	var b [16]byte
	r.Read(b[:])
	switch r.Intn(6) {
	case 0:
		return netip.AddrFrom4([4]byte(b[:4]))
	case 1:
		return netip.AddrFrom16(b)
	case 2:
		return netip.AddrFrom16(b).WithZone("eth0")
	}
	if !ref.IsValid() {
		return netip.Addr{}
	}
	if r.Intn(4) == 0 {
		return ref.Addr().WithZone("eth0")
	}
	a := ref.Addr().AsSlice()
	host := ref.Addr().BitLen() - ref.Bits()
	for i := range host {
		bit := len(a)*8 - 1 - i
		a[bit/8] ^= byte(r.Intn(2)) << (7 - bit%8)
	}
	ip, _ := netip.AddrFromSlice(a)
	return ip
}

// netipCompare is the order Compare documents, over netip.
func netipCompare(p, q netip.Prefix) int {
	if c := p.Addr().Compare(q.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(p.Bits(), q.Bits())
}

// TestPrefixMatchesNetip holds every Prefix accessor to netip on random
// IPv4, IPv6 and 4-in-6 prefixes, the zero Prefix among them.
func TestPrefixMatchesNetip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ps []Prefix
	var refs []netip.Prefix
	for range 2000 {
		p, ref := randPrefix(r)
		ps, refs = append(ps, p), append(refs, ref)
	}
	ps, refs = append(ps, Prefix{}), append(refs, netip.Prefix{})
	for i, p := range ps {
		ref := refs[i]
		if p.String() != ref.String() || p.Addr() != ref.Addr() || p.Bits() != ref.Bits() || p.IsValid() != ref.IsValid() || p.Is6() != ref.Addr().Is6() {
			t.Fatalf("%v: Addr %v Bits %d valid %v IPv6 %v, netip %v: %v %d %v %v",
				p, p.Addr(), p.Bits(), p.IsValid(), p.Is6(), ref, ref.Addr(), ref.Bits(), ref.IsValid(), ref.Addr().Is6())
		}
		if ref.IsValid() {
			if back := MustParsePrefix(ref.String()); back != p {
				t.Fatalf("%v does not round-trip through its string", p)
			}
		}
		for range 20 {
			ip := randAddrNear(r, refs[r.Intn(len(refs))])
			if p.Contains(ip) != ref.Contains(ip) {
				t.Fatalf("%v.Contains(%v) = %v, netip says %v", p, ip, p.Contains(ip), ref.Contains(ip))
			}
		}
		for range 20 {
			j := r.Intn(len(ps))
			if got, want := p.Compare(ps[j]), netipCompare(ref, refs[j]); got != want {
				t.Fatalf("%v.Compare(%v) = %d, want %d", p, ps[j], got, want)
			}
			if (p == ps[j]) != (ref == refs[j]) {
				t.Fatalf("%v == %v disagrees with netip", p, ps[j])
			}
		}
	}
}

// TestSubnetMatchesArithmetic holds Subnet to big-integer arithmetic: the
// idx-th /newBits of p is p's address plus idx shifted to end at bit
// newBits, and it is refused when newBits is outside [p.Bits(), the
// family's length] or idx does not fit between the two.
func TestSubnetMatchesArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for range 5000 {
		p, ref := randPrefix(r)
		maxBits := ref.Addr().BitLen()
		newBits := ref.Bits() + r.Intn(maxBits-ref.Bits()+2) - r.Intn(2)
		span := newBits - ref.Bits()
		idx := r.Intn(4)
		if span > 2 && r.Intn(2) == 0 {
			idx = int(r.Int63n(int64(1) << min(span, 62)))
		}
		if r.Intn(8) == 0 {
			idx = -1
		}
		got, err := p.Subnet(newBits, idx)
		fits := span >= 63 || span >= 0 && idx < 1<<span
		if newBits < ref.Bits() || newBits > maxBits || idx < 0 || !fits {
			if err == nil {
				t.Fatalf("%v.Subnet(%d, %d) = %v, want an error", p, newBits, idx, got)
			}
			continue
		}
		a := ref.Addr().AsSlice()
		sum := new(big.Int).SetBytes(a)
		sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(idx)), uint(maxBits-newBits)))
		want, _ := netip.AddrFromSlice(sum.FillBytes(make([]byte, len(a))))
		if err != nil || got.Addr() != want || got.Bits() != newBits {
			t.Fatalf("%v.Subnet(%d, %d) = %v, %v; want %v/%d", p, newBits, idx, got, err, want, newBits)
		}
	}
	if _, err := (Prefix{}).Subnet(0, 0); err == nil {
		t.Fatal("the zero Prefix was subnetted")
	}
}
