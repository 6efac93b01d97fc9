package addr

import (
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
