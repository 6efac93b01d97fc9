package addr

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestTrieBasicLPM(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("2001:db8::/32"), "aggregate")
	tr.Insert(MustParsePrefix("2001:db8:5::/48"), "tunnel5")
	tr.Insert(MustParsePrefix("::/0"), "default")

	cases := []struct {
		ip   string
		want string
	}{
		{"2001:db8:5::1", "tunnel5"},
		{"2001:db8:6::1", "aggregate"},
		{"2001:db9::1", "default"},
	}
	for _, c := range cases {
		v, _, ok := tr.Lookup(netip.MustParseAddr(c.ip))
		if !ok || v != c.want {
			t.Fatalf("Lookup(%s) = %q,%v want %q", c.ip, v, ok, c.want)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
}

func TestTrieFamiliesSeparate(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), "v4default")
	tr.Insert(MustParsePrefix("::/0"), "v6default")
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "v4net")

	if v, _, _ := tr.Lookup(netip.MustParseAddr("10.1.2.3")); v != "v4net" {
		t.Fatalf("v4 lookup = %q", v)
	}
	if v, _, _ := tr.Lookup(netip.MustParseAddr("2001::1")); v != "v6default" {
		t.Fatalf("v6 lookup = %q", v)
	}
}

func TestTrieNoMatch(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("2001:db8::/32"), 1)
	if _, _, ok := tr.Lookup(netip.MustParseAddr("2002::1")); ok {
		t.Fatal("lookup outside stored prefixes matched")
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("v4 lookup in v6-only trie matched")
	}
}

func TestTrieReplaceAndDelete(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
	if v, got, ok := tr.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || v != 2 || got != p {
		t.Fatalf("Lookup = %d,%v,%v", v, got, ok)
	}
	if !tr.Delete(p) {
		t.Fatal("Delete reported missing")
	}
	if tr.Delete(p) {
		t.Fatal("second Delete reported present")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("deleted prefix still matches")
	}
}

func TestTrieDeleteKeepsCoveringRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("2001:db8::/32"), "agg")
	tr.Insert(MustParsePrefix("2001:db8:5::/48"), "specific")
	tr.Delete(MustParsePrefix("2001:db8:5::/48"))
	v, pfx, ok := tr.Lookup(netip.MustParseAddr("2001:db8:5::1"))
	if !ok || v != "agg" || pfx.String() != "2001:db8::/32" {
		t.Fatalf("fallback lookup = %q %v %v", v, pfx, ok)
	}
}

func TestTrieDeleteExact(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("2001:db8::/32"), 7)
	if tr.Delete(MustParsePrefix("2001:db8::/48")) {
		t.Fatal("Delete matched a non-inserted more-specific")
	}
	if tr.Delete(MustParsePrefix("2001:db8::/16")) {
		t.Fatal("Delete matched a non-inserted less-specific")
	}
	if v, _, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != 7 || tr.Len() != 1 {
		t.Fatalf("stored prefix disturbed: %d,%v len %d", v, ok, tr.Len())
	}
}

func TestTrieWalkAndPrefixes(t *testing.T) {
	var tr Trie[int]
	ins := []string{"10.0.0.0/8", "10.1.0.0/16", "2001:db8::/32", "::/0"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), i)
	}
	seen := map[string]bool{}
	tr.Walk(func(p Prefix, v int) bool {
		seen[p.String()] = true
		return true
	})
	if len(seen) != len(ins) {
		t.Fatalf("Walk visited %d, want %d", len(seen), len(ins))
	}
	ps := tr.Prefixes()
	if len(ps) != len(ins) {
		t.Fatalf("Prefixes len = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Compare(ps[i]) >= 0 {
			t.Fatalf("Prefixes not sorted: %v", ps)
		}
	}
	// Early-exit walk.
	count := 0
	tr.Walk(func(Prefix, int) bool { count++; return false })
	if count > 2 { // at most one hit per family root path
		t.Fatalf("Walk ignored early exit: %d", count)
	}
}

// naiveLPM is the reference implementation for the property test.
type naiveEntry struct {
	p Prefix
	v int
}

func naiveLookup(entries []naiveEntry, ip netip.Addr) (int, bool) {
	best := -1
	bestBits := -1
	for i, e := range entries {
		if (e.p.Addr().BitLen() == ip.BitLen()) && e.p.Contains(ip) && e.p.Bits() > bestBits {
			best, bestBits = i, e.p.Bits()
		}
	}
	if best < 0 {
		return 0, false
	}
	return entries[best].v, true
}

// Property: trie lookup agrees with a naive scan over random prefix sets.
func TestTrieMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Trie[int]
		var entries []naiveEntry
		byPfx := map[Prefix]int{}
		for i := 0; i < 40; i++ {
			var p Prefix
			if r.Intn(2) == 0 {
				ip := netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
				p, _ = PrefixFrom(ip, r.Intn(33))
			} else {
				var b [16]byte
				b[0], b[1] = 0x20, 0x01
				b[2], b[3] = byte(r.Intn(2)), byte(r.Intn(4))
				b[4] = byte(r.Intn(256))
				ip := netip.AddrFrom16(b)
				p, _ = PrefixFrom(ip, r.Intn(65))
			}
			tr.Insert(p, i)
			byPfx[p] = i
		}
		for p, v := range byPfx {
			entries = append(entries, naiveEntry{p, v})
		}
		// Random probes, biased toward the inserted space.
		for i := 0; i < 200; i++ {
			var ip netip.Addr
			if r.Intn(2) == 0 {
				ip = netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
			} else {
				var b [16]byte
				b[0], b[1] = 0x20, 0x01
				b[2], b[3] = byte(r.Intn(2)), byte(r.Intn(4))
				b[4] = byte(r.Intn(256))
				b[15] = byte(r.Intn(256))
				ip = netip.AddrFrom16(b)
			}
			gotV, _, gotOK := tr.Lookup(ip)
			wantV, wantOK := naiveLookup(entries, ip)
			if gotOK != wantOK {
				return false
			}
			if gotOK && gotV != wantV {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAlloc(t *testing.T) {
	a := NewAlloc(MustParsePrefix("2001:db8::/32"))
	p0, err0 := a.NextSubnet(48)
	p1, err1 := a.NextSubnet(48)
	if err0 != nil || err1 != nil || p0.String() != "2001:db8::/48" || p1.String() != "2001:db8:1::/48" {
		t.Fatalf("subnets = %v (%v), %v (%v)", p0, err0, p1, err1)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := NewAlloc(MustParsePrefix("10.0.0.0/30"))
	for i := 0; i < 4; i++ {
		if _, err := a.NextSubnet(32); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := a.NextSubnet(32); err == nil {
		t.Fatal("exhausted allocator succeeded")
	}
}

func ExampleTrie() {
	var fib Trie[string]
	fib.Insert(MustParsePrefix("2001:db8::/32"), "via NTT")
	fib.Insert(MustParsePrefix("2001:db8:5::/48"), "via GTT")
	nh, _, _ := fib.Lookup(netip.MustParseAddr("2001:db8:5::1"))
	fmt.Println(nh)
	// Output: via GTT
}
