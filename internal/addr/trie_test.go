package addr

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
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

// randTriePrefix draws a prefix from a small space, so that random sets
// nest, share keys and collide.
func randTriePrefix(r *rand.Rand) Prefix {
	if r.Intn(2) == 0 {
		ip := netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
		p, _ := PrefixFrom(ip, r.Intn(33))
		return p
	}
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = byte(r.Intn(2)), byte(r.Intn(4))
	b[4] = byte(r.Intn(256))
	p, _ := PrefixFrom(netip.AddrFrom16(b), r.Intn(65))
	return p
}

// Property: under random inserts, replacements and deletes (of stored
// and of absent prefixes), the trie agrees with a map: Delete reports
// presence, Len counts, Walk visits the map's prefixes in Compare order
// with their values, and Lookup matches a naive scan.
func TestTrieMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Trie[int]
		byPfx := map[Prefix]int{}
		for i := 0; i < 120; i++ {
			p := randTriePrefix(r)
			if r.Intn(3) == 0 {
				if len(byPfx) > 0 && r.Intn(2) == 0 {
					for q := range byPfx { // a stored prefix
						p = q
						break
					}
				}
				_, had := byPfx[p]
				if tr.Delete(p) != had {
					return false
				}
				delete(byPfx, p)
			} else {
				tr.Insert(p, i)
				byPfx[p] = i
			}
		}
		var entries []naiveEntry
		for p, v := range byPfx {
			entries = append(entries, naiveEntry{p, v})
		}
		slices.SortFunc(entries, func(a, b naiveEntry) int { return a.p.Compare(b.p) })
		var walked []naiveEntry
		tr.Walk(func(p Prefix, v int) bool { walked = append(walked, naiveEntry{p, v}); return true })
		if tr.Len() != len(byPfx) || !slices.Equal(walked, entries) {
			return false
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
			gotV, gotP, gotOK := tr.Lookup(ip)
			wantV, wantOK := naiveLookup(entries, ip)
			if gotOK != wantOK {
				return false
			}
			if gotOK && (gotV != wantV || byPfx[gotP] != gotV || !gotP.Contains(ip)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// nodes counts a trie's nodes, stored or branching.
func (t *Trie[V]) nodes() int {
	var count func(n *trieNode[V]) int
	count = func(n *trieNode[V]) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.child[0]) + count(n.child[1])
	}
	return count(t.root4) + count(t.root6)
}

// TestTrieChurnReturnsToStart: inserting 10 k prefixes into a populated
// trie and deleting them again, in another order, leaves exactly the
// nodes it started with, and n stored prefixes never take 2n nodes.
func TestTrieChurnReturnsToStart(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tr Trie[int]
	base := map[Prefix]bool{}
	for len(base) < 500 {
		p := randTriePrefix(r)
		base[p] = true
		tr.Insert(p, 0)
	}
	start := tr.nodes()
	var churn []Prefix
	seen := map[Prefix]bool{}
	for len(churn) < 10000 {
		var b [16]byte
		r.Read(b[:8])
		p, _ := PrefixFrom(netip.AddrFrom16(b), 16+r.Intn(49))
		if r.Intn(4) == 0 {
			p = randTriePrefix(r)
		}
		if base[p] || seen[p] {
			continue
		}
		seen[p] = true
		churn = append(churn, p)
		tr.Insert(p, 1)
	}
	if n := tr.Len(); n != len(base)+len(churn) || tr.nodes() >= 2*n {
		t.Fatalf("Len %d over %d nodes after inserting %d into %d", n, tr.nodes(), len(churn), len(base))
	}
	r.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
	for _, p := range churn {
		if !tr.Delete(p) {
			t.Fatalf("Delete(%v) missed", p)
		}
	}
	if tr.nodes() != start || tr.Len() != len(base) {
		t.Fatalf("after churn: %d nodes, Len %d; want %d and %d", tr.nodes(), tr.Len(), start, len(base))
	}
}

// TestTrieLookupEdges: a /0 matches every address of its family, a /32
// or /128 only its own address, and the invalid address nothing.
func TestTrieLookupEdges(t *testing.T) {
	var tr Trie[string]
	for _, s := range []string{"0.0.0.0/0", "10.1.2.3/32", "::/0", "2001:db8::1/128", "::ffff:10.0.0.0/104"} {
		tr.Insert(MustParsePrefix(s), s)
	}
	cases := []struct{ ip, want string }{
		{"10.1.2.3", "10.1.2.3/32"},
		{"10.1.2.4", "0.0.0.0/0"},
		{"2001:db8::1", "2001:db8::1/128"},
		{"2001:db8::2", "::/0"},
		{"::ffff:10.1.2.3", "::ffff:10.0.0.0/104"},
	}
	for _, c := range cases {
		v, p, ok := tr.Lookup(netip.MustParseAddr(c.ip))
		if !ok || v != c.want || p.String() != c.want {
			t.Fatalf("Lookup(%s) = %q %v %v, want %s", c.ip, v, p, ok, c.want)
		}
	}
	if _, _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Fatal("the invalid address matched")
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

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return len(t.Prefixes()) }

// Prefixes returns all stored prefixes sorted with Prefix.Compare.
func (t *Trie[V]) Prefixes() []Prefix {
	var out []Prefix
	t.Walk(func(p Prefix, _ V) bool { out = append(out, p); return true })
	return out
}

// Walk visits every stored (prefix, value) pair in Prefix.Compare order:
// a node's key is the smallest address below it, and it comes before the
// longer keys that share it. The callback may not mutate the trie.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	if walk(t.root4, 4, fn) {
		walk(t.root6, 6, fn)
	}
}

func walk[V any](n *trieNode[V], family uint8, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set && !fn(n.prefix(family), n.val) {
		return false
	}
	return walk(n.child[0], family, fn) && walk(n.child[1], family, fn)
}
