package addr

import (
	"encoding/binary"
	"net/netip"
	"sort"
)

// Trie is a binary (one bit per level) longest-prefix-match trie mapping
// prefixes to arbitrary route values. It is the lookup structure behind
// every simulated router FIB and BGP Loc-RIB view.
//
// The zero value is an empty trie ready for use. IPv4 and IPv6 prefixes
// coexist: IPv4 keys live in a separate root so that 10.0.0.0/8 never
// matches an IPv6 lookup.
//
// Trie is not safe for concurrent mutation; the simulator is
// single-goroutine so routers never need locking.
type Trie[V any] struct {
	root4, root6 *trieNode[V]
	size         int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
	// pfx is stored for iteration/deletion bookkeeping.
	pfx Prefix
}

// Insert adds or replaces the value for prefix p.
func (t *Trie[V]) Insert(p Prefix, v V) {
	if !p.IsValid() {
		panic("addr: Insert with invalid prefix")
	}
	root := t.rootFor(p.Addr(), true)
	n := root
	b := p.Addr().As16()
	base := 128 - p.Addr().BitLen()
	for i := 0; i < p.Bits(); i++ {
		bit := bitAt(b, base+i)
		if n.child[bit] == nil {
			n.child[bit] = &trieNode[V]{}
		}
		n = n.child[bit]
	}
	if !n.set {
		t.size++
	}
	n.val = v
	n.set = true
	n.pfx = p
}

// Delete removes the exact prefix p, reporting whether it was present.
// Interior nodes left empty are pruned lazily on later operations; the
// trie stays correct either way.
func (t *Trie[V]) Delete(p Prefix) bool {
	root := t.rootFor(p.Addr(), false)
	if root == nil {
		return false
	}
	n := root
	b := p.Addr().As16()
	base := 128 - p.Addr().BitLen()
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(b, base+i)]
		if n == nil {
			return false
		}
	}
	if !n.set {
		return false
	}
	n.set = false
	var zero V
	n.val = zero
	t.size--
	return true
}

// Lookup returns the value of the longest prefix containing ip. It is
// the per-packet forwarding primitive, so the descent reads the address
// as two 64-bit words kept in registers instead of indexing the byte
// array once per level.
func (t *Trie[V]) Lookup(ip netip.Addr) (V, Prefix, bool) {
	var best V
	var bestPfx Prefix
	found := false
	root := t.rootFor(ip, false)
	if root == nil {
		return best, bestPfx, false
	}
	n := root
	b := ip.As16()
	hi := binary.BigEndian.Uint64(b[:8])
	lo := binary.BigEndian.Uint64(b[8:])
	if n.set {
		best, bestPfx, found = n.val, n.pfx, true
	}
	base := 128 - ip.BitLen()
	for i := base; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = hi >> (63 - uint(i)) & 1
		} else {
			bit = lo >> (127 - uint(i)) & 1
		}
		n = n.child[bit]
		if n == nil {
			break
		}
		if n.set {
			best, bestPfx, found = n.val, n.pfx, true
		}
	}
	return best, bestPfx, found
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// Walk visits every stored (prefix, value) pair in address order. The
// callback may not mutate the trie.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	walk(t.root4, fn)
	walk(t.root6, fn)
}

func walk[V any](n *trieNode[V], fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set && !fn(n.pfx, n.val) {
		return false
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}

// Prefixes returns all stored prefixes sorted with Prefix.Compare.
func (t *Trie[V]) Prefixes() []Prefix {
	out := make([]Prefix, 0, t.size)
	t.Walk(func(p Prefix, _ V) bool { out = append(out, p); return true })
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (t *Trie[V]) rootFor(ip netip.Addr, create bool) *trieNode[V] {
	if ip.BitLen() == 32 {
		if t.root4 == nil && create {
			t.root4 = &trieNode[V]{}
		}
		return t.root4
	}
	if t.root6 == nil && create {
		t.root6 = &trieNode[V]{}
	}
	return t.root6
}

// bitAt returns bit i (0 = MSB of the 16-byte array) of b.
func bitAt(b [16]byte, i int) int {
	return int(b[i/8]>>(7-uint(i%8))) & 1
}
