package addr

import "net/netip"

// Trie is a path-compressed (Patricia) longest-prefix-match trie mapping
// prefixes to arbitrary route values. It is the lookup structure behind
// every simulated router FIB and the data plane's peer and relay tables.
//
// A node keys on a prefix's words: it holds the key bits and their
// length, never a Prefix, and Lookup and Walk rebuild the Prefix from
// them. A node branches on the first bit past its key, so a chain of
// single-child levels is one node and n stored prefixes take at most
// 2n-1 nodes: a node that stores no value always has two children.
//
// The zero value is an empty trie ready for use. IPv4 and IPv6 prefixes
// coexist: IPv4 keys live in a separate root so that 10.0.0.0/8 never
// matches an IPv6 lookup.
//
// Trie is not safe for concurrent mutation; the simulator is
// single-goroutine so routers never need locking.
type Trie[V any] struct {
	root4, root6 *trieNode[V]
}

type trieNode[V any] struct {
	hi, lo uint64 // key: the top bits of the address, the rest zero
	bits   uint8  // key length
	set    bool   // val is a stored route; else the node only branches
	child  [2]*trieNode[V]
	val    V
}

// covers reports whether n's key is a prefix of the words (hi, lo).
func (n *trieNode[V]) covers(hi, lo uint64) bool {
	mhi, mlo := mask(hi, lo, int(n.bits))
	return mhi == n.hi && mlo == n.lo
}

// stored returns a childless node storing v for p.
func stored[V any](p Prefix, v V) *trieNode[V] {
	return &trieNode[V]{hi: p.hi, lo: p.lo, bits: p.bits, set: true, val: v}
}

func (t *Trie[V]) root(family uint8) **trieNode[V] {
	if family == 4 {
		return &t.root4
	}
	return &t.root6
}

// Insert adds or replaces the value for prefix p.
func (t *Trie[V]) Insert(p Prefix, v V) {
	if !p.IsValid() {
		panic("addr: Insert with invalid prefix")
	}
	at := t.root(p.family)
	for {
		n := *at
		if n == nil {
			*at = stored(p, v)
			return
		}
		c := min(commonBits(p.hi, p.lo, n.hi, n.lo), int(p.bits), int(n.bits))
		switch {
		case c == int(n.bits) && c == int(p.bits):
			n.set = true
			n.val = v
			return
		case c == int(n.bits):
			at = &n.child[bitAt(p.hi, p.lo, c)]
			continue
		case c == int(p.bits):
			// p covers n: p takes n's place and n hangs below it.
			m := stored(p, v)
			m.child[bitAt(n.hi, n.lo, c)] = n
			*at = m
		default:
			// p and n part at bit c: a branching node joins them.
			hi, lo := mask(p.hi, p.lo, c)
			b := &trieNode[V]{hi: hi, lo: lo, bits: uint8(c)}
			b.child[bitAt(p.hi, p.lo, c)] = stored(p, v)
			b.child[bitAt(n.hi, n.lo, c)] = n
			*at = b
		}
		return
	}
}

// Delete removes the exact prefix p, reporting whether it was present.
// It prunes as it goes: the node of p goes unless it still branches, and
// a branching node left with one child gives way to that child, so
// deleting what was inserted returns the trie to its earlier shape.
func (t *Trie[V]) Delete(p Prefix) bool {
	if !p.IsValid() {
		return false
	}
	var up **trieNode[V] // the link to n's parent
	at := t.root(p.family)
	for n := *at; n != nil && n.bits <= p.bits && n.covers(p.hi, p.lo); n = *at {
		if n.bits < p.bits {
			up, at = at, &n.child[bitAt(p.hi, p.lo, int(n.bits))]
			continue
		}
		if !n.set {
			return false
		}
		switch {
		case n.child[0] != nil && n.child[1] != nil:
			n.set = false
			var zero V
			n.val = zero
		case n.child[0] != nil:
			*at = n.child[0]
		case n.child[1] != nil:
			*at = n.child[1]
		default:
			*at = nil
			if up != nil && !(*up).set {
				// The parent only branched, and one branch is gone.
				parent := *up
				*up = parent.child[0]
				if *up == nil {
					*up = parent.child[1]
				}
			}
		}
		return true
	}
	return false
}

// Lookup returns the value of the longest prefix containing ip. It is
// the per-packet forwarding primitive, so the descent reads the address
// as two 64-bit words kept in registers. An invalid address matches
// nothing.
func (t *Trie[V]) Lookup(ip netip.Addr) (V, Prefix, bool) {
	var best *trieNode[V]
	n, family, max := t.root6, uint8(6), 128
	switch {
	case ip.Is4():
		n, family, max = t.root4, 4, 32
	case !ip.IsValid():
		n = nil
	}
	hi, lo := words(ip)
	for n != nil && n.covers(hi, lo) {
		if n.set {
			best = n
		}
		if int(n.bits) == max {
			break
		}
		n = n.child[bitAt(hi, lo, int(n.bits))]
	}
	if best == nil {
		var zero V
		return zero, Prefix{}, false
	}
	return best.val, best.prefix(family), true
}

func (n *trieNode[V]) prefix(family uint8) Prefix {
	return Prefix{hi: n.hi, lo: n.lo, bits: n.bits, family: family}
}
