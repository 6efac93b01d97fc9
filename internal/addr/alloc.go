package addr

import "fmt"

// Alloc hands out consecutive subnets from a parent block. The paper's
// deployment carves an institutional IPv6 allocation into four /48s per
// site (one per exposed path) plus host-addressing prefixes; Alloc is the
// bookkeeping for that.
type Alloc struct {
	parent  Prefix
	nextSub map[int]int // subnet length -> next index
}

// NewAlloc returns an allocator over the given parent block.
func NewAlloc(parent Prefix) *Alloc {
	return &Alloc{parent: parent, nextSub: make(map[int]int)}
}

// NextSubnet returns the next unused subnet of the given length.
// Subnets of different lengths are allocated from independent counters;
// callers that mix lengths should allocate all of one length first or
// accept possible overlap (the Tango scenarios use a single length per
// allocator, typically /48).
func (a *Alloc) NextSubnet(bits int) (Prefix, error) {
	idx := a.nextSub[bits]
	p, err := a.parent.Subnet(bits, idx)
	if err != nil {
		return Prefix{}, fmt.Errorf("addr: allocator exhausted: %w", err)
	}
	a.nextSub[bits] = idx + 1
	return p, nil
}
