package topo

import (
	"fmt"
	"time"
)

// PartEdge is one link of the partitioning graph: an undirected adjacency
// with possibly asymmetric per-direction minimum delays (the propagation
// floors of the two lines, folded with the BGP session delay when the
// adjacency carries one).
type PartEdge struct {
	A, B                   string
	MinDelayAB, MinDelayBA time.Duration
}

// minBoth returns the edge's conservative minimum: the earliest any event
// can cross the adjacency in either direction.
func (e PartEdge) minBoth() time.Duration {
	if e.MinDelayAB < e.MinDelayBA {
		return e.MinDelayAB
	}
	return e.MinDelayBA
}

// Partition assigns every node of a topology graph to one simulation
// partition and reports the conservative lookahead.
type Partition struct {
	// Part maps node name to partition index.
	Part map[string]int
	// Parts is the partition count (0 for an empty graph).
	Parts int
	// Lookahead is the minimum delay of any edge whose endpoints landed
	// in different partitions — the epoch length a conservative parallel
	// simulation may use. Zero when fewer than two partitions exist or no
	// edge crosses a boundary.
	Lookahead time.Duration
}

// DefaultCutFloor separates "same machine room" delays from wide-area
// ones: edges faster than this never cross a partition boundary, so the
// lookahead is always at least this large. Site-internal links (edge
// server to POP, 200 µs) stay intra-partition; wide-area trunks and
// peerings (≥ 1 ms floors) may be cut.
const DefaultCutFloor = time.Millisecond

// PartitionGraph groups nodes connected by edges faster than
// DefaultCutFloor into clusters (they must share an engine: their
// interactions are too fast to synchronize conservatively at a useful
// cadence); every cluster is one partition, numbered by first appearance
// in node order.
//
// The partition layout is a function of the topology only — never of the
// worker count driving the simulation — which is what makes 1-worker and
// N-worker runs produce identical event orders.
func PartitionGraph(nodes []string, edges []PartEdge) Partition {
	p := Partition{Part: make(map[string]int, len(nodes))}
	if len(nodes) == 0 {
		return p
	}
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		if _, dup := idx[n]; dup {
			panic(fmt.Sprintf("topo: PartitionGraph: duplicate node %q", n))
		}
		idx[n] = i
	}
	// Union-find over sub-floor edges.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	lookup := func(name string) int {
		i, ok := idx[name]
		if !ok {
			panic(fmt.Sprintf("topo: PartitionGraph: edge references unknown node %q", name))
		}
		return i
	}
	for _, e := range edges {
		a, b := lookup(e.A), lookup(e.B)
		if e.minBoth() < DefaultCutFloor {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Number clusters by first appearance in node order, so the layout is
	// stable under edge reordering.
	clusterOf := make(map[int]int)
	for i, n := range nodes {
		r := find(i)
		c, ok := clusterOf[r]
		if !ok {
			c = len(clusterOf)
			clusterOf[r] = c
		}
		p.Part[n] = c
	}
	p.Parts = len(clusterOf)

	// Lookahead: the tightest min delay crossing a partition boundary.
	if p.Parts > 1 {
		for _, e := range edges {
			if p.Part[e.A] == p.Part[e.B] {
				continue
			}
			if m := e.minBoth(); p.Lookahead == 0 || m < p.Lookahead {
				p.Lookahead = m
			}
		}
	}
	return p
}
