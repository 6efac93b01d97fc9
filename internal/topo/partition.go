package topo

import (
	"fmt"
	"time"
)

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

// PartitionGraph groups the nodes of g joined by edges faster than
// DefaultCutFloor into clusters (they must share an engine: their
// interactions are too fast to synchronize conservatively at a useful
// cadence); every cluster is one partition, numbered by first appearance
// in node order. An edge's Delay is the earliest either end can affect the
// other (see MeshScenario.Graph).
//
// The partition layout is a function of the topology only — never of the
// worker count driving the simulation — which is what makes 1-worker and
// N-worker runs produce identical event orders.
func PartitionGraph(g *ASGraph) Partition {
	p := Partition{Part: make(map[string]int, len(g.ASes))}
	// Union-find over sub-floor edges.
	parent := make([]int, len(g.ASes))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, e := range g.Edges {
		if e.Delay < DefaultCutFloor {
			ra, rb := find(e.A), find(e.B)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Number clusters by first appearance in node order, so the layout is
	// stable under edge reordering.
	clusterOf := make(map[int]int)
	for i, a := range g.ASes {
		if _, dup := p.Part[a.Name]; dup {
			panic(fmt.Sprintf("topo: PartitionGraph: duplicate node %q", a.Name))
		}
		r := find(i)
		c, ok := clusterOf[r]
		if !ok {
			c = len(clusterOf)
			clusterOf[r] = c
		}
		p.Part[a.Name] = c
	}
	p.Parts = len(clusterOf)

	// Lookahead: the tightest delay crossing a partition boundary.
	if p.Parts > 1 {
		for _, e := range g.Edges {
			if find(e.A) != find(e.B) && (p.Lookahead == 0 || e.Delay < p.Lookahead) {
				p.Lookahead = e.Delay
			}
		}
	}
	return p
}
