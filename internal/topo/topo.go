// Package topo assembles simulated internets: it couples a BGP speaker to
// a forwarding node per AS, wires inter-AS links carrying both the data
// plane (simnet) and the control plane (bgp sessions), and keeps each
// node's FIB synchronized with its speaker's best routes.
package topo

import (
	"fmt"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// AS is one autonomous system's point of presence: a forwarding node and
// a BGP speaker whose decisions program the node's FIB.
type AS struct {
	Name string
	ASN  bgp.ASN
	// Index numbers the AS in its builder's AddAS order: in a mesh, its
	// node in MeshScenario.Graph.
	Index   int
	Node    *simnet.Node
	Speaker *bgp.Speaker

	// ports maps each of the speaker's sessions to the output port of
	// the link it runs over: a learned route leaves by its session's.
	ports map[*bgp.Session]*simnet.Port
}

// Builder constructs a topology over one network/engine. It owns the
// network's prefix table: every speaker it adds numbers prefixes by it.
// It records no AS graph: a mesh's plan works out the graph and the
// prefixes before the build (see NewMeshScenario), so the layout comes
// first and the mesh is built once.
type Builder struct {
	W *simnet.Network

	tab   *bgp.Table
	nodes int // ASes added so far
}

// NewBuilder creates a builder over a fresh network seeded with seed and
// laid out by p (see PartitionGraph), whose speakers may originate the
// prefixes in universe and no others. Every future node goes to its
// partition, and the coordinator synchronizes partitions at p.Lookahead.
// A layout of at most one partition — the zero Partition included — puts
// every node on one engine.
func NewBuilder(seed int64, p Partition, universe []addr.Prefix) *Builder {
	tab := bgp.NewTable(universe...)
	if p.Parts <= 1 {
		return &Builder{W: simnet.New(seed), tab: tab}
	}
	w := simnet.NewSharded(seed, p.Parts, p.Lookahead, func(name string) int {
		pi, ok := p.Part[name]
		if !ok {
			panic(fmt.Sprintf("topo: node %q missing from partition layout", name))
		}
		return pi
	})
	return &Builder{W: w, tab: tab}
}

// Eng returns partition 0's engine.
func (b *Builder) Eng() *sim.Engine { return b.W.Eng }

// AddAS creates an AS with the given clock offset on its node.
func (b *Builder) AddAS(name string, asn bgp.ASN, routerID uint32, clockOffset time.Duration) *AS {
	n := b.W.AddNode(name, clockOffset)
	sp := bgp.NewSpeaker(n.Eng(), b.tab, name, asn, routerID)
	a := &AS{Name: name, ASN: asn, Index: b.nodes, Node: n, Speaker: sp, ports: make(map[*bgp.Session]*simnet.Port)}
	b.nodes++
	sp.OnBestChange = a.applyBest
	return a
}

func (a *AS) applyBest(p addr.Prefix, best bgp.Route) {
	if best.Attrs == nil {
		a.Node.DelRoute(p)
		return
	}
	if best.FromSession == nil {
		// Locally originated: traffic for it is delivered locally
		// (tunnel endpoints are owned addresses), no FIB entry needed.
		return
	}
	port, ok := a.ports[best.FromSession]
	if !ok {
		panic(fmt.Sprintf("topo: %s has no port for session %v", a.Name, best.FromSession))
	}
	a.Node.SetRoute(p, port)
}

// WireOpts configures one inter-AS adjacency.
type WireOpts struct {
	// RelAB is what B is to A (e.g. RelProvider: B provides transit to
	// A). The reverse relation is derived.
	RelAB bgp.Relation
	// DelayAB/DelayBA are the data-plane one-way delay models; nil
	// means a fixed 1 ms.
	DelayAB, DelayBA simnet.DelayModel
	// SessionDelay is the one-way control-plane message delay
	// (defaults to 10 ms).
	SessionDelay time.Duration
	// MRAI paces UPDATEs on both sides (defaults to 5 s — short enough
	// to keep discovery experiments brisk, long enough to batch).
	MRAI time.Duration
	// BorderA2B makes A's session to B a border session
	// (bgp.SessionConfig.Border): set on a provider's sessions toward
	// the core, it strips the customer's private ASN and scrubs A's
	// action communities.
	BorderA2B bool
	// AllowOwnASA enables allowas-in on A's side of the session.
	AllowOwnASA bool
}

// withDefaults fills o's unset delays and pacing.
func (o WireOpts) withDefaults() WireOpts {
	if o.DelayAB == nil {
		o.DelayAB = simnet.FixedDelay(time.Millisecond)
	}
	if o.DelayBA == nil {
		o.DelayBA = simnet.FixedDelay(time.Millisecond)
	}
	if o.SessionDelay == 0 {
		o.SessionDelay = 10 * time.Millisecond
	}
	if o.MRAI == 0 {
		o.MRAI = 5 * time.Second
	}
	return o
}

// edge is the graph adjacency of a wire from node a to node b with
// options o (defaults applied). Whichever plane and direction interacts
// first bounds how soon a and b can affect each other: a data-plane
// delay floor or the BGP session delay.
func (o WireOpts) edge(a, b int) GenEdge {
	return GenEdge{A: a, B: b, RelAB: o.RelAB,
		Delay: min(modelFloor(o.DelayAB), modelFloor(o.DelayBA), o.SessionDelay)}
}

// Wire links two ASes in both planes and returns the created link and the
// two sessions (A-side first).
func (b *Builder) Wire(x, y *AS, o WireOpts) (*simnet.Link, *bgp.Session, *bgp.Session) {
	o = o.withDefaults()
	link := b.W.Connect(x.Node, y.Node, o.DelayAB, o.DelayBA)
	cfgX := bgp.SessionConfig{
		Relation:   o.RelAB,
		Delay:      o.SessionDelay,
		MRAI:       o.MRAI,
		AllowOwnAS: o.AllowOwnASA,
		Border:     o.BorderA2B,
	}
	cfgY := bgp.SessionConfig{Relation: invert(o.RelAB), Delay: o.SessionDelay, MRAI: o.MRAI}
	sx, sy := bgp.Connect(x.Speaker, y.Speaker, cfgX, cfgY)
	x.ports[sx] = link.PortA()
	y.ports[sy] = link.PortB()
	return link, sx, sy
}

// modelFloor returns the known propagation minimum of a delay model;
// models without a declared floor are conservatively 0 (forcing their
// endpoints into one partition).
func modelFloor(dm simnet.DelayModel) time.Duration {
	if md, ok := dm.(simnet.MinDelayer); ok {
		return md.MinDelay()
	}
	return 0
}

func invert(r bgp.Relation) bgp.Relation {
	switch r {
	case bgp.RelCustomer:
		return bgp.RelProvider
	case bgp.RelProvider:
		return bgp.RelCustomer
	default:
		return bgp.RelPeer
	}
}
