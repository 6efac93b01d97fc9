// Package topo assembles simulated internets: it couples a BGP speaker to
// a forwarding node per AS, wires inter-AS links carrying both the data
// plane (simnet) and the control plane (bgp sessions), and keeps each
// node's FIB synchronized with its speaker's best routes.
package topo

import (
	"fmt"
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// AS is one autonomous system's point of presence: a forwarding node and
// a BGP speaker whose decisions program the node's FIB.
type AS struct {
	Name    string
	ASN     bgp.ASN
	Node    *simnet.Node
	Speaker *bgp.Speaker

	nhPort map[netip.Addr]*simnet.Port
}

// portFor resolves a BGP next hop to the output port toward that neighbor.
func (a *AS) portFor(nh netip.Addr) (*simnet.Port, bool) {
	p, ok := a.nhPort[nh]
	return p, ok
}

// Builder constructs a topology over one network/engine. It records every
// node it adds and every adjacency it wires, so a partition layout is read
// from what was built (MeshPartition), never from a second walk of a
// config.
type Builder struct {
	W       *simnet.Network
	linkSeq int
	nodes   []string
	edges   []PartEdge
}

// NewBuilder creates a builder over a fresh network seeded with seed and
// laid out by p (see PartitionGraph): every future node goes to its
// partition, and the coordinator synchronizes partitions at p.Lookahead.
// A layout of at most one partition — the zero Partition included — puts
// every node on one engine.
func NewBuilder(seed int64, p Partition) *Builder {
	if p.Parts <= 1 {
		return &Builder{W: simnet.New(seed)}
	}
	w := simnet.NewSharded(seed, p.Parts, p.Lookahead, func(name string) int {
		pi, ok := p.Part[name]
		if !ok {
			panic(fmt.Sprintf("topo: node %q missing from partition layout", name))
		}
		return pi
	})
	return &Builder{W: w}
}

// Eng returns partition 0's engine.
func (b *Builder) Eng() *sim.Engine { return b.W.Eng }

// AddAS creates an AS with the given clock offset on its node.
func (b *Builder) AddAS(name string, asn bgp.ASN, routerID uint32, clockOffset time.Duration) *AS {
	n := b.W.AddNode(name, clockOffset)
	b.nodes = append(b.nodes, name)
	sp := bgp.NewSpeaker(n.Eng(), name, asn, routerID)
	a := &AS{Name: name, ASN: asn, Node: n, Speaker: sp, nhPort: make(map[netip.Addr]*simnet.Port)}
	sp.OnBestChange = func(p addr.Prefix, best, old *bgp.Route) {
		a.applyBest(p, best)
	}
	return a
}

func (a *AS) applyBest(p addr.Prefix, best *bgp.Route) {
	if best == nil {
		a.Node.DelRoute(p)
		return
	}
	if best.FromSession == nil {
		// Locally originated: traffic for it is delivered locally
		// (tunnel endpoints are owned addresses), no FIB entry needed.
		return
	}
	port, ok := a.portFor(best.NextHop)
	if !ok {
		panic(fmt.Sprintf("topo: %s has no port toward next hop %v", a.Name, best.NextHop))
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
	// StripPrivateA2B strips private ASNs when A exports to B: set on a
	// provider's sessions toward the core when the customer announces
	// from a private ASN.
	StripPrivateA2B bool
	// ScrubA2B removes A's action communities when exporting to B
	// (after applying them), so operator knobs stay inside the
	// provider that offers them.
	ScrubA2B bool
	// AllowOwnASA enables allowas-in on A's side of the session.
	AllowOwnASA bool
}

// Wire links two ASes in both planes and returns the created link and the
// two sessions (A-side first).
func (b *Builder) Wire(x, y *AS, o WireOpts) (*simnet.Link, *bgp.Session, *bgp.Session) {
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
	// Whichever plane interacts first bounds how soon x and y can affect
	// each other: the data-plane delay floor or the BGP session delay.
	b.edges = append(b.edges, PartEdge{A: x.Name, B: y.Name,
		MinDelayAB: min(modelFloor(o.DelayAB), o.SessionDelay),
		MinDelayBA: min(modelFloor(o.DelayBA), o.SessionDelay)})
	link := b.W.Connect(x.Node, y.Node, o.DelayAB, o.DelayBA)

	// The two session endpoints are ::1 and ::2 of a link /64 of their
	// own, numbered in wiring order.
	lp, err := addr.MustParsePrefix("2001:db8:fe00::/40").Subnet(64, b.linkSeq)
	if err != nil {
		panic(err)
	}
	b.linkSeq++
	ipX := mustHost(lp, 1)
	ipY := mustHost(lp, 2)
	x.Node.AddAddr(ipX)
	y.Node.AddAddr(ipY)
	x.nhPort[ipY] = link.PortA()
	y.nhPort[ipX] = link.PortB()

	relBA := invert(o.RelAB)
	cfgX := bgp.SessionConfig{
		Relation:               o.RelAB,
		LocalAddr:              ipX,
		Delay:                  o.SessionDelay,
		MRAI:                   o.MRAI,
		StripPrivateASNs:       o.StripPrivateA2B,
		ScrubActionCommunities: o.ScrubA2B,
		AllowOwnAS:             o.AllowOwnASA,
	}
	cfgY := bgp.SessionConfig{
		Relation:  relBA,
		LocalAddr: ipY,
		Delay:     o.SessionDelay,
		MRAI:      o.MRAI,
	}
	sx, sy := bgp.Connect(x.Speaker, y.Speaker, cfgX, cfgY)
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

func mustHost(p addr.Prefix, i uint64) netip.Addr {
	ip, err := p.Host(i)
	if err != nil {
		panic(err)
	}
	return ip
}

// DefaultRoute installs a static default route from a toward its neighbor
// on the given link (used by single-homed edges). It reports an error if
// the link is not attached to the AS.
func DefaultRoute(a *AS, link *simnet.Link) error {
	var port *simnet.Port
	switch a.Node {
	case link.PortA().Node():
		port = link.PortA()
	case link.PortB().Node():
		port = link.PortB()
	default:
		return fmt.Errorf("topo: DefaultRoute: link %v-%v not attached to %s",
			link.PortA().Node().Name(), link.PortB().Node().Name(), a.Name)
	}
	a.Node.SetRoute(addr.MustParsePrefix("::/0"), port)
	a.Node.SetRoute(addr.MustParsePrefix("0.0.0.0/0"), port)
	return nil
}
