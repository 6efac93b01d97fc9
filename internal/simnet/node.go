package simnet

import (
	"fmt"
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/transport"
)

// Handler consumes packets delivered locally to a node (the destination
// address is owned by the node). The data slice is a borrow: it views a
// pooled packet buffer that the node releases as soon as the handler
// returns, so a handler that wants to keep bytes must copy them. It is
// the transport-level delivery callback: Node is the simulated backend
// of transport.Endpoint, and the handler contract is owned there.
type Handler = transport.Handler

// Node implements transport.Endpoint: the dataplane drives a simulated
// node through exactly the surface a real-socket backend provides.
var _ transport.Endpoint = (*Node)(nil)

// NodeStats counts per-node data-plane activity.
type NodeStats struct {
	Sent       uint64 // packets originated here
	Forwarded  uint64 // packets transited
	Delivered  uint64 // packets consumed locally
	NoRoute    uint64 // dropped: no FIB entry
	TTLExpired uint64
	ParseErr   uint64
}

// Node is a host or router. Routers forward by longest-prefix match over
// the FIB; hosts additionally own addresses and consume packets via the
// Handler. One Node typically models one AS point of presence: the paper's
// topology has one border router per transit provider plus the two Tango
// servers.
type Node struct {
	name  string
	net   *Network
	eng   *sim.Engine // the node's partition engine (the network engine when unsharded)
	part  int
	pool  *packet.BufPool // the partition's buffer pool
	clock *sim.Clock

	fib   addr.Trie[*RouteEntry]
	owned map[netip.Addr]bool
	// fibCache memoizes full-address FIB lookups (nil = cached miss);
	// any FIB mutation flushes it. Real routers keep the same structure
	// as a host/route cache in front of the LPM table, and the simulated
	// traffic concentrates on a handful of destinations, so this turns
	// the per-packet bit-by-bit trie walk into one map probe.
	fibCache map[netip.Addr]*RouteEntry
	ports    []*Port
	handler  Handler

	Stats NodeStats
}

// RouteEntry is a FIB entry: one or more equal-cost output ports. With
// several ports the node hashes the packet's flow (ECMP) to pick one —
// the behaviour Tango's fixed outer UDP tuple is designed to pin down.
type RouteEntry struct {
	Ports []*Port
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Clock returns the node's local wall clock.
func (n *Node) Clock() *sim.Clock { return n.clock }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Eng returns the engine of the node's partition (the network engine on
// an unsharded network).
func (n *Node) Eng() *sim.Engine { return n.eng }

// Now returns the node's current event time: its partition engine's
// virtual time (transport.Endpoint surface).
func (n *Node) Now() sim.Time { return n.eng.Now() }

// Part returns the node's partition index (0 on an unsharded network).
func (n *Node) Part() int { return n.part }

// Pool returns the buffer pool of the node's partition. Components that
// originate packets from this node must lease from it — never from
// another partition's pool.
func (n *Node) Pool() *packet.BufPool { return n.pool }

// Ports returns the node's attachment points in creation order.
func (n *Node) Ports() []*Port { return n.ports }

// SetHandler installs the local-delivery callback.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// AddAddr marks ip as owned: packets to ip are delivered locally.
// Tunnels may share a local address; claiming it twice is harmless.
func (n *Node) AddAddr(ip netip.Addr) { n.owned[ip] = true }

// OwnsAddr reports whether ip is local to this node.
func (n *Node) OwnsAddr(ip netip.Addr) bool { return n.owned[ip] }

// SetRoute installs (or replaces) a FIB route for p via the given ports.
func (n *Node) SetRoute(p addr.Prefix, ports ...*Port) {
	if len(ports) == 0 {
		panic("simnet: SetRoute with no ports")
	}
	for _, pt := range ports {
		if pt.node != n {
			panic(fmt.Sprintf("simnet: route on %s via foreign port %s", n.name, pt.Name()))
		}
	}
	n.fib.Insert(p, &RouteEntry{Ports: ports})
	clear(n.fibCache)
}

// DelRoute removes the FIB route for p, reporting whether it existed.
func (n *Node) DelRoute(p addr.Prefix) bool {
	clear(n.fibCache)
	return n.fib.Delete(p)
}

// lookupCached resolves dst through the route cache, falling back to the
// LPM trie and memoizing the result (including misses).
func (n *Node) lookupCached(dst netip.Addr) *RouteEntry {
	if ent, ok := n.fibCache[dst]; ok {
		return ent
	}
	ent, _, found := n.fib.Lookup(dst)
	if !found {
		ent = nil
	}
	if n.fibCache == nil {
		n.fibCache = make(map[netip.Addr]*RouteEntry)
	} else if len(n.fibCache) >= maxFIBCacheEntries {
		clear(n.fibCache) // bound memory under adversarial dst churn
	}
	n.fibCache[dst] = ent
	return ent
}

// maxFIBCacheEntries bounds the route cache; simulated traffic uses a
// handful of destinations, so the bound only matters for scans.
const maxFIBCacheEntries = 4096

// LookupRoute returns the FIB entry matching ip.
func (n *Node) LookupRoute(ip netip.Addr) (*RouteEntry, addr.Prefix, bool) {
	return n.fib.Lookup(ip)
}

// FIBLen returns the number of installed routes.
func (n *Node) FIBLen() int { return n.fib.Len() }

// Inject originates a packet from this node: it is routed exactly as if
// it had arrived from a local application. The bytes are copied into a
// pooled buffer (the caller keeps ownership of data); components on the
// fast path serialize directly into a leased buffer and use InjectBuf
// instead, which copies nothing.
func (n *Node) Inject(data []byte) {
	pb := n.pool.Get()
	pb.SetBytes(data)
	n.InjectBuf(pb)
}

// InjectBuf originates a packet held in a pooled buffer, taking ownership
// of pb: the network releases it when the packet is consumed (delivered,
// dropped, or lost), and the caller must not touch pb afterwards.
func (n *Node) InjectBuf(pb *packet.Buf) {
	n.Stats.Sent++
	n.route(nil, pb)
}

// deliverFromLink is called when a packet arrives on one of the node's
// ports after traversing a link. Ownership of pb passes to the node.
func (n *Node) deliverFromLink(from *Port, pb *packet.Buf) {
	n.route(from, pb)
}

// route implements the forwarding pipeline: parse destination, local
// delivery check, TTL, LPM, ECMP port choice, transmit. It owns pb:
// every non-transmit exit releases the buffer (local delivery hands the
// handler a borrowed view first), and transmit passes ownership onward.
func (n *Node) route(from *Port, pb *packet.Buf) {
	data := pb.Bytes()
	dst, hop, ok := packet.Dst(data)
	if !ok {
		n.Stats.ParseErr++
		pb.Release()
		return
	}
	if n.owned[dst] {
		n.Stats.Delivered++
		if n.handler != nil {
			n.handler(data)
		}
		pb.Release()
		return
	}
	if from != nil { // transit: decrement hop limit
		if hop <= 1 {
			n.Stats.TTLExpired++
			pb.Release()
			return
		}
		packet.DecHopLimit(data)
		n.Stats.Forwarded++
	}
	ent := n.lookupCached(dst)
	if ent == nil {
		n.Stats.NoRoute++
		pb.Release()
		return
	}
	port := ent.Ports[0]
	if len(ent.Ports) > 1 {
		port = ent.Ports[packet.FlowHash(data)%uint32(len(ent.Ports))]
	}
	port.transmit(pb)
}

// Schedule is a convenience for scheduling node-scoped work.
func (n *Node) Schedule(d time.Duration, fn func()) *sim.Event {
	return n.eng.Schedule(d, fn)
}
