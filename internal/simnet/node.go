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
	eng   *sim.Engine // the node's partition engine
	part  int
	pool  *packet.BufPool // the partition's buffer pool
	clock *sim.Clock

	fib   addr.Trie[*Port]
	owned map[netip.Addr]bool
	// fibCache memoizes full-address route decisions (localPort = owned,
	// nil = cached miss); any FIB mutation flushes it, and AddAddr drops
	// the claimed address. Real routers keep the same structure as a
	// host/route cache in front of the LPM table, and the simulated
	// traffic concentrates on a handful of destinations, so this turns
	// the per-packet owned check and bit-by-bit trie walk into one map
	// probe.
	fibCache map[netip.Addr]*Port
	ports    []*Port
	handler  Handler

	Stats NodeStats
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Clock returns the node's local wall clock.
func (n *Node) Clock() *sim.Clock { return n.clock }

// Eng returns the engine of the node's partition.
func (n *Node) Eng() *sim.Engine { return n.eng }

// Now returns the node's current event time: its partition engine's
// virtual time (transport.Endpoint surface).
func (n *Node) Now() sim.Time { return n.eng.Now() }

// Part returns the node's partition index.
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
func (n *Node) AddAddr(ip netip.Addr) {
	n.owned[ip] = true
	delete(n.fibCache, ip)
}

// SetRoute installs (or replaces) the FIB route for p via port. A FIB
// entry is one port: BGP installs one best route, and simulated routers
// forward IPv6 only (IPv4 rides inside Tango tunnels), so p must be an
// IPv6 prefix.
func (n *Node) SetRoute(p addr.Prefix, port *Port) {
	if port.node != n {
		panic(fmt.Sprintf("simnet: route on %s via foreign port %s", n.name, port.Name()))
	}
	if !p.Is6() {
		panic(fmt.Sprintf("simnet: route on %s for non-IPv6 prefix %v", n.name, p))
	}
	n.fib.Insert(p, port)
	clear(n.fibCache)
}

// DelRoute removes the FIB route for p, reporting whether it existed.
func (n *Node) DelRoute(p addr.Prefix) bool {
	clear(n.fibCache)
	return n.fib.Delete(p)
}

// lookupCached resolves dst through the route cache: localPort for an
// owned address, else the LPM trie's port (nil for none). It memoizes
// the result, misses included.
func (n *Node) lookupCached(dst netip.Addr) *Port {
	if port, ok := n.fibCache[dst]; ok {
		return port
	}
	var port *Port
	if n.owned[dst] {
		port = localPort
	} else if p, _, found := n.fib.Lookup(dst); found {
		port = p
	}
	if n.fibCache == nil {
		n.fibCache = make(map[netip.Addr]*Port)
	} else if len(n.fibCache) >= maxFIBCacheEntries {
		clear(n.fibCache) // bound memory under adversarial dst churn
	}
	n.fibCache[dst] = port
	return port
}

// localPort is the route cache's entry for an owned address.
var localPort = &Port{}

// maxFIBCacheEntries bounds the route cache; simulated traffic uses a
// handful of destinations, so the bound only matters for scans.
const maxFIBCacheEntries = 4096

// LookupRoute returns the output port of the FIB route matching ip.
func (n *Node) LookupRoute(ip netip.Addr) (*Port, addr.Prefix, bool) {
	return n.fib.Lookup(ip)
}

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

// route implements the forwarding pipeline: parse destination, one
// route-cache probe, then local delivery, no-route, hop limit, transmit.
// An unroutable packet is dropped before it is aged, so only a packet
// with an IPv6 route — the only kind SetRoute installs — is ever aged.
// It owns pb: every non-transmit exit releases the buffer (local
// delivery hands the handler a borrowed view first), and transmit passes
// ownership onward.
func (n *Node) route(from *Port, pb *packet.Buf) {
	data := pb.Bytes()
	dst, hop, ok := packet.Dst(data)
	if !ok {
		n.Stats.ParseErr++
		pb.Release()
		return
	}
	port := n.lookupCached(dst)
	switch {
	case port == localPort:
		n.Stats.Delivered++
		if n.handler != nil {
			n.handler(data)
		}
	case port == nil:
		n.Stats.NoRoute++
	case from != nil && hop <= 1:
		n.Stats.TTLExpired++
	default:
		if from != nil { // transit: age the packet
			packet.DecHopLimit(data)
		}
		port.transmit(pb)
		return
	}
	pb.Release()
}

// Schedule is a convenience for scheduling node-scoped work.
func (n *Node) Schedule(d time.Duration, fn func()) *sim.Event {
	return n.eng.Schedule(d, fn)
}
