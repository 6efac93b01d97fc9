package simnet

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"tango/internal/packet"
	"tango/internal/sim"
)

// Network owns the nodes and links of one simulated internet, plus the
// packet-buffer pools every in-flight packet lives in. Its node set is
// partitioned over the engines of one sim.Coordinator, each partition
// with its own pool; a small network is one partition. Every pool is
// touched by exactly one goroutine at a time, because a cross-partition
// packet keeps its source-pool buffer until the epoch barrier, where its
// bytes move into a buffer leased from the destination pool.
type Network struct {
	// Eng is partition 0's engine (construction-time conveniences may use
	// it; per-node work must go through Node.Eng). On a one-partition
	// network it is the engine every node runs on.
	Eng     *sim.Engine
	Streams *sim.Streams

	nodes map[string]*Node
	links []*Link

	coord  *sim.Coordinator
	assign func(string) int
	pools  []*packet.BufPool
}

// New creates an empty one-partition network seeded with seed.
func New(seed int64) *Network {
	return NewSharded(seed, 1, 0, func(string) int { return 0 })
}

// NewSharded creates an empty network whose nodes are partitioned over
// parts engines under one coordinator. assign maps a node name to its
// partition (it must be total over every node subsequently added, and is
// a function of topology and seed only — never of the worker count).
// lookahead is the conservative horizon from the partitioner: no
// cross-partition link or session may interact faster than it.
func NewSharded(seed int64, parts int, lookahead time.Duration, assign func(string) int) *Network {
	if parts < 1 {
		panic("simnet: NewSharded needs at least one partition")
	}
	c := sim.NewCoordinator(parts, lookahead)
	w := &Network{
		Eng:     c.Part(0),
		Streams: sim.NewStreams(seed),
		nodes:   make(map[string]*Node),
		coord:   c,
		assign:  assign,
		pools:   make([]*packet.BufPool, parts),
	}
	for i := 0; i < parts; i++ {
		w.pools[i] = packet.NewBufPool()
	}
	return w
}

// Coord returns the coordinator that runs the network.
func (w *Network) Coord() *sim.Coordinator { return w.coord }

// LeasedBufs returns the outstanding buffer leases summed over every
// partition pool — the quantity the chaos buffer-balance invariant
// compares against packets in flight.
func (w *Network) LeasedBufs() uint64 {
	s := w.PoolStats()
	return s.Gets - s.Puts
}

// PoolStats returns the buffer-pool counters summed over every partition
// pool. On a leak-free network News stops moving once the pools have
// grown to the working set.
func (w *Network) PoolStats() packet.PoolStats {
	var s packet.PoolStats
	for _, p := range w.pools {
		s.Gets += p.Stats.Gets
		s.News += p.Stats.News
		s.Puts += p.Stats.Puts
		s.Discards += p.Stats.Discards
	}
	return s
}

// AddNode creates a node with the given wall-clock offset from virtual
// time. Duplicate names panic: scenario construction bugs should be loud.
func (w *Network) AddNode(name string, clockOffset time.Duration) *Node {
	if _, dup := w.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	part := w.assign(name)
	if part < 0 || part >= w.coord.NumParts() {
		panic(fmt.Sprintf("simnet: node %q assigned to partition %d of %d", name, part, w.coord.NumParts()))
	}
	eng := w.coord.Part(part)
	n := &Node{
		name:  name,
		net:   w,
		eng:   eng,
		part:  part,
		pool:  w.pools[part],
		clock: sim.NewClock(eng, clockOffset),
		owned: make(map[netip.Addr]bool),
	}
	w.nodes[name] = n
	return n
}

// Nodes returns all nodes sorted by name.
func (w *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(w.nodes))
	for _, n := range w.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Links returns all links in creation order.
func (w *Network) Links() []*Link { return w.links }

// Connect joins two nodes with a full-duplex link; ab is the delay model
// of the a-to-b direction and ba of the reverse (nil means no delay).
// Loss and capacity are set per direction on the lines (Line.SetLoss,
// Line.SetCapacity).
func (w *Network) Connect(a, b *Node, ab, ba DelayModel) *Link {
	if a.net != w || b.net != w {
		panic("simnet: Connect across networks")
	}
	if a == b {
		panic("simnet: self-link")
	}
	name := fmt.Sprintf("%s<->%s", a.name, b.name)
	l := &Link{name: name}
	pa, pb := newPort(a), newPort(b)
	l.a, l.b = pa, pb
	l.ab = newLine(pa, pb, ab, w.Streams.Stream(name+"/ab"))
	l.ba = newLine(pb, pa, ba, w.Streams.Stream(name+"/ba"))
	if a.part != b.part {
		w.checkCross(name, ab)
		w.checkCross(name, ba)
		l.ab.cross = true
		l.ba.cross = true
	}
	pa.out, pa.in = l.ab, l.ba
	pb.out, pb.in = l.ba, l.ab
	a.ports = append(a.ports, pa)
	b.ports = append(b.ports, pb)
	w.links = append(w.links, l)
	return l
}

func newPort(n *Node) *Port { return &Port{node: n, idx: len(n.ports)} }

func newLine(from, to *Port, dm DelayModel, rng *sim.RNG) *Line {
	if dm == nil {
		dm = FixedDelay(0)
	}
	return &Line{
		from:     from,
		to:       to,
		shaper:   NewShaper(dm),
		rngDelay: rng,
		rngLoss:  rng, // same stream: loss and delay draws interleave deterministically
	}
}

// checkCross validates one direction of a partition-crossing link: the
// conservative epoch scheme is only sound when every cross-partition
// packet is in flight for at least the lookahead. (Capacity only ever
// adds send-side delay on top of the propagation floor.)
func (w *Network) checkCross(name string, dm DelayModel) {
	la := w.coord.Lookahead()
	if la <= 0 {
		return
	}
	md, ok := dm.(MinDelayer)
	if !ok {
		panic(fmt.Sprintf("simnet: cross-partition link %s needs a delay model with a known minimum", name))
	}
	if md.MinDelay() < la {
		panic(fmt.Sprintf("simnet: cross-partition link %s min delay %v below lookahead %v",
			name, md.MinDelay(), la))
	}
}

// Run advances the simulation to the given virtual time.
func (w *Network) Run(until sim.Time) { w.coord.Run(until) }

// Now returns the shared virtual time between runs; an event reads its
// own node's engine instead.
func (w *Network) Now() sim.Time { return w.Eng.Now() }
