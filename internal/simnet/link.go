package simnet

import (
	"fmt"
	"time"

	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
)

// LineStats counts one direction of a link.
type LineStats struct {
	Tx      uint64
	Rx      uint64
	Lost    uint64
	Dropped uint64 // refused at admission: the line was down
	Bytes   uint64
}

// Line is one direction of a Link: a delay model, an optional loss
// process, an optional capacity (serialization delay behind an unbounded
// queue — the TE layer's model), and an administrative up/down state.
type Line struct {
	from, to *Port
	shaper   *Shaper
	lossProb float64
	// capBps models bits-per-virtual-second serialization: packets are
	// never dropped, they just wait behind busyUntil (0 = infinite, no
	// serialization delay). All its state lives on the send side, so it
	// is legal on cross-partition lines.
	capBps    float64
	busyUntil sim.Time
	// utilMark/utilSince anchor the TakeUtilization window.
	utilMark  uint64
	utilSince sim.Time
	down      bool
	// cross marks a line whose endpoints live on different partitions of a
	// sharded network; deliveries then ride the coordinator's outboxes.
	cross bool

	rngDelay *sim.RNG
	rngLoss  *sim.RNG

	// obsName/obsDrop/journal are set by Instrument; the drop counter
	// and journal methods are nil-safe, so uninstrumented lines pay
	// nothing on the packet path.
	obsName string
	obsDrop *obs.Counter
	journal *obs.Journal

	Stats LineStats
}

// Instrument wires the line's drop accounting to an observability
// counter and, optionally, a trace journal: every packet refused at
// admission (the line is administratively down) increments the counter
// and appends a queue_drop record named after the line.
func (l *Line) Instrument(name string, drop *obs.Counter, j *obs.Journal) {
	l.obsName = name
	l.obsDrop = drop
	l.journal = j
}

// recordDrop accounts one admission drop to the instruments.
func (l *Line) recordDrop(size int) {
	if l.obsDrop == nil && l.journal == nil {
		return
	}
	l.obsDrop.Inc()
	l.journal.Record(l.from.node.eng.Now(), obs.KindQueueDrop, 0, 0, int64(size), l.obsName)
}

// Eng returns the engine owning this direction's send side — the from-
// node's partition engine. Events that mutate the line (shaper changes,
// admin flaps) must be scheduled here.
func (l *Line) Eng() *sim.Engine { return l.from.node.eng }

// Shaper returns the mutable delay shaper for this direction; scenario
// events use it to inject incidents.
func (l *Line) Shaper() *Shaper { return l.shaper }

// SetLoss sets the per-packet loss probability. Loss is sampled at send
// time: packets already in flight keep the fate they drew when sent.
func (l *Line) SetLoss(p float64) { l.lossProb = p }

// Loss returns the per-packet loss probability.
func (l *Line) Loss() float64 { return l.lossProb }

// SetDown sets the administrative state; a down line drops everything
// subsequently sent on it. Packets whose delivery events were already
// scheduled still arrive: admin state gates admission, not propagation.
func (l *Line) SetDown(down bool) { l.down = down }

// Down reports the administrative state.
func (l *Line) Down() bool { return l.down }

// SetCapacity sets the line's capacity in bits per virtual second, or
// disables it with 0. Capacity models serialization delay only: an
// overloaded line builds queueing delay, never drops. It must be set
// from the line's owning engine (or before the simulation starts).
func (l *Line) SetCapacity(bps float64) { l.capBps = bps }

// Capacity returns the line's capacity in bits per virtual second
// (0 = uncapacitated).
func (l *Line) Capacity() float64 { return l.capBps }

// TakeUtilization returns the line's mean utilization — offered bits
// over capacity×elapsed — since the previous call (or since the start
// of time), and restarts the window at now. It reads the send-side
// byte counter, so it must run on the line's owning engine (Eng).
// Uncapacitated lines and empty windows report 0.
func (l *Line) TakeUtilization(now sim.Time) float64 {
	bytes := l.Stats.Bytes - l.utilMark
	elapsed := now - l.utilSince
	l.utilMark = l.Stats.Bytes
	l.utilSince = now
	if l.capBps <= 0 || elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (l.capBps * elapsed.Seconds())
}

// InFlight returns the number of packets sent but not yet received:
// Tx counts admitted packets, of which Lost were dropped by the loss
// process at send time and Rx have arrived.
func (l *Line) InFlight() uint64 { return l.Stats.Tx - l.Stats.Lost - l.Stats.Rx }

// send moves a packet across this direction of the link. It takes
// ownership of pb: a dropped or lost packet is released here, a
// delivered one is handed to the engine as a closure-free payload event
// and released by the receiving node — so per-packet link traversal
// allocates nothing.
func (l *Line) send(pb *packet.Buf) {
	eng := l.from.node.eng
	if l.down {
		l.Stats.Dropped++
		l.recordDrop(pb.Len())
		pb.Release()
		return
	}
	// Tx counts only admitted packets, so Tx == Lost + Rx + InFlight
	// holds exactly (the chaos conservation invariant depends on it).
	size := pb.Len()
	now := eng.Now()
	l.Stats.Tx++
	l.Stats.Bytes += uint64(size)
	if l.rngLoss.Bernoulli(l.lossProb) {
		l.Stats.Lost++
		pb.Release()
		return
	}
	txDone := now
	if l.capBps > 0 {
		// Serialization delay with an unbounded queue. busyUntil is read
		// and written only here, on the send-side engine, and delay only
		// ever grows — so a cross-partition delivery still leaves at
		// least the propagation floor after txDone and the conservative
		// epoch scheme stays sound.
		ser := time.Duration(float64(size) * 8 / l.capBps * float64(time.Second))
		start := now
		if l.busyUntil > start {
			start = l.busyUntil
		}
		l.busyUntil = start + ser
		txDone = l.busyUntil
	}
	prop := l.shaper.Sample(now, l.rngDelay)
	if l.cross {
		l.sendCross(txDone+prop, pb)
		return
	}
	eng.ScheduleArgAt(txDone+prop, l, pb)
}

// sendCross stages a partition-crossing packet: the source-pool buffer
// itself rides the coordinator to the destination partition, and
// PrepareCross hands its bytes over to the destination pool there.
func (l *Line) sendCross(at sim.Time, pb *packet.Buf) {
	sim.CrossScheduleAt(l.from.node.eng, l.to.node.eng, at, l, pb)
}

// PrepareCross implements sim.CrossPrepper: it runs single-threaded at the
// barrier (or inline in coupled mode), so it may touch both partitions'
// pools. It moves the staged buffer's backing array into a buffer leased
// from the destination pool and releases the source buffer to its own.
func (l *Line) PrepareCross(arg any) any {
	return arg.(*packet.Buf).MoveTo(l.to.node.pool)
}

// OnSimEvent implements sim.ArgHandler: it is the arrival half of send,
// fired by the engine at the packet's delivery instant with the in-flight
// buffer as payload. Ownership of the buffer passes to the receiving
// node. On a cross line the event fires on the destination partition's
// engine; Rx and the delivery path touch destination-side state only
// (Tx/Lost/Bytes stay source-side words, so the two sides never race).
func (l *Line) OnSimEvent(arg any) {
	pb := arg.(*packet.Buf)
	l.Stats.Rx++
	l.to.node.deliverFromLink(l.to, pb)
}

// Port is a node's attachment to one end of a link.
type Port struct {
	node *Node
	// out is the direction leaving this port; in the one arriving.
	out *Line
	in  *Line
	idx int // port index on the node, for naming

	// route is the FIB entry of every route via this port alone, shared
	// by all of them, so installing one allocates only trie nodes; its
	// port list views self.
	route RouteEntry
	self  [1]*Port
}

// Node returns the owning node.
func (p *Port) Node() *Node { return p.node }

// Peer returns the node at the other end of the link.
func (p *Port) Peer() *Node { return p.out.to.node }

// Out returns the outgoing line (for delay/loss configuration).
func (p *Port) Out() *Line { return p.out }

// In returns the incoming line.
func (p *Port) In() *Line { return p.in }

// Name returns "node:idx".
func (p *Port) Name() string { return fmt.Sprintf("%s:%d", p.node.name, p.idx) }

// transmit hands a packet (ownership included) to the outgoing line.
func (p *Port) transmit(pb *packet.Buf) { p.out.send(pb) }

// Link is a full-duplex connection between two nodes, with an independent
// Line per direction (the paper measures one-way behaviour precisely
// because the two directions of a wide-area path differ).
type Link struct {
	name string
	a, b *Port
	ab   *Line // a -> b
	ba   *Line // b -> a
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// PortA and PortB return the two attachment points.
func (l *Link) PortA() *Port { return l.a }

// PortB returns the b-side attachment point.
func (l *Link) PortB() *Port { return l.b }

// LineAB returns the a-to-b direction.
func (l *Link) LineAB() *Line { return l.ab }

// LineBA returns the b-to-a direction.
func (l *Link) LineBA() *Line { return l.ba }

// LineFrom returns the direction leaving the given node.
func (l *Link) LineFrom(n *Node) *Line {
	switch n {
	case l.a.node:
		return l.ab
	case l.b.node:
		return l.ba
	}
	panic("simnet: LineFrom with node not on link")
}
