package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sync/atomic"
	"time"

	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
)

// The flyweight flow table replaces the per-stream object model at edge
// scale: where an AppGen is a heap object with its own Ticker, a
// sentAt map entry per in-flight packet, and an unbounded record slice,
// a table flow is an index into two packed arrays — a sender-owned
// sendRec and a receiver-owned recvRec — scheduled in bulk on a
// sim.BatchWheel (one engine event drains a whole due-bucket of flows)
// and accounted in bulk through per-class obs histograms. The paper's
// §4.2 scalability claim ("the eBPF data path scales to edge traffic")
// and §5's per-class head-of-line-blocking argument both need traffic
// at this scale; per-stream objects cap out three orders of magnitude
// short of it.
//
// Shard ownership follows the rule both generators share (the receiving
// engine is named where the sink is wired, SinkFor), enforced
// structurally: everything a packet emission touches (sendRec, the
// wheel, endpoint templates, the free lists) belongs to the table's
// owner engine — the sending site's partition — and everything a
// delivery touches (that flow's recvRec) belongs to the receiving
// site's partition. A flow slot binds to one endpoint for the table's
// lifetime (free lists are per-endpoint), so across slot reuse a given
// recvRec is only ever touched by one receiving partition. The shared
// per-class counters and histograms are atomic, and their merges
// commute, so totals are identical at every worker count.

// Class enumerates the flyweight traffic classes. Each maps to one of
// the paper's application arguments: VoIP to the jitter-sensitivity
// analysis (E3), video to rate plus head-of-line blocking (E6's
// InOrderLatencies), bulk to TCP-like throughput traffic.
type Class uint8

const (
	ClassVoIP Class = iota
	ClassVideo
	ClassBulk

	// NumClasses sizes every per-class array.
	NumClasses = 3
)

// String returns the class's label ("voip", "video", "bulk").
func (c Class) String() string {
	switch c {
	case ClassVoIP:
		return "voip"
	case ClassVideo:
		return "video"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class-%d", uint8(c))
	}
}

// ClassSpec fixes one class's emission behavior.
type ClassSpec struct {
	// Interval is the emission period. For exact periodicity it should
	// be a multiple of the table's wheel granule (minimum interval / 8);
	// other values quantize up, deterministically.
	Interval time.Duration
	// Payload is the inner UDP payload size; at least flowHeaderLen
	// bytes (seq, flow word, virtual send timestamp).
	Payload int
}

// DefaultClasses returns the stock class set: 20 ms / 160 B VoIP
// frames, 10 ms / 1200 B video bursts, 40 ms / 1400 B bulk segments.
func DefaultClasses() [NumClasses]ClassSpec {
	return [NumClasses]ClassSpec{
		ClassVoIP:  {Interval: 20 * time.Millisecond, Payload: 160},
		ClassVideo: {Interval: 10 * time.Millisecond, Payload: 1200},
		ClassBulk:  {Interval: 40 * time.Millisecond, Payload: 1400},
	}
}

// FlowPort is the inner UDP destination port identifying flyweight flow
// traffic at the receiving site (distinct from AppPort so legacy
// generators and flow tables can share a deployment).
const FlowPort = 7002

// Flow header: the first flowHeaderLen bytes of the inner UDP payload.
//
//	[0:4)  per-flow sequence number
//	[4:8)  flow word: index (22 bits) | class (2 bits) | generation (8 bits)
//	[8:16) virtual send time, nanoseconds
//
// Carrying the send time in the packet is what makes receiver-side
// accounting self-contained: OWD is receiver-now minus the stamp (both
// virtual, so ground truth with no clock offset), and no sender-side
// sentAt map exists at all.
const (
	flowHeaderLen  = 16
	flowIdxBits    = 22
	flowIdxMask    = 1<<flowIdxBits - 1
	flowClassShift = flowIdxBits
	flowGenShift   = flowIdxBits + 2
)

func flowWord(idx int32, c Class, gen uint8) uint32 {
	return uint32(idx) | uint32(c)<<flowClassShift | uint32(gen)<<flowGenShift
}

// flowSrcPort derives a flow's inner UDP source port from its slot
// index: 1024 distinct ports starting clear of the well-known FlowPort
// and the tunnels' outer port range.
func flowSrcPort(i int32) uint16 { return 40000 + uint16(i&1023) }

// sendRec is the sender-owned half of a flow: 12 bytes, touched only by
// the table's owner engine.
type sendRec struct {
	seq       uint32
	emitsLeft uint32
	ep        uint16
	class     uint8
	gen       uint8 // incarnation; stamped into packets so the receiver
	// detects slot reuse (stale in-flight packets of a departed flow)
}

// recvRec is the receiver-owned half: 16 bytes, touched only by the
// flow's endpoint's receiving partition.
type recvRec struct {
	readyAt sim.Time // in-order frontier: max arrival among delivered packets
	rcvNext uint32   // next expected sequence
	gen     uint8
	seen    bool
}

// classCounters aggregate per class. Atomic because receive-side
// increments come from several receiving partitions; addition commutes,
// so totals are shard-invariant.
type classCounters struct {
	sent      atomic.Uint64
	delivered atomic.Uint64
	dups      atomic.Uint64 // duplicates and stale (departed-generation) deliveries
	gaps      atomic.Uint64 // sequence numbers skipped by the in-order frontier
	refused   atomic.Uint64 // Start calls rejected at capacity
}

// FlowClassStats is one class's aggregate counters.
type FlowClassStats struct {
	Sent, Delivered, Dups, Gaps, Refused uint64
}

// flowEndpoint is one (switch, src, dst) a table emits through, with a
// prebuilt inner-packet template per class and a view of each template's
// flow header, where emit stamps. src doubles as the table's
// claim filter: several tables can deliver into one site (an E13 mesh
// has one per sending site), and flow indices overlap across tables, so
// a sink claims a packet only when the inner source address matches the
// endpoint the packet's flow index is bound to.
type flowEndpoint struct {
	sw        *dataplane.Switch
	src       [16]byte
	tmpl, hdr [NumClasses][]byte
}

// FlowTable is an array-of-structs store of concurrent flows for one
// sending site. Flows are indices, not objects: starting, emitting,
// delivering, and departing a flow allocate nothing in steady state
// (the perf gate enforces 0 allocs/op on the emit and arrive/depart
// paths). Capacity is fixed at construction — the receiver-owned array
// must never be reallocated while receiving partitions hold references
// into it.
type FlowTable struct {
	eng     *sim.Engine
	wheel   *sim.BatchWheel
	classes [NumClasses]ClassSpec

	eps  []flowEndpoint
	send []sendRec
	recv []recvRec

	nextFree []int32 // per-slot free-list link
	freeHead []int32 // per-endpoint free-list head (slots rebind only within an endpoint)
	used     int32   // slots ever allocated
	active   int
	peak     int

	cc         [NumClasses]classCounters
	obsOWD     [NumClasses]*obs.Histogram
	obsInOrder [NumClasses]*obs.Histogram
}

// NewFlowTable builds a table for up to capacity concurrent flows. The
// wheel granule is the minimum class interval divided by 8 (floor 1 µs)
// and the ring horizon four times the maximum interval, so class
// intervals and start staggers below that bound always fit.
func NewFlowTable(eng *sim.Engine, classes [NumClasses]ClassSpec, capacity int) *FlowTable {
	if capacity <= 0 || capacity > flowIdxMask+1 {
		panic(fmt.Sprintf("workload: flow table capacity %d (max %d)", capacity, flowIdxMask+1))
	}
	minIv, maxIv := time.Duration(math.MaxInt64), time.Duration(0)
	for c, spec := range classes {
		if spec.Interval <= 0 {
			panic(fmt.Sprintf("workload: class %v interval %v", Class(c), spec.Interval))
		}
		if spec.Payload < flowHeaderLen {
			panic(fmt.Sprintf("workload: class %v payload %dB cannot carry the %d-byte flow header",
				Class(c), spec.Payload, flowHeaderLen))
		}
		if spec.Interval < minIv {
			minIv = spec.Interval
		}
		if spec.Interval > maxIv {
			maxIv = spec.Interval
		}
	}
	granule := minIv / 8
	if granule < time.Microsecond {
		granule = time.Microsecond
	}
	t := &FlowTable{
		eng:      eng,
		classes:  classes,
		send:     make([]sendRec, capacity),
		recv:     make([]recvRec, capacity),
		nextFree: make([]int32, capacity),
	}
	t.wheel = sim.NewBatchWheel(eng, granule, 4*maxIv, t.emit)
	t.wheel.Reserve(capacity)
	return t
}

// AddEndpoint registers a sending switch with inner src/dst addresses
// and returns the endpoint's index. Wiring-time only (it allocates the
// per-class templates).
func (t *FlowTable) AddEndpoint(sw *dataplane.Switch, src, dst netip.Addr) int {
	ep := flowEndpoint{sw: sw, src: src.As16()}
	for c := range t.classes {
		// The flow class rides the inner traffic-class byte so the
		// data plane (dataplane.ClassSelector) can steer per class
		// without parsing the Tango payload.
		h := packet.InnerUDP{Src: src, Dst: dst, SrcPort: 7000, DstPort: FlowPort, TrafficClass: uint8(c)}
		ep.tmpl[c] = h.New(make([]byte, t.classes[c].Payload))
		_, ep.hdr[c], _ = packet.UDP6(ep.tmpl[c])
	}
	t.eps = append(t.eps, ep)
	t.freeHead = append(t.freeHead, -1)
	return len(t.eps) - 1
}

// Eng returns the table's owner engine — the only engine Start, Stop,
// and StartArrivals may run on.
func (t *FlowTable) Eng() *sim.Engine { return t.eng }

// Active returns the number of live flows. Peak returns the high-water
// mark. Both are owner-engine state; read them between runs.
func (t *FlowTable) Active() int { return t.active }

// Peak returns the concurrent-flow high-water mark.
func (t *FlowTable) Peak() int { return t.peak }

// Start activates a flow on endpoint ep: class c, a lifetime of emits
// packets at the class interval, the first emission after delay. It
// returns the flow index, or -1 when no slot is available (counted in
// the class's Refused). Must run on the table's owner engine.
func (t *FlowTable) Start(ep int, c Class, emits uint32, delay time.Duration) int32 {
	if emits == 0 {
		panic("workload: FlowTable.Start with zero emits")
	}
	if c >= NumClasses {
		panic(fmt.Sprintf("workload: FlowTable.Start class %d", c))
	}
	var i int32
	if h := t.freeHead[ep]; h >= 0 {
		i = h
		t.freeHead[ep] = t.nextFree[h]
	} else if int(t.used) < len(t.send) {
		i = t.used
		t.used++
		t.send[i].ep = uint16(ep)
	} else {
		t.cc[c].refused.Add(1)
		return -1
	}
	f := &t.send[i]
	f.gen++ // stale in-flight packets of the previous incarnation are detectable
	f.seq = 0
	f.emitsLeft = emits
	f.class = uint8(c)
	t.active++
	if t.active > t.peak {
		t.peak = t.active
	}
	t.wheel.Add(i, t.eng.Now()+sim.Time(delay))
	return i
}

// emit is the wheel's drain callback: stamp the endpoint's class
// template in place and hand it to the switch's normal sender path
// (SendToPeer borrows the slice), then either re-arm or depart.
func (t *FlowTable) emit(now sim.Time, i int32) {
	f := &t.send[i]
	ep := &t.eps[f.ep]
	tmpl, hdr := ep.tmpl[f.class], ep.hdr[f.class]
	// Each flow stamps its own inner source port so hash-based selectors
	// (ECMP-style stickiness hashes addresses+ports) see distinct flows,
	// not one aggregate. The sink identifies flows by the flow word and
	// destination port, never the source port.
	packet.SetUDPSrcPort6(tmpl, flowSrcPort(i))
	binary.BigEndian.PutUint32(hdr[0:4], f.seq)
	binary.BigEndian.PutUint32(hdr[4:8], flowWord(i, Class(f.class), f.gen))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(now))
	f.seq++
	f.emitsLeft--
	t.cc[f.class].sent.Add(1)
	ep.sw.SendToPeer(tmpl)
	if f.emitsLeft == 0 {
		// Depart: the slot returns to its endpoint's free list (never
		// another endpoint's — the receiver partition owning recv[i]
		// must not change across reuse).
		t.nextFree[i] = t.freeHead[f.ep]
		t.freeHead[f.ep] = i
		t.active--
		return
	}
	t.wheel.Add(i, now+t.classes[f.class].Interval)
}

// SinkFor returns a delivery sink bound to the receiving partition's
// engine, the same shape as AppGen.SinkFor. Register it with
// the receiving site's switch (Site.AddSink / DeliverLocal); it claims
// flow-port packets belonging to this table and accounts OWD and
// in-order latency against the receiver's clock, touching only
// receiver-owned and atomic state.
func (t *FlowTable) SinkFor(recvEng *sim.Engine) func(inner []byte) bool {
	return func(inner []byte) bool { return t.sink(recvEng, inner) }
}

func (t *FlowTable) sink(recvEng *sim.Engine, inner []byte) bool {
	dport, hdr, ok := packet.UDP6(inner)
	if !ok || dport != FlowPort || len(hdr) < flowHeaderLen {
		return false
	}
	w := binary.BigEndian.Uint32(hdr[4:8])
	idx := int32(w & flowIdxMask)
	if int(idx) >= len(t.recv) {
		return false // another table's flow
	}
	if len(t.eps) > 0 {
		// A slot's endpoint binding is written once, before its first
		// emission, so reading it here is ordered by packet delivery.
		// Unclaimed slots keep ep 0 and fail the source match below
		// (another table's flow index landing in our range).
		e := int(t.send[idx].ep)
		if e >= len(t.eps) || packet.Src6(inner) != t.eps[e].src {
			return false
		}
	}
	c := Class(w>>flowClassShift) & 3
	if c >= NumClasses {
		return false // two bits can spell 3; no table emits it
	}
	gen := uint8(w >> flowGenShift)
	seq := binary.BigEndian.Uint32(hdr[0:4])
	sentAt := sim.Time(binary.BigEndian.Uint64(hdr[8:16]))
	now := recvEng.Now()
	owd := now - sentAt

	r := &t.recv[idx]
	if !r.seen || r.gen != gen {
		// First packet of a (re)incarnation. A straggler from the
		// previous generation arriving later is counted as stale (below)
		// rather than resurrected; generations are 8-bit, so aliasing
		// needs 256 reuses of one slot while a packet is in flight.
		if r.seen && int8(gen-r.gen) < 0 {
			t.cc[c].dups.Add(1) // stale: generation older than current
			return true
		}
		r.seen, r.gen = true, gen
		r.rcvNext = seq + 1
		r.readyAt = now
		t.cc[c].delivered.Add(1)
		if seq > 0 {
			t.cc[c].gaps.Add(uint64(seq))
		}
		t.obsOWD[c].Observe(int64(owd))
		t.obsInOrder[c].Observe(int64(owd))
		return true
	}
	switch {
	case seq < r.rcvNext:
		// Duplicate (or a late gap-filler the in-order frontier already
		// skipped — a TCP receiver treats both as spurious).
		t.cc[c].dups.Add(1)
		return true
	case seq == r.rcvNext:
		r.rcvNext++
	default:
		t.cc[c].gaps.Add(uint64(seq - r.rcvNext))
		r.rcvNext = seq + 1
	}
	t.cc[c].delivered.Add(1)
	if now > r.readyAt {
		r.readyAt = now
	}
	t.obsOWD[c].Observe(int64(owd))
	// The streaming in-order model: this packet is usable once every
	// earlier one has arrived (or been skipped), i.e. at the frontier.
	t.obsInOrder[c].Observe(int64(r.readyAt - sentAt))
	return true
}

// Instrument registers the per-class OWD and in-order latency
// histograms (nanoseconds of virtual time, so snapshots are
// shard-invariant) in reg under the site label. Call before traffic
// runs; without it latency goes unobserved (counters still aggregate).
func (t *FlowTable) Instrument(reg *obs.Registry, site string) {
	for c := 0; c < NumClasses; c++ {
		cl := Class(c).String()
		t.obsOWD[c] = reg.Histogram("tango_flow_owd_ns",
			"Per-class one-way delay of delivered flow packets (virtual ns).",
			obs.L("site", site), obs.L("class", cl))
		t.obsInOrder[c] = reg.Histogram("tango_flow_inorder_ns",
			"Per-class in-order (head-of-line) delivery latency (virtual ns).",
			obs.L("site", site), obs.L("class", cl))
	}
}

// OWDHistogram returns the class's one-way-delay histogram (nil before
// Instrument).
func (t *FlowTable) OWDHistogram(c Class) *obs.Histogram { return t.obsOWD[c] }

// InOrderHistogram returns the class's in-order latency histogram (nil
// before Instrument).
func (t *FlowTable) InOrderHistogram(c Class) *obs.Histogram { return t.obsInOrder[c] }

// ClassStats returns the class's aggregate counters. Sums are atomic
// and commute; read between runs for exact totals.
func (t *FlowTable) ClassStats(c Class) FlowClassStats {
	return FlowClassStats{
		Sent:      t.cc[c].sent.Load(),
		Delivered: t.cc[c].delivered.Load(),
		Dups:      t.cc[c].dups.Load(),
		Gaps:      t.cc[c].gaps.Load(),
		Refused:   t.cc[c].refused.Load(),
	}
}

// Totals sums ClassStats across classes.
func (t *FlowTable) Totals() FlowClassStats {
	var out FlowClassStats
	for c := Class(0); c < NumClasses; c++ {
		s := t.ClassStats(c)
		out.Sent += s.Sent
		out.Delivered += s.Delivered
		out.Dups += s.Dups
		out.Gaps += s.Gaps
		out.Refused += s.Refused
	}
	return out
}

// Stop halts all emission: pending wheel buckets are dropped and every
// flow departs. Counters and histograms keep their values.
func (t *FlowTable) Stop() {
	t.wheel.Stop()
	for ep := range t.freeHead {
		t.freeHead[ep] = -1
	}
	for i := int32(0); i < t.used; i++ {
		t.nextFree[i] = t.freeHead[t.send[i].ep]
		t.freeHead[t.send[i].ep] = i
	}
	t.active = 0
}

// ArrivalConfig shapes a seeded flow-arrival process: a fluid base rate
// with a flash-crowd spike. The fluid count (rate × quantum, fractional
// remainder carried) keeps arrivals exactly reproducible; randomness
// picks each arrival's class (uniformly), endpoint, and start stagger.
type ArrivalConfig struct {
	// Rate is the base arrival rate in flows per second of virtual time.
	Rate float64
	// Emits is each arriving flow's lifetime in packets (default 4).
	Emits uint32
	// FlashFactor, when > 1, multiplies the rate during
	// [FlashAt, FlashAt+FlashFor) — a flash crowd.
	FlashAt     sim.Time
	FlashFor    time.Duration
	FlashFactor float64
}

// arrivalQuantum is the generator tick: one engine event per quantum
// starts that quantum's whole arrival batch.
const arrivalQuantum = 10 * time.Millisecond

// Arrivals is a running arrival process on a table's owner engine.
type Arrivals struct {
	// Started counts flows started; Refused counts arrivals dropped at
	// table capacity.
	Started, Refused uint64

	t    *FlowTable
	rng  *sim.RNG
	cfg  ArrivalConfig
	tick *sim.Ticker
	acc  float64 // fractional arrivals carried between quanta
}

// StartArrivals begins a seeded arrival process driving this table.
// The rng must be dedicated to this process (draw order is part of the
// reproducible state).
func (t *FlowTable) StartArrivals(rng *sim.RNG, cfg ArrivalConfig) *Arrivals {
	if len(t.eps) == 0 {
		panic("workload: StartArrivals on a table with no endpoints")
	}
	if cfg.Emits == 0 {
		cfg.Emits = 4
	}
	a := &Arrivals{t: t, rng: rng, cfg: cfg}
	a.tick = sim.NewTicker(t.eng, arrivalQuantum, a.step)
	return a
}

// Stop halts the arrival process (flows already started run out their
// lifetimes).
func (a *Arrivals) Stop() { a.tick.Stop() }

func (a *Arrivals) step(now sim.Time) {
	rate := a.cfg.Rate
	if a.cfg.FlashFactor > 1 && now >= a.cfg.FlashAt && now < a.cfg.FlashAt+sim.Time(a.cfg.FlashFor) {
		rate *= a.cfg.FlashFactor
	}
	a.acc += rate * arrivalQuantum.Seconds()
	n := int(a.acc)
	a.acc -= float64(n)
	for k := 0; k < n; k++ {
		c := Class(a.rng.Intn(NumClasses))
		ep := a.rng.Intn(len(a.t.eps))
		stagger := time.Duration(a.rng.Int63n(int64(a.t.classes[c].Interval)))
		if a.t.Start(ep, c, a.cfg.Emits, stagger) < 0 {
			a.Refused++
			continue
		}
		a.Started++
	}
}
