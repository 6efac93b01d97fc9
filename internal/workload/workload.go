// Package workload generates the traffic the experiments measure: the
// paper's 10 ms per-path probes, constant-bit-rate application streams
// with ground-truth latency accounting, and an in-order (TCP-like)
// delivery model that turns a packet-delay trace into application-level
// latency (§5's head-of-line-blocking argument).
package workload

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"tango/internal/dataplane"
	"tango/internal/packet"
	"tango/internal/sim"
)

// Prober sends a small packet down every tunnel of a switch at a fixed
// interval — the paper "ran a ping along each path every 10 ms". Probes
// ride the tunnels like any data packet, so the receiver measures them
// with zero extra machinery (no ICMP, no protocol dependence).
type Prober struct {
	sw    *dataplane.Switch
	tick  *sim.Ticker
	inner []byte
	Sent  uint64
}

// NewProber starts probing every interval. src/dst address the inner
// probe packet (conventionally host addresses of the two sites).
func NewProber(eng *sim.Engine, sw *dataplane.Switch, src, dst netip.Addr, interval time.Duration) *Prober {
	p := &Prober{sw: sw}
	p.inner = packet.InnerUDP{Src: src, Dst: dst, SrcPort: 7, DstPort: 7}.New([]byte("tango-probe"))
	p.tick = sim.NewTicker(eng, interval, func(sim.Time) { p.probe() })
	return p
}

func (p *Prober) probe() {
	for _, tun := range p.sw.Tunnels() {
		p.sw.SendOnTunnel(tun, p.inner)
		p.Sent++
	}
}

// Stop halts probing.
func (p *Prober) Stop() { p.tick.Stop() }

// AppRecord is the ground-truth fate of one application packet.
type AppRecord struct {
	Seq     uint32
	SentAt  sim.Time
	RecvAt  sim.Time // 0 if lost
	Latency time.Duration
}

// AppGen emits a constant-rate application stream through the switch's
// normal sender path (so the controller's current choice carries it) and
// records ground-truth one-way latency in virtual time — the "user
// experience" the baselines and Tango are compared on.
type AppGen struct {
	sw   *dataplane.Switch
	tick *sim.Ticker

	seq    uint32
	sentAt map[uint32]sim.Time
	// template is the reused inner packet; seqAt views its first four
	// payload bytes, where emit stamps the sequence number.
	template, seqAt []byte

	// arrivals collects (seq, receive time) pairs touched only by the
	// receiving partition's goroutine, joined with sentAt in FinalRecords.
	arrivals []arrival
}

type arrival struct {
	seq uint32
	at  sim.Time
}

// AppPort is the inner UDP destination port that identifies AppGen
// traffic at the receiving site.
const AppPort = 7001

// NewAppGen starts a stream of payloadSize-byte packets every interval.
// Register SinkFor on the receiving site's delivery hook to complete the
// loop. payloadSize must be at least 4 bytes — the sequence number is
// stamped into the first 4 payload bytes — and NewAppGen panics
// otherwise.
func NewAppGen(eng *sim.Engine, sw *dataplane.Switch, src, dst netip.Addr, interval time.Duration, payloadSize int) *AppGen {
	if payloadSize < 4 {
		panic(fmt.Sprintf("workload: NewAppGen payload %dB cannot carry the 4-byte sequence number", payloadSize))
	}
	g := &AppGen{sw: sw, sentAt: make(map[uint32]sim.Time)}
	g.template = packet.InnerUDP{Src: src, Dst: dst, SrcPort: 7000, DstPort: AppPort}.New(make([]byte, payloadSize))
	_, g.seqAt, _ = packet.UDP6(g.template)
	g.tick = sim.NewTicker(eng, interval, func(now sim.Time) { g.emit(now) })
	return g
}

func (g *AppGen) emit(now sim.Time) {
	// SendToPeer borrows the slice (the switch serializes it into a
	// pooled buffer before returning), so the template is reused across
	// packets: stamp the sequence number into it in place.
	binary.BigEndian.PutUint32(g.seqAt, g.seq)
	g.sentAt[g.seq] = now
	g.seq++
	g.sw.SendToPeer(g.template)
}

// SinkFor returns a delivery sink bound to the receiving site's engine.
// Register it with the receiving site's switch (Site.AddSink /
// DeliverLocal); it claims AppGen packets, stamps their arrival with
// recvEng's clock and touches only receiver-owned state, so the
// receiving switch may live on another partition than the generator.
// Send and receive records are joined in FinalRecords.
func (g *AppGen) SinkFor(recvEng *sim.Engine) func(inner []byte) bool {
	return func(inner []byte) bool {
		dport, pay, ok := packet.UDP6(inner)
		if !ok || dport != AppPort || len(pay) < 4 {
			return false
		}
		g.arrivals = append(g.arrivals, arrival{seq: binary.BigEndian.Uint32(pay), at: recvEng.Now()})
		return true
	}
}

// Stop halts the stream.
func (g *AppGen) Stop() { g.tick.Stop() }

// FinalRecords returns every emitted packet ordered by send time, with
// in-flight/lost packets carrying RecvAt 0. Call after the simulation
// has drained (single-threaded: between runs). This is where staged
// arrivals are joined with the send log: the first arrival of a sequence
// number wins, duplicates and never-sent sequence numbers are dropped.
func (g *AppGen) FinalRecords() []AppRecord {
	out := make([]AppRecord, 0, len(g.sentAt))
	matched := make(map[uint32]bool, len(g.arrivals))
	for _, a := range g.arrivals {
		sent, ok := g.sentAt[a.seq]
		if !ok || matched[a.seq] {
			continue
		}
		matched[a.seq] = true
		out = append(out, AppRecord{Seq: a.seq, SentAt: sent, RecvAt: a.at, Latency: a.at - sent})
	}
	for seq, sent := range g.sentAt {
		if !matched[seq] {
			out = append(out, AppRecord{Seq: seq, SentAt: sent})
		}
	}
	slices.SortFunc(out, cmpRecords)
	return out
}

func cmpRecords(a, b AppRecord) int {
	switch {
	case a.SentAt != b.SentAt:
		if a.SentAt < b.SentAt {
			return -1
		}
		return 1
	case a.Seq != b.Seq:
		if a.Seq < b.Seq {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// InOrderLatencies converts a per-packet delay trace into in-order
// delivery latency, the quantity a TCP-like bytestream application
// experiences: packet n is usable only once packets 0..n-1 are usable, so
// one delayed packet holds up everything behind it (§5: "the
// application-layer data stream will be held up by the slow packet"). It
// takes records ordered by send time and returns the latency of each
// delivered packet; lost packets (RecvAt 0) are skipped.
func InOrderLatencies(recs []AppRecord) []time.Duration {
	out := make([]time.Duration, 0, len(recs))
	var readyAt sim.Time
	for _, r := range recs {
		if r.RecvAt == 0 {
			continue
		}
		if r.RecvAt > readyAt {
			readyAt = r.RecvAt
		}
		out = append(out, readyAt-r.SentAt)
	}
	return out
}
