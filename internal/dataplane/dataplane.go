// Package dataplane implements the Tango border-switch data plane — the
// role the paper fills with eBPF programs (or, in the full architecture,
// programmable switches).
//
// The sender side classifies traffic destined for the cooperating edge
// network, selects a wide-area path, and encapsulates the packet in an
// outer IPv6 + UDP + Tango header carrying a path ID, per-path sequence
// number, and a local-clock timestamp. The fixed outer 5-tuple per tunnel
// pins any ECMP hashing inside transit providers, so each tunnel measures
// exactly one wide-area path.
//
// The receiver side recognizes Tango traffic by the outer UDP port,
// computes the one-way delay (receiver clock minus embedded timestamp —
// offset by the constant clock skew, which cancels in path comparisons),
// feeds sequence numbers to loss/reorder tracking, strips the
// encapsulation, and forwards the inner packet toward the end host.
// Measurement data can also be piggybacked back to the peer on ordinary
// data packets via the Tango header's report block, so neither side ever
// sends dedicated probe traffic unless it wants to.
package dataplane

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"tango/internal/addr"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
	"tango/internal/transport"
)

// Tunnel is one unidirectional wide-area path to the peer switch: traffic
// sent to RemoteAddr transits the provider path that prefix was announced
// over.
type Tunnel struct {
	PathID uint8
	// Name labels the path for reports (e.g. the transit provider:
	// "NTT", "GTT").
	Name string
	// LocalAddr and RemoteAddr are the outer tunnel endpoints; each
	// lives in a prefix announced over a specific provider path.
	LocalAddr, RemoteAddr netip.Addr
	// SrcPort fixes the outer UDP source port (ECMP pinning).
	SrcPort uint16

	seq uint32

	Stats struct {
		Sent uint64
		// ProbeSent counts the subset of Sent injected via SendOnTunnel
		// (measurement probes). Sent - ProbeSent is therefore the data
		// traffic steered here by the selector — the quantity chaos
		// invariants watch on a dead path, where probing must continue
		// but data must not.
		ProbeSent uint64
	}
}

// DataSent returns the number of selector-steered (non-probe) packets
// sent on this tunnel.
func (t *Tunnel) DataSent() uint64 { return t.Stats.Sent - t.Stats.ProbeSent }

// nextSeq returns the tunnel's next sequence number.
func (t *Tunnel) nextSeq() uint32 {
	s := t.seq
	t.seq++
	return s
}

// Measurement is the receiver-side observation for one arriving packet.
type Measurement struct {
	At     sim.Time
	PathID uint8
	// OWD is the raw one-way delay in the receiver's clock domain:
	// true wide-area delay plus the (constant) clock offset between the
	// two switches. Comparisons between paths are exact; the absolute
	// value is not.
	OWD time.Duration
	Seq uint32
	// Size is the outer packet length in bytes.
	Size int
}

// Selector picks the tunnel for an outbound packet. The controller
// installs its policy here; inner packet bytes allow application-specific
// routing (e.g. by traffic class or port).
type Selector func(inner []byte) *Tunnel

// Switch is one Tango border switch: it runs the sender program for
// host traffic leaving the site and the receiver program for Tango
// traffic arriving from the wide area.
type Switch struct {
	ep    transport.Endpoint
	clock *sim.Clock

	tunnels   []*Tunnel // indexed lookup by PathID
	tunnelIDs map[uint8]*Tunnel

	// peerHosts marks inner destination prefixes reachable through the
	// cooperating switch ("a table which can be statically configured
	// as both endpoints are cooperating", §3).
	peerHosts addr.Trie[bool]

	// relayHosts marks inner destination prefixes reachable through an
	// overlay relay beyond the direct peer, mapped to the relay-TTL
	// budget to stamp on the encapsulation (the number of remaining
	// overlay segments). Checked after peerHosts, so the direct peer's
	// prefixes always take the single-segment path.
	relayHosts addr.Trie[uint8]

	// relay, when set, is consulted for arriving relay-tagged packets
	// before local delivery.
	relay *Relay

	selector Selector

	// OnMeasure receives every receiver-side observation.
	OnMeasure func(Measurement)
	// OnReport receives piggybacked reverse-path reports.
	OnReport func(packet.OWDReport)
	// DeliverLocal consumes decapsulated inner packets. The slice is a
	// borrowed view of the arriving packet's pooled buffer, valid only
	// until the callback returns; consumers that keep bytes must copy
	// them (see DESIGN.md, "Fast path & buffer ownership").
	DeliverLocal func(inner []byte)

	// authKey, when set, makes the sender sign every Tango datagram and
	// the receiver drop anything unsigned or failing verification —
	// before the measurement engine can be polluted (§6, trustworthy
	// telemetry). Both switches of a pair must share the key.
	authKey []byte

	// pendingReports ride out one per encapsulated packet (FIFO). A
	// bounded queue rather than a single slot: with sparse outbound
	// traffic a slot aliases against the reporter's round-robin and can
	// starve some paths of feedback entirely. Stored as a ring so the
	// drop-oldest overflow policy reuses the same storage forever
	// instead of migrating a slice down its backing array.
	pendingReports  [maxPendingReports]packet.OWDReport
	prHead, prCount int

	// pool leases the buffers outgoing packets are serialized into; the
	// encapsulated packet is handed to the network with ownership, so
	// the sender program never allocates in steady state.
	pool *packet.BufPool

	// Preallocated decode layers.
	decIP  packet.IPv6
	decUDP packet.UDP
	decTng packet.Tango

	Stats struct {
		Encapped     uint64
		Decapped     uint64
		BadPacket    uint64
		NoTunnel     uint64
		AuthFail     uint64
		ReportsSent  uint64
		ReportsRecvd uint64
		// Relayed counts arriving packets handed to the relay program
		// (forwarded onward or dropped by its TTL guard) instead of
		// delivered locally.
		Relayed uint64
	}

	// sobs is the instrument set every Stats word is counted beside:
	// the registered one after Instrument, the shared all-nil noObs
	// before. Instrument methods are nil-safe, so neither program asks
	// which it holds.
	sobs *switchObs
}

// switchObs is the instrument set Instrument registers. Per-tunnel and
// per-path instruments are indexed by path ID so the hot path reaches
// them with one array load; slots register at AddTunnel time (tx/probe/
// data) or on first arrival (rx), never per packet in steady state.
// With no registry (noObs) nothing ever registers and every slot stays
// nil.
type switchObs struct {
	reg  *obs.Registry
	site string

	encapNs, decapNs    *obs.Histogram
	encapped, decapped  *obs.Counter
	badPacket, noTunnel *obs.Counter
	authFail, relayed   *obs.Counter
	repSent, repRecvd   *obs.Counter
	tx, probe, data, rx [256]*obs.Counter
}

// noObs is what an uninstrumented switch counts into. It is shared and
// never written: with a nil registry addTunnel and rxCounter leave it be.
var noObs = &switchObs{}

// count is the one way an event is counted: the Stats word and the
// instrument beside it (ROADMAP 9: Stats stays until benchmark/ reads
// the counters instead, which ROADMAP 1(a) does).
func count(word *uint64, c *obs.Counter) {
	*word++
	c.Inc()
}

// Instrument registers the switch's metrics in reg under the given site
// label and starts updating them alongside Stats. Tunnels already added
// get their per-tunnel counters immediately; later AddTunnel calls
// register theirs on the way in. Safe to call once, before traffic.
func (s *Switch) Instrument(reg *obs.Registry, site string) {
	so := &switchObs{reg: reg, site: site}
	l := obs.L("site", site)
	so.encapNs = reg.Timer("tango_dataplane_encap_ns",
		"Wall-clock latency of the sender program (classify, encapsulate, checksum, inject), nanoseconds; sampled 1 in 8, each sample counted 8 times.", l)
	so.decapNs = reg.Timer("tango_dataplane_decap_ns",
		"Wall-clock latency of the receiver program (parse, verify, measure, decap, deliver), nanoseconds; sampled 1 in 8, each sample counted 8 times.", l)
	so.encapped = reg.Counter("tango_dataplane_encapped_total", "Packets encapsulated by the sender program.", l)
	so.decapped = reg.Counter("tango_dataplane_decapped_total", "Tango packets decapsulated by the receiver program.", l)
	so.badPacket = reg.Counter("tango_dataplane_bad_packets_total", "Packets dropped as unparsable or unserializable.", l)
	so.noTunnel = reg.Counter("tango_dataplane_no_tunnel_total", "Packets dropped because no tunnel was available.", l)
	so.authFail = reg.Counter("tango_dataplane_auth_fail_total", "Tango datagrams dropped by telemetry authentication.", l)
	so.relayed = reg.Counter("tango_dataplane_relayed_total", "Arriving packets handed to the relay program.", l)
	so.repSent = reg.Counter("tango_dataplane_reports_sent_total", "Piggybacked measurement reports sent.", l)
	so.repRecvd = reg.Counter("tango_dataplane_reports_recvd_total", "Piggybacked measurement reports received.", l)
	s.sobs = so
	for _, t := range s.tunnels {
		so.addTunnel(t.PathID)
	}
}

// addTunnel registers the sender-side per-tunnel counters for a path ID.
func (so *switchObs) addTunnel(id uint8) {
	if so.reg == nil {
		return
	}
	ls := []obs.Label{obs.L("site", so.site), obs.L("path", strconv.Itoa(int(id)))}
	so.tx[id] = so.reg.Counter("tango_tunnel_tx_total", "Packets sent on this tunnel (probes plus data).", ls...)
	so.probe[id] = so.reg.Counter("tango_tunnel_probe_total", "Measurement probes sent on this tunnel.", ls...)
	so.data[id] = so.reg.Counter("tango_tunnel_data_total", "Selector-steered data packets sent on this tunnel.", ls...)
}

// rxCounter returns (registering on first use) the receiver-side
// arrival counter for a path ID.
func (so *switchObs) rxCounter(id uint8) *obs.Counter {
	if so.rx[id] == nil && so.reg != nil {
		so.rx[id] = so.reg.Counter("tango_tunnel_rx_total", "Tango packets arriving on this path.",
			obs.L("site", so.site), obs.L("path", strconv.Itoa(int(id))))
	}
	return so.rx[id]
}

// NewSwitch attaches a Tango switch to a transport endpoint — a simnet
// node (virtual time) or a real-socket backend (wall clock); the switch
// cannot tell them apart. It takes over the endpoint's local-delivery
// handler.
func NewSwitch(ep transport.Endpoint) *Switch {
	s := &Switch{
		ep:        ep,
		clock:     ep.Clock(),
		tunnelIDs: make(map[uint8]*Tunnel),
		pool:      ep.Pool(),
		sobs:      noObs,
	}
	s.DeliverLocal = func(inner []byte) {} // dropped unless the site wires a host side
	ep.SetHandler(s.handle)
	return s
}

// AddTunnel registers a path. The tunnel's local endpoint address is
// claimed on the node so arriving outer packets are delivered here.
func (s *Switch) AddTunnel(t *Tunnel) {
	if _, dup := s.tunnelIDs[t.PathID]; dup {
		panic(fmt.Sprintf("dataplane: duplicate tunnel path id %d", t.PathID))
	}
	s.tunnels = append(s.tunnels, t)
	s.tunnelIDs[t.PathID] = t
	s.ep.AddAddr(t.LocalAddr)
	s.sobs.addTunnel(t.PathID)
}

// Tunnels returns the registered tunnels in registration order.
func (s *Switch) Tunnels() []*Tunnel { return s.tunnels }

// Tunnel returns the tunnel with the given path ID.
func (s *Switch) Tunnel(pathID uint8) (*Tunnel, bool) {
	t, ok := s.tunnelIDs[pathID]
	return t, ok
}

// AddPeerPrefix marks an inner destination prefix as reachable via the
// cooperating switch.
func (s *Switch) AddPeerPrefix(p addr.Prefix) { s.peerHosts.Insert(p, true) }

// AddRelayPrefix marks an inner destination prefix as reachable through
// an overlay relay: matching host traffic is encapsulated toward the
// direct peer with the relay extension set and the given TTL budget
// (normally the number of overlay segments on the route).
func (s *Switch) AddRelayPrefix(p addr.Prefix, ttl uint8) { s.relayHosts.Insert(p, ttl) }

// SetSelector installs the path-selection policy. With none installed the
// first registered tunnel carries everything.
func (s *Switch) SetSelector(sel Selector) { s.selector = sel }

// SetAuthKey enables authenticated telemetry: outgoing Tango datagrams
// are signed (truncated HMAC-SHA256 over header, report, and inner
// packet) and incoming ones must verify or they are dropped uncounted.
// Pass nil to disable. Both sides must share the key.
func (s *Switch) SetAuthKey(key []byte) {
	s.authKey = append([]byte(nil), key...)
	if len(key) == 0 {
		s.authKey = nil
	}
}

// maxPendingReports bounds the piggyback queue; overflow drops the
// oldest report (newer observations supersede stale ones).
const maxPendingReports = 16

// QueueReport schedules a reverse-path measurement report to piggyback on
// upcoming outbound encapsulated packets (one per packet, FIFO, bounded).
func (s *Switch) QueueReport(r packet.OWDReport) {
	if s.prCount == maxPendingReports {
		s.prHead = (s.prHead + 1) % maxPendingReports // drop oldest in place
		s.prCount--
	}
	s.pendingReports[(s.prHead+s.prCount)%maxPendingReports] = r
	s.prCount++
}

// popReport dequeues the oldest pending report.
func (s *Switch) popReport() packet.OWDReport {
	r := s.pendingReports[s.prHead]
	s.prHead = (s.prHead + 1) % maxPendingReports
	s.prCount--
	return r
}

// PendingReports returns the number of queued piggyback reports.
func (s *Switch) PendingReports() int { return s.prCount }

// SendToPeer runs the sender program on an inner packet: pick a tunnel,
// encapsulate, timestamp, inject. Exposed for hosts colocated with the
// switch; transit host traffic goes through the node handler. inner is
// borrowed: its bytes are serialized into a pooled buffer during the
// call, so the caller may reuse the slice immediately.
func (s *Switch) SendToPeer(inner []byte) {
	s.encapAndSend(inner, 0)
}

// SendOnTunnel encapsulates inner onto a specific tunnel, bypassing the
// selector. The measurement prober uses it to exercise every exposed
// path at a fixed rate regardless of where data traffic currently flows.
func (s *Switch) SendOnTunnel(tun *Tunnel, inner []byte) {
	s.encapOn(tun, inner, 0, true)
}

// handle is the endpoint's local-delivery hook: every packet addressed to
// one of the endpoint's owned addresses lands here.
func (s *Switch) handle(data []byte) {
	if packet.IsTango(data) {
		s.receiverProgram(data)
		return
	}
	s.DeliverLocal(data)
}

// HandleHostTraffic is the sender-side entry for traffic originated by
// local hosts: if the destination belongs to the cooperating edge, it is
// tunnelled; otherwise it is forwarded untouched (ordinary BGP routing).
func (s *Switch) HandleHostTraffic(data []byte) {
	dst, _, ok := packet.Dst(data)
	if !ok {
		s.badPacket()
		return
	}
	if _, _, tango := s.peerHosts.Lookup(dst); tango {
		s.encapAndSend(data, 0)
		return
	}
	if ttl, _, ok := s.relayHosts.Lookup(dst); ok {
		s.encapAndSend(data, ttl)
		return
	}
	s.ep.Inject(data)
}

// encapAndSend lets the selector pick the tunnel. A relayTTL above zero
// tags the encapsulation for overlay relaying with that hop budget.
func (s *Switch) encapAndSend(inner []byte, relayTTL uint8) {
	var tun *Tunnel
	if s.selector != nil {
		tun = s.selector(inner)
	} else if len(s.tunnels) > 0 {
		tun = s.tunnels[0]
	}
	s.encapOn(tun, inner, relayTTL, false)
}

// encapOn is the sender eBPF program: stamp path ID, sequence number and
// local clock, attach a pending report, encapsulate, inject. probe marks
// measurement traffic (SendOnTunnel) as opposed to selector-steered
// data, for the per-tunnel probe/data split.
func (s *Switch) encapOn(tun *Tunnel, inner []byte, relayTTL uint8, probe bool) {
	so := s.sobs
	t0 := so.encapNs.Start()
	if tun == nil {
		count(&s.Stats.NoTunnel, so.noTunnel)
		return
	}
	hdr := packet.Tango{
		Flags:    packet.TangoFlagSeq | packet.TangoFlagTimestamp,
		PathID:   tun.PathID,
		Seq:      tun.nextSeq(),
		SendTime: s.clock.Now(),
	}
	if packet.Version(inner) == 6 {
		hdr.Flags |= packet.TangoFlagInner6
	}
	if relayTTL > 0 {
		hdr.ExtFlags |= packet.TangoExtRelay
		hdr.RelayTTL = relayTTL
	}
	if s.prCount > 0 {
		hdr.Flags |= packet.TangoFlagReport
		hdr.Report = s.popReport()
		count(&s.Stats.ReportsSent, so.repSent)
	}
	if s.authKey != nil {
		hdr.ExtFlags |= packet.TangoExtAuth
	}
	udp := packet.UDP{SrcPort: tun.SrcPort, DstPort: packet.TangoPort}
	udp.SetNetworkForChecksum(tun.LocalAddr, tun.RemoteAddr)
	ip := packet.IPv6{
		NextHeader: packet.ProtoUDP,
		HopLimit:   64,
		Src:        tun.LocalAddr,
		Dst:        tun.RemoteAddr,
	}
	pay := packet.Payload(inner)
	// Serialize bottom-up straight into a leased pooled buffer (it
	// arrives cleared) and hand it to the network with ownership — the
	// steady-state sender touches no allocator, as the paper's eBPF
	// program builds the encapsulation in a fixed per-packet buffer. The
	// calls are direct: passing the layer locals through the
	// SerializableLayer interface would box each one onto the heap. With
	// a key, the finished Tango datagram is signed in place before UDP
	// wraps it, because the UDP checksum must cover the final tag.
	pb := s.pool.Get()
	buf := &pb.SerializeBuffer
	err := pay.SerializeTo(buf)
	if err == nil {
		err = hdr.SerializeTo(buf)
	}
	if err == nil && s.authKey != nil {
		err = packet.SignTangoDatagram(s.authKey, buf.Bytes())
	}
	if err == nil {
		err = udp.SerializeTo(buf)
	}
	if err == nil {
		err = ip.SerializeTo(buf)
	}
	if err != nil {
		pb.Release()
		s.badPacket()
		return
	}
	count(&tun.Stats.Sent, so.tx[tun.PathID])
	if probe {
		count(&tun.Stats.ProbeSent, so.probe[tun.PathID])
	} else {
		so.data[tun.PathID].Inc() // its word is Sent - ProbeSent
	}
	count(&s.Stats.Encapped, so.encapped)
	s.ep.InjectBuf(pb)
	so.encapNs.ObserveSince(t0)
}

// receiverProgram is the receiver eBPF program: parse and verify,
// measure local clock minus timestamp, strip, forward. Its latency is
// observed for accepted datagrams only.
func (s *Switch) receiverProgram(data []byte) {
	so := s.sobs
	t0 := so.decapNs.Start()
	ip, udp, hdr := &s.decIP, &s.decUDP, &s.decTng
	if ip.DecodeFromBytes(data) != nil ||
		udp.DecodeFromBytes(ip.LayerPayload()) != nil ||
		udp.VerifyChecksum(ip.Src, ip.Dst, ip.LayerPayload()) != nil ||
		hdr.DecodeFromBytes(udp.LayerPayload()) != nil {
		s.badPacket()
		return
	}
	if s.authKey != nil && !packet.VerifyTangoDatagram(s.authKey, udp.LayerPayload()) {
		// Unsigned or tampered: reject before it can pollute the
		// measurement engine.
		count(&s.Stats.AuthFail, so.authFail)
		return
	}
	if hdr.Flags&packet.TangoFlagTimestamp != 0 && s.OnMeasure != nil {
		s.OnMeasure(Measurement{
			At:     s.ep.Now(),
			PathID: hdr.PathID,
			OWD:    time.Duration(s.clock.Now() - hdr.SendTime),
			Seq:    hdr.Seq,
			Size:   len(data),
		})
	}
	if hdr.Flags&packet.TangoFlagReport != 0 {
		count(&s.Stats.ReportsRecvd, so.repRecvd)
		if s.OnReport != nil {
			s.OnReport(hdr.Report)
		}
	}
	count(&s.Stats.Decapped, so.decapped)
	so.rxCounter(hdr.PathID).Inc()
	if inner := hdr.LayerPayload(); len(inner) > 0 {
		// Relay program: a tagged packet whose inner destination has a
		// next overlay segment here is re-encapsulated, not delivered.
		// The measurement above already ran, so each segment's monitor
		// sees relayed traffic like any other. Otherwise inner goes to
		// DeliverLocal as a borrowed view into the arriving packet's
		// pooled buffer (released by the node once the handler chain
		// returns): consumers copy if they retain, nothing is copied here.
		if hdr.ExtFlags&packet.TangoExtRelay != 0 && s.relay != nil && s.relay.forward(inner, hdr.RelayTTL) {
			count(&s.Stats.Relayed, so.relayed)
		} else {
			s.DeliverLocal(inner)
		}
	}
	so.decapNs.ObserveSince(t0)
}

// badPacket counts a packet either program could not parse, verify or
// serialize.
func (s *Switch) badPacket() { count(&s.Stats.BadPacket, s.sobs.badPacket) }
