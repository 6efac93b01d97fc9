package tango

import (
	"net/netip"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/packet"
)

// Site is one cooperating edge network in an established Lab.
type Site struct {
	name string
	site *core.Site
	// sendBuf is reused across Send calls: the core only borrows the
	// serialized bytes (the switch copies them into a pooled buffer).
	sendBuf *packet.SerializeBuffer
}

// Name returns "ny" or "la".
func (s *Site) Name() string { return s.name }

// PathInfo describes one of a site's outgoing wide-area paths with its
// live measurements (taken at the peer, which is where one-way delay is
// observed). Delay values are in the peer's clock domain: differences
// between paths are exact, absolute values carry the constant clock
// offset.
type PathInfo struct {
	// ID is the tunnel path identifier (1-based discovery order; 1 is
	// the BGP default path).
	ID uint8
	// Provider is the transit AS delivering into the peer's POP.
	Provider string
	// ASPath is the interdomain path as observed during discovery.
	ASPath string
	// MeanOWDMs / MinOWDMs / StdOWDMs aggregate the raw one-way delays.
	MeanOWDMs, MinOWDMs, StdOWDMs float64
	// JitterMs is the mean 1-second rolling-window standard deviation
	// (the paper's jitter metric); offset-free.
	JitterMs float64
	// Samples is the number of measured packets.
	Samples uint64
	// LossRate is lost/(lost+received) from tunnel sequence numbers.
	LossRate float64
	// Current reports whether the controller is steering data traffic
	// onto this path.
	Current bool
}

// Paths returns the site's outgoing paths in discovery order with live
// stats. Paths without measurements yet have zero Samples.
func (s *Site) Paths() []PathInfo {
	return pathInfos(s.site, s.site.Peer().Monitor)
}

// pathInfos assembles the public view of one direction's paths: the
// sender's discovered paths annotated with the receiving monitor's
// measurements.
func pathInfos(sender *core.Site, peerMon *control.Monitor) []PathInfo {
	cur := sender.Controller.Current()
	out := make([]PathInfo, 0, len(sender.OutPaths))
	for i, dp := range sender.OutPaths {
		id := uint8(i + 1)
		info := PathInfo{
			ID:       id,
			Provider: dp.ProviderName,
			ASPath:   dp.Path.String(),
			Current:  id == cur,
		}
		if pm := peerMon.Path(id); pm != nil {
			info.MeanOWDMs = pm.OWD.Mean()
			info.MinOWDMs = pm.OWD.Min()
			info.StdOWDMs = pm.OWD.Std()
			info.JitterMs = pm.Jitter.MeanStd()
			info.Samples = pm.OWD.N()
			info.LossRate = pm.Seq.LossRate()
		}
		out = append(out, info)
	}
	return out
}

// CurrentPath returns the provider label of the path currently carrying
// this site's data traffic.
func (s *Site) CurrentPath() string {
	return s.site.PathName(s.site.Controller.Current())
}

// OnPathSwitch registers a callback invoked when the controller moves
// traffic (at is virtual time).
func (s *Site) OnPathSwitch(fn func(at time.Duration, from, to string)) {
	s.site.Controller.OnSwitch = func(at time.Duration, from, to uint8) {
		fn(at, s.site.PathName(from), s.site.PathName(to))
	}
}

// HostAddr returns the idx-th address in the site's host prefix; use it
// to address application traffic.
func (s *Site) HostAddr(idx uint64) netip.Addr {
	a, err := s.site.Spec.HostPrefix.Host(idx)
	if err != nil {
		panic(err)
	}
	return a
}

// Send transmits an application payload to the peer site as a UDP packet
// between the given host addresses and ports. The border switch tunnels
// it over the controller's current path.
func (s *Site) Send(srcHost, dstHost netip.Addr, srcPort, dstPort uint16, payload []byte) error {
	if s.sendBuf == nil {
		s.sendBuf = packet.NewSerializeBuffer()
	}
	inner, err := packet.InnerUDP{Src: srcHost, Dst: dstHost, SrcPort: srcPort, DstPort: dstPort}.Build(s.sendBuf, payload)
	if err != nil {
		return err
	}
	s.site.Send(inner)
	return nil
}

// Delivery is an application packet received from the peer.
type Delivery struct {
	At               time.Duration // virtual arrival time
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Payload          []byte
}

// OnReceive registers a handler for application packets addressed to the
// given inner UDP destination port.
func (s *Site) OnReceive(dstPort uint16, fn func(Delivery)) {
	s.site.AddSink(deliverySink(s.site, dstPort, fn))
}

// deliverySink builds a sink on the receiving member recv, claiming inner
// UDP packets on dstPort and handing them to fn as parsed Deliveries
// stamped with recv's engine clock — the instant of the delivery event in
// every engine mode.
func deliverySink(recv *core.Site, dstPort uint16, fn func(Delivery)) func([]byte) bool {
	eng := recv.Eng()
	return func(inner []byte) bool {
		if dp, _, ok := packet.UDP6(inner); !ok || dp != dstPort {
			return false
		}
		var ip packet.IPv6
		var udp packet.UDP
		if ip.DecodeFromBytes(inner) != nil || udp.DecodeFromBytes(ip.LayerPayload()) != nil {
			return false
		}
		// The inner slice views a pooled packet buffer that is recycled
		// after the sink chain returns; Delivery is a public value users
		// retain, so its payload must be an owned copy.
		fn(Delivery{
			At:      eng.Now(),
			Src:     ip.Src,
			Dst:     ip.Dst,
			SrcPort: udp.SrcPort,
			DstPort: udp.DstPort,
			Payload: append([]byte(nil), udp.LayerPayload()...),
		})
		return true
	}
}
