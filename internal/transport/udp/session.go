package udp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"strings"
	"time"

	"tango/internal/sim"
)

// PathSpec is one wide-area path of a live deployment: the name labels
// the provider it stands in for, and Delay is the emulated one-way
// propagation applied to this endpoint's *outgoing* frames on the path
// (the loopback analogue of the provider's real propagation delay; the
// two directions of a path may differ, as in the paper's measurements).
type PathSpec struct {
	ID    uint8
	Name  string
	Delay time.Duration
}

// ParsePaths parses a "NTT:12ms,GTT:30ms,Cogent:20ms" flag value into
// path specs with IDs assigned in order from 1 — both processes of a
// deployment must therefore list paths in the same order, which the
// session handshake verifies by name.
func ParsePaths(s string) ([]PathSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("udp: empty path spec")
	}
	var out []PathSpec
	for i, part := range strings.Split(s, ",") {
		name, delayStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("udp: path %q: want NAME:DELAY", part)
		}
		d, err := time.ParseDuration(delayStr)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("udp: path %q: bad delay %q", part, delayStr)
		}
		out = append(out, PathSpec{ID: uint8(i + 1), Name: name, Delay: d})
	}
	if len(out) > 200 {
		return nil, fmt.Errorf("udp: %d paths; path IDs are uint8", len(out))
	}
	return out, nil
}

// SiteAddrs derives a site's outer addresses from its name: one switch
// (outer source) address plus one tunnel endpoint per path, all inside a
// site-specific /64 of a ULA block. Deterministic derivation means both
// processes compute each other's addresses from the handshake alone — no
// address configuration beyond the socket.
func SiteAddrs(site string, paths int) (switchAddr netip.Addr, endpoints []netip.Addr) {
	h := fnv.New32a()
	h.Write([]byte(site))
	var a [16]byte
	a[0], a[1] = 0xfd, 0x00
	a[2], a[3] = 0x74, 0x61 // "ta"
	binary.BigEndian.PutUint32(a[4:8], h.Sum32())
	a[14], a[15] = 0xff, 0xfe
	switchAddr = netip.AddrFrom16(a)
	for i := 1; i <= paths; i++ {
		a[14], a[15] = 0, byte(i)
		endpoints = append(endpoints, netip.AddrFrom16(a))
	}
	return switchAddr, endpoints
}

// Peer is the established view of the cooperating endpoint.
type Peer struct {
	Site       string
	Addr       netip.AddrPort // socket address frames are sent to
	SwitchAddr netip.Addr
	Endpoints  []netip.Addr // peer-owned tunnel endpoints, by path ID -1
	Paths      []PathSpec   // peer's outgoing path specs (names match ours)
}

// helloMsg is the control payload both sides exchange. The dialer sends
// type "hello" until acked; the listener replies type "ack" with its own
// body. Both bodies carry the sender's site, path names, switch address,
// and endpoints, so each side can provision tunnels toward the other.
type helloMsg struct {
	Type       string   `json:"type"` // "hello" | "ack"
	Site       string   `json:"site"`
	SwitchAddr string   `json:"switch_addr"`
	Paths      []string `json:"paths"`
	Endpoints  []string `json:"endpoints"`
	DelayNs    []int64  `json:"delay_ns"`
}

// Session negotiates one cooperating pair over the backend's control
// channel: the paper's "statically configured by cooperating endpoints"
// tables, established by a two-message handshake instead of hand-edited
// files. It runs entirely on the backend's event goroutine.
type Session struct {
	// OnEstablished fires exactly once, on the event goroutine, when the
	// peer is known and verified; provision tunnels and start the control
	// loops here.
	OnEstablished func(*Peer)
	// OnError fires on handshake failures (path-set mismatch, give-up).
	OnError func(error)

	b     *Backend
	site  string
	paths []PathSpec

	switchAddr netip.Addr
	endpoints  []netip.Addr

	peer   *Peer
	dialed netip.AddrPort // the only source an ack is accepted from
	retx   *sim.Ticker
	tries  int
}

// NewSession prepares a session for the given site over b and installs
// its control handler. Call before Start (or inside Do).
func NewSession(b *Backend, site string, paths []PathSpec) *Session {
	s := &Session{b: b, site: site, paths: paths}
	s.switchAddr, s.endpoints = SiteAddrs(site, len(paths))
	b.SetControlHandler(s.onControl)
	return s
}

// SwitchAddr returns the local outer source address.
func (s *Session) SwitchAddr() netip.Addr { return s.switchAddr }

// Endpoints returns the local tunnel endpoint addresses (path ID -1).
func (s *Session) Endpoints() []netip.Addr { return s.endpoints }

// Peer returns the established peer, or nil.
func (s *Session) Peer() *Peer { return s.peer }

// maxHelloTries bounds the dialer's retransmissions before giving up.
const maxHelloTries = 100

// Dial starts the handshake toward a listening peer, retransmitting the
// hello every 200ms until acked. Only an ack from peer establishes the
// session. Event-goroutine only (use Backend.Do).
func (s *Session) Dial(peer netip.AddrPort) {
	s.dialed = netip.AddrPortFrom(peer.Addr().Unmap(), peer.Port())
	send := func() {
		if s.peer != nil {
			return
		}
		s.tries++
		if s.tries > maxHelloTries {
			s.retx.Stop()
			s.fail(fmt.Errorf("udp: no ack from %s after %d hellos", peer, s.tries-1))
			return
		}
		s.b.SendControl(peer, s.encode("hello"))
	}
	s.retx = sim.NewTicker(s.b.eng, 200*time.Millisecond, func(sim.Time) { send() })
	send()
}

func (s *Session) encode(typ string) []byte {
	m := helloMsg{
		Type:       typ,
		Site:       s.site,
		SwitchAddr: s.switchAddr.String(),
	}
	for _, p := range s.paths {
		m.Paths = append(m.Paths, p.Name)
		m.DelayNs = append(m.DelayNs, int64(p.Delay))
	}
	for _, ep := range s.endpoints {
		m.Endpoints = append(m.Endpoints, ep.String())
	}
	j, err := json.Marshal(m)
	if err != nil {
		panic(err) // static message shape; cannot fail
	}
	return j
}

// onControl consumes one control datagram on the event goroutine. Anyone
// can send a datagram that is not JSON or not a hello or an ack, an ack
// to a session that did not dial its source, or a hello once another
// peer is established, so those are counted in
// tango_transport_ctl_rejected_total and dropped without a call to
// OnError; a well-formed body that fails the handshake still reaches it.
func (s *Session) onControl(from netip.AddrPort, payload []byte) {
	var m helloMsg
	if json.Unmarshal(payload, &m) != nil {
		s.b.ctlRejected.Inc()
		return
	}
	switch m.Type {
	case "hello":
		// Listener side. Re-ack duplicate hellos (the first ack may have
		// been lost) but provision only once.
		if s.peer == nil {
			peer, err := s.makePeer(from, &m)
			if err != nil {
				s.fail(err)
				return
			}
			s.establish(peer)
		}
		if s.peer.Addr != from {
			s.b.ctlRejected.Inc()
			return
		}
		s.b.SendControl(from, s.encode("ack"))
	case "ack":
		// Dialer side: only the dialed address may answer, and a session
		// that never dialed has none.
		if from != s.dialed {
			s.b.ctlRejected.Inc()
			return
		}
		if s.peer != nil {
			return
		}
		peer, err := s.makePeer(from, &m)
		if err != nil {
			s.fail(err)
			return
		}
		if s.retx != nil {
			s.retx.Stop()
		}
		s.establish(peer)
	default:
		s.b.ctlRejected.Inc()
	}
}

// makePeer validates a handshake body against the local path set.
func (s *Session) makePeer(from netip.AddrPort, m *helloMsg) (*Peer, error) {
	if m.Site == s.site {
		return nil, fmt.Errorf("udp: peer %s claims our own site name %q", from, m.Site)
	}
	if len(m.Paths) != len(s.paths) {
		return nil, fmt.Errorf("udp: peer %q has %d paths, we have %d", m.Site, len(m.Paths), len(s.paths))
	}
	for i, name := range m.Paths {
		if name != s.paths[i].Name {
			return nil, fmt.Errorf("udp: path %d is %q at peer %q, %q here", i+1, name, m.Site, s.paths[i].Name)
		}
	}
	if len(m.Endpoints) != len(s.paths) || len(m.DelayNs) != len(s.paths) {
		return nil, fmt.Errorf("udp: peer %q handshake body inconsistent", m.Site)
	}
	sw, err := netip.ParseAddr(m.SwitchAddr)
	if err != nil {
		return nil, fmt.Errorf("udp: peer %q switch addr: %w", m.Site, err)
	}
	p := &Peer{Site: m.Site, Addr: from, SwitchAddr: sw}
	for i, e := range m.Endpoints {
		ip, err := netip.ParseAddr(e)
		if err != nil {
			return nil, fmt.Errorf("udp: peer %q endpoint %d: %w", m.Site, i+1, err)
		}
		p.Endpoints = append(p.Endpoints, ip)
		p.Paths = append(p.Paths, PathSpec{ID: uint8(i + 1), Name: m.Paths[i], Delay: time.Duration(m.DelayNs[i])})
	}
	return p, nil
}

// establish records the peer, installs the frame routes (every peer
// endpoint is reached through the peer's socket, delayed by the local
// outgoing path spec), and fires OnEstablished.
func (s *Session) establish(p *Peer) {
	s.peer = p
	for i, ep := range p.Endpoints {
		s.b.AddRoute(ep, p.Addr, s.paths[i].Delay)
	}
	// The peer's outer source address is routable too, so stray frames
	// toward it (never sent by the current stack) fail loudly at the
	// peer's owned-address check rather than silently here.
	s.b.AddRoute(p.SwitchAddr, p.Addr, 0)
	if s.OnEstablished != nil {
		s.OnEstablished(p)
	}
}

func (s *Session) fail(err error) {
	if s.OnError != nil {
		s.OnError(err)
	}
}
