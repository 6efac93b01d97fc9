package bgp

import (
	"fmt"
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// Relation is the business relationship of a session's remote peer, from
// the local speaker's point of view. It drives Gao-Rexford export rules
// and default local preference.
type Relation int

// Relations.
const (
	RelCustomer Relation = iota // the peer pays us
	RelPeer                     // settlement-free peer
	RelProvider                 // we pay the peer
)

func (r Relation) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// SessionConfig parameterizes one side of an eBGP session.
type SessionConfig struct {
	// Relation of the remote peer as seen from this side.
	Relation Relation
	// LocalAddr is this side's session endpoint; it becomes the NEXT_HOP
	// on routes exported here.
	LocalAddr netip.Addr
	// Delay is the one-way message propagation delay to the peer.
	Delay time.Duration
	// MRAI is the minimum route advertisement interval: successive
	// UPDATE bursts to the peer are spaced at least this far apart.
	// Zero means no pacing.
	MRAI time.Duration
	// AllowOwnAS disables loop rejection of routes whose AS path
	// contains the local ASN ("allowas-in"). The Vultr scenario needs it
	// at each DC's border: both POPs announce from AS 20473, and each
	// hears the other's prefixes through the public core with 20473
	// already in the path — exactly as in the paper's deployment.
	AllowOwnAS bool
	// StripPrivateASNs removes RFC 6996 private ASNs from the AS path
	// when exporting to this peer, as Vultr does when propagating
	// customer announcements made from a private ASN.
	StripPrivateASNs bool
	// ScrubActionCommunities removes this speaker's action communities
	// (the 64600 namespace) after applying them, so internal knobs do not
	// leak beyond the provider applying them.
	ScrubActionCommunities bool
}

// Session is one side of an eBGP session. Messages to the peer are
// delivered after the configured delay, on the peer's engine. Sessions
// run in the process and are never cut, so once established a session
// stays up.
type Session struct {
	speaker     *Speaker
	peer        *Session
	cfg         SessionConfig
	established bool

	adjIn  map[addr.Prefix]*Route
	adjOut map[addr.Prefix]*Route

	// MRAI pacing state.
	pending   map[addr.Prefix]bool
	mraiArmed bool
	lastFlush sim.Time
	neverSent bool

	Stats struct {
		UpdatesSent uint64
	}
}

// PeerAS returns the remote speaker's ASN.
func (s *Session) PeerAS() ASN { return s.peer.speaker.AS }

// AdjIn returns the route learned from the peer for p, if any.
func (s *Session) AdjIn(p addr.Prefix) (*Route, bool) {
	r, ok := s.adjIn[p]
	return r, ok
}

// AdjInLen returns the number of routes learned from the peer.
func (s *Session) AdjInLen() int { return len(s.adjIn) }

func (s *Session) String() string {
	return fmt.Sprintf("%s->%s(%s)", s.speaker.Name, s.peer.speaker.Name, s.cfg.Relation)
}

// Connect wires two speakers together with an eBGP session and starts the
// handshake. cfgA describes the session from a's side (so cfgA.Relation
// is what b is to a), cfgB from b's side. The relations must be
// consistent (customer on one side implies provider on the other).
func Connect(a, b *Speaker, cfgA, cfgB SessionConfig) (*Session, *Session) {
	if a.eng != b.eng {
		c := a.eng.Coord()
		if c == nil || c != b.eng.Coord() {
			panic("bgp: Connect across engines")
		}
		// A partition-crossing session is only sound under the conservative
		// epoch scheme when its messages are in flight at least one
		// lookahead (the partitioner folds session delays into its edge
		// minimums, so this holds by construction — keep it loud anyway).
		if la := c.Lookahead(); la > 0 && (cfgA.Delay < la || cfgB.Delay < la) {
			panic(fmt.Sprintf("bgp: cross-partition session %s<->%s delay below lookahead %v",
				a.Name, b.Name, la))
		}
	}
	if (cfgA.Relation == RelCustomer) != (cfgB.Relation == RelProvider) ||
		(cfgA.Relation == RelProvider) != (cfgB.Relation == RelCustomer) {
		panic(fmt.Sprintf("bgp: inconsistent relations %v/%v between %s and %s",
			cfgA.Relation, cfgB.Relation, a.Name, b.Name))
	}
	sa := newSession(a, cfgA)
	sb := newSession(b, cfgB)
	sa.peer, sb.peer = sb, sa
	a.sessions = append(a.sessions, sa)
	b.sessions = append(b.sessions, sb)
	sa.sendMsg(&Message{Open: true})
	sb.sendMsg(&Message{Open: true})
	return sa, sb
}

func newSession(sp *Speaker, cfg SessionConfig) *Session {
	return &Session{
		speaker:   sp,
		cfg:       cfg,
		adjIn:     make(map[addr.Prefix]*Route),
		adjOut:    make(map[addr.Prefix]*Route),
		pending:   make(map[addr.Prefix]bool),
		neverSent: true,
	}
}

// sendMsg schedules delivery of m to the peer after the session delay.
func (s *Session) sendMsg(m *Message) {
	if m.Update != nil {
		s.Stats.UpdatesSent++
	}
	peer := s.peer
	at := s.speaker.eng.Now() + sim.Time(s.cfg.Delay)
	sim.CrossScheduleAt(s.speaker.eng, peer.speaker.eng, at, peer, m)
}

// OnSimEvent implements sim.ArgHandler: the arrival of one message, fired
// on this side's engine.
func (s *Session) OnSimEvent(arg any) {
	m := arg.(*Message)
	switch {
	case m.Open:
		// The peer's KEEPALIVE confirming our OPEN establishes the session.
		s.sendMsg(&Message{Keepalive: true})
	case m.Update != nil:
		s.speaker.handleUpdate(s, m.Update)
	case m.Keepalive && !s.established:
		s.established = true
		// Initial table exchange: advertise everything eligible.
		s.speaker.scheduleFullExport(s)
	}
}

// queue marks a prefix as needing (re)advertisement to this peer and
// arms the MRAI flush.
func (s *Session) queue(p addr.Prefix) {
	if !s.established {
		return
	}
	s.pending[p] = true
	if s.mraiArmed {
		return
	}
	now := s.speaker.eng.Now()
	wait := time.Duration(0)
	if s.cfg.MRAI > 0 && !s.neverSent {
		if next := s.lastFlush + s.cfg.MRAI; next > now {
			wait = next - now
		}
	}
	s.mraiArmed = true
	s.speaker.eng.Schedule(wait, s.flush)
}

// flush advertises all pending changes, one UPDATE per prefix.
func (s *Session) flush() {
	s.mraiArmed = false
	s.lastFlush = s.speaker.eng.Now()
	s.neverSent = false
	prefixes := make([]addr.Prefix, 0, len(s.pending))
	for p := range s.pending {
		prefixes = append(prefixes, p)
	}
	s.pending = make(map[addr.Prefix]bool)
	for _, p := range prefixes {
		s.advertise(p)
	}
}

// advertise computes the export route for p and sends an UPDATE if it
// differs from what the peer last heard.
func (s *Session) advertise(p addr.Prefix) {
	best := s.speaker.locRIB[p]
	export := s.speaker.exportRoute(s, best)
	prev, had := s.adjOut[p]
	if export == nil {
		if !had {
			return
		}
		delete(s.adjOut, p)
		s.sendMsg(&Message{Update: &Update{Withdrawn: []addr.Prefix{p}}})
		return
	}
	if had && sameExport(prev, export) {
		return
	}
	s.adjOut[p] = export
	u := &Update{
		Announced: []addr.Prefix{p},
		Attrs: Attrs{
			Path:        export.Path,
			NextHop:     export.NextHop,
			Communities: export.Communities,
		},
	}
	s.sendMsg(&Message{Update: u})
}

func sameExport(a, b *Route) bool {
	if !a.Path.Equal(b.Path) || a.NextHop != b.NextHop {
		return false
	}
	ac, bc := a.SortedCommunities(), b.SortedCommunities()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}
