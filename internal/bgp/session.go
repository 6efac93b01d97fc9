package bgp

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

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
	// Border marks a provider's session toward the transit core. On
	// export to it the AS path loses its RFC 6996 private ASNs, as Vultr
	// strips a customer's private ASN, and the communities lose this
	// speaker's action communities (the 64600 namespace) after they were
	// applied, so the knobs stay inside the provider that offers them.
	Border bool
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

	// adj is indexed by the prefix numbers of the speakers' Table and
	// covers what the speaker's RIB covers. queued holds a bit per
	// number, set while the number waits for the next flush.
	adj    pages[adjEntry]
	queued []uint64

	// MRAI pacing state: flushFn is flush bound once, so arming the timer
	// allocates no closure.
	mraiArmed bool
	flushFn   func()
	lastFlush sim.Time
	neverSent bool

	Stats struct {
		UpdatesSent uint64
	}
}

// adjEntry is a session's state for one numbered prefix.
type adjEntry struct {
	in  *Attrs     // Adj-RIB-In: the attributes the peer's UPDATE carried
	out *exportSet // Adj-RIB-Out: the attributes the peer last heard
}

// cover grows the session's tables to hold numbers below n.
func (s *Session) cover(n int) {
	s.adj.cover(n)
	for len(s.queued)*64 < n {
		s.queued = append(s.queued, 0)
	}
}

// PeerAS returns the remote speaker's ASN.
func (s *Session) PeerAS() ASN { return s.peer.speaker.AS }

func (s *Session) String() string {
	return fmt.Sprintf("%s->%s(%s)", s.speaker.Name, s.peer.speaker.Name, s.cfg.Relation)
}

// Connect wires two speakers together with an eBGP session and starts the
// handshake. cfgA describes the session from a's side (so cfgA.Relation
// is what b is to a), cfgB from b's side. The relations must be
// consistent (customer on one side implies provider on the other).
func Connect(a, b *Speaker, cfgA, cfgB SessionConfig) (*Session, *Session) {
	if a.tab != b.tab {
		panic(fmt.Sprintf("bgp: Connect %s<->%s across prefix tables", a.Name, b.Name))
	}
	if a.eng != b.eng {
		// Speakers on two engines must be partitions of one coordinator.
		c := a.eng.Coord()
		if c != b.eng.Coord() {
			panic("bgp: Connect across coordinators")
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
	sa.sendMsg(openMsg)
	sb.sendMsg(openMsg)
	return sa, sb
}

func newSession(sp *Speaker, cfg SessionConfig) *Session {
	s := &Session{speaker: sp, cfg: cfg, neverSent: true}
	s.cover(int(sp.covered()))
	s.flushFn = s.flush
	return s
}

// sendMsg schedules delivery of m, a signal or an UPDATE, to the peer
// after the session delay.
func (s *Session) sendMsg(m any) {
	if _, ok := m.(signal); !ok {
		s.Stats.UpdatesSent++
	}
	peer := s.peer
	at := s.speaker.eng.Now() + sim.Time(s.cfg.Delay)
	sim.CrossScheduleAt(s.speaker.eng, peer.speaker.eng, at, peer, m)
}

// OnSimEvent implements sim.ArgHandler: the arrival of one message, fired
// on this side's engine.
func (s *Session) OnSimEvent(arg any) {
	switch m := arg.(type) {
	case *exportSet:
		s.speaker.handleUpdate(s, m)
	case *withdrawal:
		s.speaker.dropIn(s, int32(*m))
	case signal:
		if m == openMsg {
			// The peer's KEEPALIVE confirming our OPEN establishes the
			// session.
			s.sendMsg(keepaliveMsg)
			return
		}
		if s.established {
			return
		}
		s.established = true
		// Initial table exchange: advertise everything eligible.
		s.speaker.scheduleFullExport(s)
	}
}

// queue marks prefix number n as needing (re)advertisement to this peer
// and arms the MRAI flush.
func (s *Session) queue(n int32) {
	w, bit := &s.queued[n>>6], uint64(1)<<(n&63)
	if !s.established || *w&bit != 0 {
		return
	}
	*w |= bit
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
	s.speaker.eng.Schedule(wait, s.flushFn)
}

// flush advertises all queued changes, one UPDATE per prefix, in number
// order, which is prefix order, so the UPDATE sequence does not depend on
// the order in which they were queued.
func (s *Session) flush() {
	s.mraiArmed = false
	s.lastFlush = s.speaker.eng.Now()
	s.neverSent = false
	for w, word := range s.queued {
		s.queued[w] = 0
		for ; word != 0; word &= word - 1 {
			s.advertise(int32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
}

// advertise computes the export for prefix number n and, if it differs
// from what the peer last heard, sends it: the export set itself, or the
// Table's withdrawal of n. Sending allocates nothing.
func (s *Session) advertise(n int32) {
	export := s.speaker.exportTo(s, n)
	slot := s.adj.at(n)
	if sameExport(slot.out, export) {
		return
	}
	slot.out = export
	if export == nil {
		s.sendMsg(&s.speaker.tab.withdrawals[n])
		return
	}
	s.sendMsg(export)
}

// sameExport reports whether two export sets, either nil for none, carry
// the same path and communities. A best that did not change exports the
// very same set. Communities compare in order: an export keeps its
// originator's order (TestExportSetsKeepOriginOrder), so two exports of
// one prefix differ in order only where they differ in content.
func sameExport(a, b *exportSet) bool {
	return a == b || a != nil && b != nil && a.Path.Equal(b.Path) && slices.Equal(a.Communities, b.Communities)
}
