package bgp

import (
	"fmt"
	"slices"

	"tango/internal/addr"
	"tango/internal/sim"
)

// Speaker is one BGP router: it owns sessions, runs the decision process
// over routes learned from all peers plus locally originated ones, and
// paces re-advertisement to each peer. One Speaker models one AS's
// routing (the scenarios have a single point of presence per AS, plus the
// two Tango edge servers speaking from private ASNs).
type Speaker struct {
	Name     string
	AS       ASN
	RouterID uint32

	eng      *sim.Engine
	sessions []*Session

	// The RIBs are indexed by prefix number: each prefix gets the next
	// number the first time this speaker hears of it, and keeps it. The
	// numbering is per speaker, because speakers on different partitions
	// run on different goroutines.
	num   map[addr.Prefix]int32
	rib   []ribEntry
	nBest int

	// OnBestChange fires whenever the best route for a prefix changes
	// (newBest nil on withdrawal). The Tango node uses it to program
	// the data-plane FIB.
	OnBestChange func(p addr.Prefix, newBest, old *Route)
}

// ribEntry is the speaker's state for one numbered prefix: the locally
// originated route and the Loc-RIB best, each nil when absent.
type ribEntry struct {
	prefix     addr.Prefix
	originated *Route
	best       *Route
}

// NewSpeaker creates a speaker on the given engine.
func NewSpeaker(eng *sim.Engine, name string, as ASN, routerID uint32) *Speaker {
	return &Speaker{
		Name:     name,
		AS:       as,
		RouterID: routerID,
		eng:      eng,
		num:      make(map[addr.Prefix]int32),
	}
}

// lookup returns p's number, or -1 if the speaker has never heard of p.
func (sp *Speaker) lookup(p addr.Prefix) int32 {
	if n, ok := sp.num[p]; ok {
		return n
	}
	return -1
}

// number returns p's number, assigning the next one (and a slot in every
// session's Adj-RIBs) the first time.
func (sp *Speaker) number(p addr.Prefix) int32 {
	if n, ok := sp.num[p]; ok {
		return n
	}
	n := int32(len(sp.rib))
	sp.num[p] = n
	sp.rib = append(sp.rib, ribEntry{prefix: p})
	for _, s := range sp.sessions {
		s.adj = append(s.adj, adjEntry{})
	}
	return n
}

// Sessions returns the speaker's sessions in creation order.
func (sp *Speaker) Sessions() []*Session { return sp.sessions }

// Best returns the current best route for p, or nil.
func (sp *Speaker) Best(p addr.Prefix) *Route {
	if n := sp.lookup(p); n >= 0 {
		return sp.rib[n].best
	}
	return nil
}

// BestPrefixes returns all prefixes with a best route, sorted.
func (sp *Speaker) BestPrefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, sp.nBest)
	for i := range sp.rib {
		if sp.rib[i].best != nil {
			out = append(out, sp.rib[i].prefix)
		}
	}
	slices.SortFunc(out, addr.Prefix.Compare)
	return out
}

// Originate announces a locally originated prefix with the given
// communities. Re-originating the same prefix with different communities
// replaces the previous announcement (the knob the Tango discovery
// algorithm turns between rounds).
func (sp *Speaker) Originate(p addr.Prefix, communities ...Community) {
	sp.OriginateWithPath(p, nil, communities...)
}

// OriginateWithPath announces a prefix with a pre-seeded AS path — the
// AS-path poisoning knob (§3, §6): listing a victim ASN makes that AS
// reject the route by loop prevention, suppressing *every* path through
// it (unlike an action community, which only suppresses one provider's
// direct export). The speaker's own ASN is still prepended on export.
func (sp *Speaker) OriginateWithPath(p addr.Prefix, poison Path, communities ...Community) {
	r := &Route{
		Prefix:      p,
		Path:        poison.Clone(),
		LocalPref:   1 << 30, // locally originated beats anything learned
		Communities: append([]Community(nil), communities...),
	}
	n := sp.number(p)
	sp.rib[n].originated = r
	sp.reselect(n)
	// Even if the best route (local) is unchanged, the communities or
	// the seeded path may have changed, which alters per-peer exports.
	sp.scheduleExportAll(n)
}

// Withdraw removes a locally originated prefix.
func (sp *Speaker) Withdraw(p addr.Prefix) {
	n := sp.lookup(p)
	if n < 0 || sp.rib[n].originated == nil {
		return
	}
	sp.rib[n].originated = nil
	sp.reselect(n)
}

// Originated returns the locally originated route for p, if any.
func (sp *Speaker) Originated(p addr.Prefix) (*Route, bool) {
	if n := sp.lookup(p); n >= 0 && sp.rib[n].originated != nil {
		return sp.rib[n].originated, true
	}
	return nil, false
}

// OriginatedPrefixes returns every locally originated prefix in a
// deterministic (sorted) order, so seeded fault generators can pick
// withdrawal targets reproducibly.
func (sp *Speaker) OriginatedPrefixes() []addr.Prefix {
	var out []addr.Prefix
	for i := range sp.rib {
		if sp.rib[i].originated != nil {
			out = append(out, sp.rib[i].prefix)
		}
	}
	slices.SortFunc(out, addr.Prefix.Compare)
	return out
}

// handleUpdate applies an UPDATE from a session. The update's Path and
// Communities are the sender's Adj-RIB-Out slices, so the imported route
// gets its own copies.
func (sp *Speaker) handleUpdate(s *Session, u *Update) {
	for _, p := range u.Withdrawn {
		sp.dropIn(s, sp.lookup(p))
	}
	for _, p := range u.Announced {
		r := &Route{
			Prefix:      p,
			Path:        u.Attrs.Path.Clone(),
			NextHop:     u.Attrs.NextHop,
			Communities: append([]Community(nil), u.Attrs.Communities...),
			FromSession: s,
		}
		imported := sp.importRoute(s, r)
		if imported == nil {
			// An implicit withdrawal if we previously accepted one.
			sp.dropIn(s, sp.lookup(p))
			continue
		}
		n := sp.number(p)
		if s.adj[n].in == nil {
			s.nIn++
		}
		s.adj[n].in = imported
		sp.reselect(n)
	}
}

// dropIn forgets the route learned on s for prefix number n, if any; n
// is -1 for a prefix the speaker has never heard of.
func (sp *Speaker) dropIn(s *Session, n int32) {
	if n < 0 || s.adj[n].in == nil {
		return
	}
	s.adj[n].in = nil
	s.nIn--
	sp.reselect(n)
}

// importRoute runs the import pipeline; nil rejects.
func (sp *Speaker) importRoute(s *Session, r *Route) *Route {
	// Loop prevention.
	if r.Path.Contains(sp.AS) && !s.cfg.AllowOwnAS {
		return nil
	}
	r.LocalPref = DefaultLocalPref(s.cfg.Relation)
	return r
}

// DefaultLocalPref is the Gao-Rexford import preference: customer routes
// above peer routes above provider routes. Combined with the valley-free
// export rule this guarantees convergence (the classic stable-routing
// conditions) and means a speaker's best route is always its most
// re-exportable one — the property the generated-topology ground-truth
// enumeration in internal/topo relies on.
func DefaultLocalPref(rel Relation) uint32 {
	switch rel {
	case RelCustomer:
		return 200
	case RelPeer:
		return 100
	default:
		return 50
	}
}

// reselect re-runs the decision process for prefix number n and, on
// change, updates the Loc-RIB, fires OnBestChange, and queues
// re-advertisement to every peer. The candidates are the originated route
// and then each session's, in creation order; a candidate must be
// strictly better to displace an earlier one, so the first of several
// fully tied routes wins.
func (sp *Speaker) reselect(n int32) {
	e := &sp.rib[n]
	best := e.originated
	for _, s := range sp.sessions {
		if r := s.adj[n].in; r != nil && (best == nil || better(r, best)) {
			best = r
		}
	}
	old := e.best
	if best == old {
		return
	}
	if old == nil {
		sp.nBest++
	} else if best == nil {
		sp.nBest--
	}
	e.best = best
	if sp.OnBestChange != nil {
		sp.OnBestChange(e.prefix, best, old)
	}
	sp.scheduleExportAll(n)
}

func (sp *Speaker) scheduleExportAll(n int32) {
	for _, s := range sp.sessions {
		s.queue(n)
	}
}

// scheduleFullExport queues every Loc-RIB prefix on a newly established
// session (initial table exchange).
func (sp *Speaker) scheduleFullExport(s *Session) {
	for n := range sp.rib {
		if sp.rib[n].best != nil {
			s.queue(int32(n))
		}
	}
}

// better implements the decision process: highest LOCAL_PREF, shortest
// AS path, then lowest peer router ID as the deterministic tie breaker
// (all sessions are eBGP).
func better(a, b *Route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	ra, rb := routerIDOf(a), routerIDOf(b)
	if ra != rb {
		return ra < rb
	}
	return false // stable: keep current
}

func routerIDOf(r *Route) uint32 {
	if r.FromSession == nil {
		return 0 // locally originated wins ties
	}
	return r.FromSession.peer.speaker.RouterID
}

// exportRoute runs the export pipeline for best toward session s,
// returning the route to advertise or nil to suppress/withdraw.
func (sp *Speaker) exportRoute(s *Session, best *Route) *Route {
	if best == nil {
		return nil
	}
	// Split horizon: never send a route back where it came from.
	if best.FromSession == s {
		return nil
	}
	// Gao-Rexford: routes from providers/peers go only to customers.
	if best.FromSession != nil {
		from := best.FromSession.cfg.Relation
		if (from == RelProvider || from == RelPeer) && s.cfg.Relation != RelCustomer {
			return nil
		}
	}
	// The action community addressed to this speaker.
	if best.HasCommunity(NoExportTo(s.PeerAS())) {
		return nil
	}
	out := best.Clone()
	if s.cfg.StripPrivateASNs {
		out.Path = out.Path.StripPrivate()
	}
	out.Path = out.Path.Prepend(sp.AS, 1)
	out.NextHop = s.cfg.LocalAddr
	out.LocalPref = 0 // not carried on eBGP
	if s.cfg.ScrubActionCommunities {
		out.Communities = scrubActions(out.Communities)
	}
	return out
}

func scrubActions(cs []Community) []Community {
	out := cs[:0]
	for _, c := range cs {
		if c.ASN() != ActionNoExportTo {
			out = append(out, c)
		}
	}
	return out
}

// Engine returns the speaker's simulation engine.
func (sp *Speaker) Engine() *sim.Engine { return sp.eng }

func (sp *Speaker) String() string {
	return fmt.Sprintf("%s(AS%d)", sp.Name, sp.AS)
}
