package bgp

import (
	"fmt"
	"sort"

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

	originated map[addr.Prefix]*Route
	locRIB     map[addr.Prefix]*Route

	// OnBestChange fires whenever the best route for a prefix changes
	// (newBest nil on withdrawal). The Tango node uses it to program
	// the data-plane FIB.
	OnBestChange func(p addr.Prefix, newBest, old *Route)
}

// NewSpeaker creates a speaker on the given engine.
func NewSpeaker(eng *sim.Engine, name string, as ASN, routerID uint32) *Speaker {
	return &Speaker{
		Name:       name,
		AS:         as,
		RouterID:   routerID,
		eng:        eng,
		originated: make(map[addr.Prefix]*Route),
		locRIB:     make(map[addr.Prefix]*Route),
	}
}

// Sessions returns the speaker's sessions in creation order.
func (sp *Speaker) Sessions() []*Session { return sp.sessions }

// Best returns the current best route for p, or nil.
func (sp *Speaker) Best(p addr.Prefix) *Route { return sp.locRIB[p] }

// BestPrefixes returns all prefixes with a best route, sorted.
func (sp *Speaker) BestPrefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(sp.locRIB))
	for p := range sp.locRIB {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
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
		Origin:      OriginIGP,
		LocalPref:   1 << 30, // locally originated beats anything learned
		Communities: append([]Community(nil), communities...),
	}
	sp.originated[p] = r
	sp.reselect(p)
	// Even if the best route (local) is unchanged, the communities or
	// the seeded path may have changed, which alters per-peer exports.
	sp.scheduleExportAll(p)
}

// Withdraw removes a locally originated prefix.
func (sp *Speaker) Withdraw(p addr.Prefix) {
	if _, ok := sp.originated[p]; !ok {
		return
	}
	delete(sp.originated, p)
	sp.reselect(p)
}

// Originated returns the locally originated route for p, if any.
func (sp *Speaker) Originated(p addr.Prefix) (*Route, bool) {
	r, ok := sp.originated[p]
	return r, ok
}

// OriginatedPrefixes returns every locally originated prefix in a
// deterministic (sorted) order, so seeded fault generators can pick
// withdrawal targets reproducibly.
func (sp *Speaker) OriginatedPrefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(sp.originated))
	for p := range sp.originated {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// handleUpdate applies a decoded UPDATE from a session.
func (sp *Speaker) handleUpdate(s *Session, u *Update) {
	for _, p := range u.Withdrawn {
		if _, ok := s.adjIn[p]; ok {
			delete(s.adjIn, p)
			sp.reselect(p)
		}
	}
	for _, p := range u.Announced {
		r := &Route{
			Prefix:      p,
			Path:        u.Attrs.Path.Clone(),
			NextHop:     u.Attrs.NextHop,
			Origin:      u.Attrs.Origin,
			MED:         u.Attrs.MED,
			Communities: append([]Community(nil), u.Attrs.Communities...),
			FromSession: s,
		}
		imported := sp.importRoute(s, r)
		if imported == nil {
			// An implicit withdrawal if we previously accepted one.
			if _, ok := s.adjIn[p]; ok {
				delete(s.adjIn, p)
				sp.reselect(p)
			}
			continue
		}
		s.adjIn[p] = imported
		sp.reselect(p)
	}
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

// reselect re-runs the decision process for p and, on change, updates the
// Loc-RIB, fires OnBestChange, and queues re-advertisement to every peer.
func (sp *Speaker) reselect(p addr.Prefix) {
	var candidates []*Route
	if r, ok := sp.originated[p]; ok {
		candidates = append(candidates, r)
	}
	for _, s := range sp.sessions {
		if r, ok := s.adjIn[p]; ok {
			candidates = append(candidates, r)
		}
	}
	best := pickBest(candidates)
	old := sp.locRIB[p]
	if best == old {
		return
	}
	if best == nil {
		delete(sp.locRIB, p)
	} else {
		sp.locRIB[p] = best
	}
	if sp.OnBestChange != nil {
		sp.OnBestChange(p, best, old)
	}
	sp.scheduleExportAll(p)
}

func (sp *Speaker) scheduleExportAll(p addr.Prefix) {
	for _, s := range sp.sessions {
		s.queue(p)
	}
}

// scheduleFullExport queues every Loc-RIB prefix on a newly established
// session (initial table exchange).
func (sp *Speaker) scheduleFullExport(s *Session) {
	for p := range sp.locRIB {
		s.queue(p)
	}
}

// pickBest implements the decision process: highest LOCAL_PREF, shortest
// AS path, lowest origin, lowest MED, then lowest peer router ID as the
// deterministic tie breaker (all sessions are eBGP).
func pickBest(cands []*Route) *Route {
	var best *Route
	for _, r := range cands {
		if best == nil || better(r, best) {
			best = r
		}
	}
	return best
}

func better(a, b *Route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.MED != b.MED {
		return a.MED < b.MED
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
	if best.HasCommunity(CommunityNoExport) || best.HasCommunity(CommunityNoAdvertise) {
		return nil
	}
	// Action communities addressed to this speaker.
	peerAS := s.PeerAS()
	if best.HasCommunity(NoExportTo(peerAS)) {
		return nil
	}
	out := best.Clone()
	out.FromSession = best.FromSession
	prepends := 1
	switch {
	case best.HasCommunity(PrependTo(peerAS, 3)):
		prepends = 4
	case best.HasCommunity(PrependTo(peerAS, 2)):
		prepends = 3
	case best.HasCommunity(PrependTo(peerAS, 1)):
		prepends = 2
	}
	if s.cfg.StripPrivateASNs {
		out.Path = out.Path.StripPrivate()
	}
	out.Path = out.Path.Prepend(sp.AS, prepends)
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
		switch c.ASN() {
		case ActionNoExportTo, ActionPrepend1, ActionPrepend2, ActionPrepend3:
		default:
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
