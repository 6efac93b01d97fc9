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
	tab      *Table
	sessions []*Session

	// The RIBs are indexed by the prefix numbers of the network's Table,
	// which every speaker shares. They cover the numbers below the
	// highest the speaker has heard of, a page at a time.
	rib pages[ribEntry]

	// OnBestChange fires whenever the best route for a prefix changes
	// (best.Attrs nil on withdrawal). The Tango node uses it to program
	// the data-plane FIB.
	OnBestChange func(p addr.Prefix, best Route)
}

// ribEntry is the speaker's state for one numbered prefix: the locally
// originated attributes and the Loc-RIB best, each zero when absent, and
// the export sets built from best so far.
type ribEntry struct {
	originated *Attrs
	best       Route
	exports    *exportSet // memo for best: reselect drops it when best changes
}

// The RIBs grow a page at a time. A prefix number past the last page
// adds pages to the Loc-RIB and to each session's Adj-RIBs, so growth
// never copies an entry, where doubling slices re-copied every session's
// table as the speaker heard of more prefixes.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// pages is a table indexed by prefix number.
type pages[T any] []*[pageSize]T

func (p pages[T]) at(n int32) *T { return &p[n>>pageBits][n&(pageSize-1)] }

// cover grows p to hold numbers below n.
func (p *pages[T]) cover(n int) {
	for len(*p)*pageSize < n {
		*p = append(*p, new([pageSize]T))
	}
}

// exportSet is what a Loc-RIB best exports for prefix number num: its
// path with the speaker's AS prepended and its communities, for a border
// session (see SessionConfig.Border) with private ASNs stripped and
// action communities scrubbed. It is built once per best and kind of
// session and never written after exportTo returns it, so it is the
// announcement itself: every session of that kind sends it as it is, and
// the Adj-RIB-In slot of every peer that keeps the route holds its Attrs.
type exportSet struct {
	Attrs
	num    int32
	border bool
	next   *exportSet // the entry's set for the other kind of session
}

// NewSpeaker creates a speaker on the given engine that numbers prefixes
// by tab. Speakers connect only within one Table.
func NewSpeaker(eng *sim.Engine, tab *Table, name string, as ASN, routerID uint32) *Speaker {
	return &Speaker{
		Name:     name,
		AS:       as,
		RouterID: routerID,
		eng:      eng,
		tab:      tab,
	}
}

// covered returns how many prefix numbers the RIBs hold: every number
// below the highest the speaker has heard of, rounded up to a page.
func (sp *Speaker) covered() int32 { return int32(len(sp.rib) * pageSize) }

// lookup returns p's number if the speaker has heard of numbers that
// high, or -1.
func (sp *Speaker) lookup(p addr.Prefix) int32 {
	if n := sp.tab.find(p); n < sp.covered() {
		return n
	}
	return -1
}

// number returns p's number, making room for it. Originating a prefix
// outside the table is a wiring error: the network's plan missed it.
func (sp *Speaker) number(p addr.Prefix) int32 {
	n := sp.tab.find(p)
	if n < 0 {
		panic(fmt.Sprintf("bgp: %v originates %v, which is not in its network's prefix table", sp, p))
	}
	sp.cover(n)
	return n
}

// cover grows the RIB and every session's Adj-RIBs to hold number n.
func (sp *Speaker) cover(n int32) {
	if n < sp.covered() {
		return
	}
	sp.rib.cover(int(n) + 1)
	for _, s := range sp.sessions {
		s.cover(int(n) + 1)
	}
}

// Sessions returns the speaker's sessions in creation order.
func (sp *Speaker) Sessions() []*Session { return sp.sessions }

// Best returns the current best route for p, if any.
func (sp *Speaker) Best(p addr.Prefix) (Route, bool) {
	if n := sp.lookup(p); n >= 0 {
		best := sp.rib.at(n).best
		return best, best.Attrs != nil
	}
	return Route{}, false
}

// BestPrefixes returns all prefixes with a best route, sorted.
func (sp *Speaker) BestPrefixes() []addr.Prefix {
	var out []addr.Prefix
	for n := range sp.covered() {
		if sp.rib.at(n).best.Attrs != nil {
			out = append(out, sp.tab.prefixes[n])
		}
	}
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
	n := sp.number(p)
	sp.rib.at(n).originated = &Attrs{
		Path:        poison.Clone(),
		Communities: append([]Community(nil), communities...),
	}
	sp.reselect(n)
	// Even if the best route (local) is unchanged, the communities or
	// the seeded path may have changed, which alters per-peer exports.
	sp.scheduleExportAll(n)
}

// Withdraw removes a locally originated prefix.
func (sp *Speaker) Withdraw(p addr.Prefix) {
	n := sp.lookup(p)
	if n < 0 || sp.rib.at(n).originated == nil {
		return
	}
	sp.rib.at(n).originated = nil
	sp.reselect(n)
}

// Originated returns the locally originated route for p, if any.
func (sp *Speaker) Originated(p addr.Prefix) (Route, bool) {
	if n := sp.lookup(p); n >= 0 && sp.rib.at(n).originated != nil {
		return Route{Attrs: sp.rib.at(n).originated}, true
	}
	return Route{}, false
}

// OriginatedPrefixes returns every locally originated prefix in a
// deterministic (sorted) order, so seeded fault generators can pick
// withdrawal targets reproducibly.
func (sp *Speaker) OriginatedPrefixes() []addr.Prefix {
	var out []addr.Prefix
	for n := range sp.covered() {
		if sp.rib.at(n).originated != nil {
			out = append(out, sp.tab.prefixes[n])
		}
	}
	return out
}

// handleUpdate applies an announcement from a session: the sender's
// shared, immutable export set. The Adj-RIB-In keeps its Attrs as they
// came, so accepting a route allocates nothing.
func (sp *Speaker) handleUpdate(s *Session, x *exportSet) {
	// Loop prevention: a rejected route is an implicit withdrawal of any
	// route accepted before.
	if x.Path.Contains(sp.AS) && !s.cfg.AllowOwnAS {
		sp.dropIn(s, x.num)
		return
	}
	sp.cover(x.num)
	s.adj.at(x.num).in = &x.Attrs
	sp.reselect(x.num)
}

// dropIn forgets the route learned on s for prefix number n, if any; n
// is past the RIBs for a prefix the speaker has never heard of.
func (sp *Speaker) dropIn(s *Session, n int32) {
	if n >= sp.covered() || s.adj.at(n).in == nil {
		return
	}
	s.adj.at(n).in = nil
	sp.reselect(n)
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
// fully tied routes wins. A best is the same while its attributes and
// session are: a session never re-sends the export the peer last heard
// (sameExport), and a speaker builds new export sets whenever its best
// changes, so new content always arrives as new attributes.
func (sp *Speaker) reselect(n int32) {
	e := sp.rib.at(n)
	best := Route{Attrs: e.originated}
	for _, s := range sp.sessions {
		if r := (Route{s.adj.at(n).in, s}); r.Attrs != nil && (best.Attrs == nil || better(r, best)) {
			best = r
		}
	}
	if best == e.best {
		return
	}
	e.best = best
	e.exports = nil
	if sp.OnBestChange != nil {
		sp.OnBestChange(sp.tab.prefixes[n], best)
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
	for n := range sp.covered() {
		if sp.rib.at(n).best.Attrs != nil {
			s.queue(n)
		}
	}
}

// better implements the decision process: highest LOCAL_PREF, shortest
// AS path, then lowest peer router ID as the deterministic tie breaker
// (all sessions are eBGP).
func better(a, b Route) bool {
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		return la > lb
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

func routerIDOf(r Route) uint32 {
	if r.FromSession == nil {
		return 0 // locally originated wins ties
	}
	return r.FromSession.peer.speaker.RouterID
}

// exportTo runs the export pipeline for the best of prefix number n
// toward session s, returning the export set to advertise or nil to
// suppress/withdraw.
func (sp *Speaker) exportTo(s *Session, n int32) *exportSet {
	e := sp.rib.at(n)
	best := e.best
	if best.Attrs == nil {
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
	border := s.cfg.Border
	for x := e.exports; x != nil; x = x.next {
		if x.border == border {
			return x
		}
	}
	path := make(Path, 1, 1+len(best.Path))
	path[0] = sp.AS
	for _, a := range best.Path {
		if !border || !a.IsPrivate() {
			path = append(path, a)
		}
	}
	comms := best.Communities
	if border {
		comms = scrubbed(comms)
	}
	x := &exportSet{Attrs: Attrs{Path: path, Communities: comms}, num: n, border: border, next: e.exports}
	e.exports = x
	return x
}

// scrubbed returns cs without this namespace's action communities. cs is
// shared, so it is never filtered in place: a list with nothing to scrub
// comes back as it is, any other as a new list.
func scrubbed(cs []Community) []Community {
	isAction := func(c Community) bool { return c.ASN() == ActionNoExportTo }
	if !slices.ContainsFunc(cs, isAction) {
		return cs
	}
	var out []Community
	for _, c := range cs {
		if !isAction(c) {
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
