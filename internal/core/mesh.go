package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/simnet"
	"tango/internal/topo"
)

// Mesh promotes the two-site Pair to N sites (§6, "from Tango of 2 to
// Tango of N"): Tango is deployed pairwise between adjacent sites — each
// deployment owning its own discovery, pinned prefixes and measurement
// loop — and a relay layer composes the segments into end-to-end overlay
// routes. The composite table scores every route (direct or relayed)
// from the live per-segment estimates; the data plane forwards relayed
// packets by re-encapsulating them onto the next segment at each
// intermediate site.
//
// Addressing follows prefixes-as-routes one level up: each site runs one
// member (edge server) per deployed pair, and a member's host prefix
// uniquely identifies the final overlay segment. The origin therefore
// selects a route by choosing which member's prefix to target — no
// per-packet route header beyond the relay TTL.

// MeshConfig configures an N-site deployment. The per-pair timing knobs
// mirror PairConfig and apply to every deployed pair.
type MeshConfig struct {
	// MaxRounds/ProbeInterval/DecideEvery are passed through to each
	// pair (see PairConfig).
	MaxRounds     int
	ProbeInterval time.Duration
	DecideEvery   time.Duration
	// NewPolicy builds the path-selection policy steering traffic from
	// site toward peer. Policies hold state (dwell timers), so the mesh
	// needs a fresh instance per direction; nil uses the Pair default.
	NewPolicy func(site, peer string) control.Policy
	// RecordBucket enables per-path OWD series recording.
	RecordBucket time.Duration
	// AuthKey enables authenticated telemetry on every switch.
	AuthKey []byte
	// MaxRelays bounds intermediate sites per overlay route (0 = the
	// default of 1; -1 = direct only). See control.CompositeTable.
	MaxRelays int
}

// segmentStaleAfter discards a segment's estimate when its freshest path
// sample is older than this; a silent segment then poisons the routes
// through it.
const segmentStaleAfter = 10 * time.Second

// Mesh is an established N-site deployment.
type Mesh struct {
	// Table scores end-to-end routes from the live segment estimates.
	Table *control.CompositeTable

	net     *simnet.Network // drives time through its coordinator
	pairs   []*Pair
	members map[string]map[string]*Site // members[site][peer]
	relays  map[string]*dataplane.Relay // one per site, attached to all members
	sendBuf *packet.SerializeBuffer     // reused by SendAlong; Site.Send borrows
	ready   bool
}

// MeshFromScenario prepares (but does not start) Tango on every pair of a
// built topo mesh, in the scenario's pair order, on the edge servers and
// prefixes the scenario allocated.
func MeshFromScenario(s *topo.MeshScenario, cfg MeshConfig) (*Mesh, error) {
	if len(s.PairKeys) == 0 {
		return nil, fmt.Errorf("core: mesh needs at least one link")
	}
	m := &Mesh{
		Table:   control.NewCompositeTable(),
		net:     s.B.W,
		members: map[string]map[string]*Site{},
		relays:  map[string]*dataplane.Relay{},
		sendBuf: packet.NewSerializeBuffer(),
	}
	m.Table.MaxRelays = cfg.MaxRelays
	m.Table.Source = m.segmentEstimate

	for _, pk := range s.PairKeys {
		a, b := pk[0], pk[1]
		pc := PairConfig{
			MaxRounds:     cfg.MaxRounds,
			ProbeInterval: cfg.ProbeInterval,
			DecideEvery:   cfg.DecideEvery,
			RecordBucket:  cfg.RecordBucket,
			AuthKey:       cfg.AuthKey,
		}
		if cfg.NewPolicy != nil {
			pc.PolicyA = cfg.NewPolicy(a, b)
			pc.PolicyB = cfg.NewPolicy(b, a)
		}
		p := newPair(s, a, b, pc)
		m.pairs = append(m.pairs, p)
		m.addMember(a, b, p.A)
		m.addMember(b, a, p.B)
		m.Table.AddLink(a, b)
	}
	// One relay per site, attached to every member switch: a relayed
	// packet arrives at whichever member terminates the previous segment
	// and leaves through the member facing the next one.
	for site, peers := range m.members {
		r := dataplane.NewRelay()
		m.relays[site] = r
		for _, member := range peers {
			r.Attach(member.Switch)
		}
	}
	return m, nil
}

func (m *Mesh) addMember(site, peer string, s *Site) {
	if m.members[site] == nil {
		m.members[site] = map[string]*Site{}
	}
	m.members[site][peer] = s
}

// Ready reports whether every pair finished establishing.
func (m *Mesh) Ready() bool { return m.ready }

// Instrument registers every member edge server's metrics in reg and
// journals path switches to j, each member under its label.
func (m *Mesh) Instrument(reg *obs.Registry, j *obs.Journal) {
	for _, site := range m.Sites() {
		for _, peer := range m.peersOf(site) {
			m.members[site][peer].instrument(reg, j, m.label(site, peer))
		}
	}
}

// label is the one rule naming a member in metrics and journal records.
// A site deployed on several links runs one member switch per adjacent
// peer, so members are "site->peer" (plain site names would alias
// distinct switches onto one instrument); a one-link deployment — the
// paper's two-site lab — has one member per site, and the site name
// says it all.
func (m *Mesh) label(site, peer string) string {
	if len(m.pairs) == 1 {
		return site
	}
	return site + "->" + peer
}

// Sites returns the mesh's site names, sorted.
func (m *Mesh) Sites() []string { return m.Table.Sites() }

// Member returns the site's edge server facing peer, or nil.
func (m *Mesh) Member(site, peer string) *Site { return m.members[site][peer] }

// MembersOf returns the site's member edge servers sorted by the peer
// they face — a deterministic enumeration (the members map would leak
// iteration order) for callers wiring per-member state such as flow
// endpoints.
func (m *Mesh) MembersOf(site string) []*Site {
	peers := m.peersOf(site)
	out := make([]*Site, len(peers))
	for i, peer := range peers {
		out[i] = m.members[site][peer]
	}
	return out
}

// peersOf returns the sites that site has a deployed link to, sorted.
func (m *Mesh) peersOf(site string) []string {
	peers := make([]string, 0, len(m.members[site]))
	for peer := range m.members[site] {
		peers = append(peers, peer)
	}
	sort.Strings(peers)
	return peers
}

// Relay returns the site's relay program (for stats inspection).
func (m *Mesh) Relay(site string) *dataplane.Relay { return m.relays[site] }

// Pairs returns the underlying pairwise deployments in link order.
func (m *Mesh) Pairs() []*Pair { return m.pairs }

// Establish starts every pair's establishment sequence concurrently —
// each pair owns distinct probe and pinned prefixes, so the discovery
// rounds do not interfere — and wires the relay tables once all pairs
// are provisioned.
func (m *Mesh) Establish() {
	remaining := len(m.pairs)
	for _, p := range m.pairs {
		p.OnReady = func() {
			remaining--
			if remaining > 0 {
				return
			}
			m.wireRelays()
			m.ready = true
		}
		p.Establish()
	}
}

// RunUntilReady drives the simulation until establishment completes or
// the deadline passes, reporting success. Time is driven through the
// coordinator, never an individual partition engine; establishment runs
// in coupled mode, where the cross-site calls of discovery and
// provisioning are exact (Deployment.Establish leaves it once every pair
// is ready).
func (m *Mesh) RunUntilReady(maxVirtual time.Duration) bool {
	return runUntil(m.net, m.Ready, maxVirtual)
}

// wireRelays installs the overlay forwarding state for every enumerable
// relayed route: the origin member tags traffic for the final member's
// host prefix with the segment-count TTL, and each intermediate site's
// relay maps that prefix to the egress member of its next segment.
//
// With the default MaxRelays of 1 the final member's prefix uniquely
// identifies the route, so the tables are conflict-free. Longer chains
// can share a final prefix across routes; enumeration order (sorted
// sites, best-first routes) then makes the last write deterministic.
func (m *Mesh) wireRelays() {
	sites := m.Table.Sites()
	for _, src := range sites {
		for _, dst := range sites {
			if src == dst {
				continue
			}
			for _, r := range m.Table.Routes(src, dst) {
				if r.Direct() {
					continue
				}
				seq := r.Segments()
				origin := m.members[src][seq[1]]
				final := m.members[dst][seq[len(seq)-2]]
				origin.Switch.AddRelayPrefix(final.Spec.HostPrefix, uint8(len(seq)-1))
				for i := 1; i+1 < len(seq); i++ {
					m.relays[seq[i]].AddRoute(final.Spec.HostPrefix, m.members[seq[i]][seq[i+1]].Switch)
				}
			}
		}
	}
}

// segmentEstimate scores one overlay segment from the receiving member's
// monitor: the minimum smoothed OWD across that segment's live paths
// (each pair's controller steers onto its best path, so the segment
// contributes its best) plus that path's smoothed jitter. Values stay in
// the receiver's clock domain; see the package comment in
// control/routes.go for why composite comparisons remain exact.
func (m *Mesh) segmentEstimate(from, to string) control.SegmentEstimate {
	recv := m.members[to][from]
	if recv == nil {
		return control.SegmentEstimate{}
	}
	var est control.SegmentEstimate
	for _, pm := range recv.Monitor.Paths() {
		if pm.Est == nil || !pm.Est.Valid() {
			continue
		}
		if m.net.Now()-pm.LastAt > segmentStaleAfter {
			continue
		}
		if !est.Valid || pm.Est.Value() < est.OWDMs {
			est = control.SegmentEstimate{
				OWDMs:    pm.Est.Value(),
				JitterMs: pm.JitEst.Value(),
				Valid:    true,
			}
		}
	}
	return est
}

// Routes returns every end-to-end route from src to dst, scored and
// sorted best-first.
func (m *Mesh) Routes(src, dst string) []control.CompositeRoute {
	return m.Table.Routes(src, dst)
}

// Best returns the current best valid route.
func (m *Mesh) Best(src, dst string) (control.CompositeRoute, bool) {
	return m.Table.Best(src, dst)
}

// RouteMembers resolves a route to its origin member (where traffic
// enters the overlay) and final member (whose host prefix it targets).
func (m *Mesh) RouteMembers(r control.CompositeRoute) (origin, final *Site, err error) {
	seq := r.Segments()
	if len(seq) < 2 {
		return nil, nil, fmt.Errorf("core: route %v too short", seq)
	}
	origin = m.members[r.Src][seq[1]]
	final = m.members[r.Dst][seq[len(seq)-2]]
	if origin == nil || final == nil {
		return nil, nil, fmt.Errorf("core: route %v crosses undeployed links", seq)
	}
	return origin, final, nil
}

// SendAlong injects one application packet onto a specific route: the
// inner packet is addressed from the origin member's host space to the
// final member's, which the data plane maps to direct tunnelling (direct
// routes) or relay-tagged encapsulation (relayed routes).
func (m *Mesh) SendAlong(r control.CompositeRoute, sport, dport uint16, payload []byte) error {
	origin, final, err := m.RouteMembers(r)
	if err != nil {
		return err
	}
	src, err := origin.HostAddr()
	if err != nil {
		return err
	}
	dst, err := final.HostAddr()
	if err != nil {
		return err
	}
	// Site.Send only borrows the view of sendBuf (the data plane
	// re-serializes into a pooled buffer), so nothing is copied here.
	inner, err := packet.InnerUDP{Src: src, Dst: dst, SrcPort: sport, DstPort: dport}.Build(m.sendBuf, payload)
	if err != nil {
		return err
	}
	origin.Send(inner)
	return nil
}

// AddSink registers a delivery consumer on every member of a site, so
// the sink sees traffic regardless of which overlay route carried it.
func (m *Mesh) AddSink(site string, fn func(inner []byte) bool) {
	for _, s := range m.members[site] {
		s.AddSink(fn)
	}
}

// HostAddr returns the canonical application address (::1) inside the
// member's host prefix — the address SendAlong targets.
func (s *Site) HostAddr() (netip.Addr, error) { return s.Spec.HostPrefix.Host(1) }
