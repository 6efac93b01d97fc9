package tango

import (
	"fmt"
	"math"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/topo"
)

// MeshProvider describes one transit provider of a custom mesh topology.
// Backbone delay follows the radial model: the provider's path between
// two sites costs the sum of the sites' radii scaled by the provider's
// factor, plus per-packet Gaussian noise.
type MeshProvider struct {
	Name string
	// ASN is the provider's 16-bit AS number (1-65535; NewMesh refuses
	// any other).
	ASN uint32
	// Scale multiplies each site's radius on this provider's backbone
	// (1.0 = the topology's fastest tier; slower carriers use >1).
	// NewMesh refuses a negative, infinite or NaN scale.
	Scale float64
	// JitterStd is the per-packet delay noise (NewMesh refuses a
	// negative one).
	JitterStd time.Duration
}

// MeshSiteSpec places one site in a custom mesh topology.
type MeshSiteSpec struct {
	Name string
	// Radius is the site's distance from the (notional) network center;
	// it sets the scale of every provider path touching the site
	// (NewMesh refuses a negative radius).
	Radius time.Duration
	// ClockOffset skews the site's server clocks (unsynchronised sites
	// are the realistic default; zero means perfectly synced).
	ClockOffset time.Duration
	// Providers lists the transit providers the site's POP attaches to.
	Providers []string
}

// MeshOptions configures NewMesh. Leaving Providers/Sites/Pairs empty
// deploys the default three-site topology (NY, CHI, LA over NTT, Telia,
// GTT) in which NY and LA share only one provider — the situation where
// relaying through CHI pays off.
type MeshOptions struct {
	// Seed drives every random process; equal seeds reproduce bit-for-bit.
	Seed int64
	// ProbeInterval is the per-path measurement cadence (0 = 10 ms;
	// NewMesh refuses a negative value).
	ProbeInterval time.Duration
	// DecideEvery is the per-pair controller cadence (0 = 1 s; NewMesh
	// refuses a negative value). PolicyStaticDefault keeps traffic on the
	// BGP default path.
	DecideEvery time.Duration
	// SitePolicy selects every member controller's strategy (NewMesh
	// refuses a value that is none of the Policy constants).
	SitePolicy Policy
	// AuthKey enables authenticated telemetry on every border switch.
	AuthKey []byte

	// Providers/Sites/Pairs define a custom topology. Pairs lists the
	// site pairs that deploy Tango; sites without a pair between them can
	// still be connected through relays.
	Providers []MeshProvider
	Sites     []MeshSiteSpec
	Pairs     [][2]string
}

// Mesh is an N-site Tango deployment: pairwise Tango between the
// configured site pairs, composed into an overlay that can relay traffic
// through intermediate sites when every direct wide-area path degrades.
// A Lab is the one-link case.
type Mesh struct {
	d     *core.Deployment
	chaos *Chaos // built by the first Chaos call
}

// NewMesh builds the simulated N-site deployment and establishes Tango
// on every configured pair concurrently in virtual time — iterative path
// discovery in both directions, one pinned prefix announced per exposed
// path, tunnels provisioned, probing and the measurement feedback loop
// started — then wires the overlay relay tables. It returns an error for
// a refused option, an invalid topology, an establishment that does not
// complete, or a deployed pair BGP exposed no path between.
func NewMesh(opts MeshOptions) (*Mesh, error) {
	var err error
	opts.ProbeInterval, opts.DecideEvery, err = cadences("MeshOptions", opts.ProbeInterval, opts.DecideEvery)
	if err == nil {
		err = checkPolicy("MeshOptions.SitePolicy", opts.SitePolicy)
	}
	if err != nil {
		return nil, err
	}
	refuse := func(format string, a ...any) (*Mesh, error) {
		return nil, fmt.Errorf("tango: MeshOptions "+format, a...)
	}
	var cfg topo.MeshConfig
	if len(opts.Sites) == 0 {
		cfg = topo.TriConfig(opts.Seed)
	} else {
		provs := make([]topo.RadialProvider, 0, len(opts.Providers))
		for _, p := range opts.Providers {
			switch {
			case p.ASN == 0 || p.ASN > math.MaxUint16:
				return refuse("provider %s has ASN %d; want 1-65535", p.Name, p.ASN)
			case !(p.Scale >= 0) || math.IsInf(p.Scale, 1):
				return refuse("provider %s has Scale %g; want a finite value, 0 or more", p.Name, p.Scale)
			case p.JitterStd < 0:
				return refuse("provider %s has JitterStd %v; want 0 or more", p.Name, p.JitterStd)
			}
			provs = append(provs, topo.RadialProvider{
				Name:  p.Name,
				ASN:   bgp.ASN(p.ASN),
				Scale: p.Scale,
				Std:   p.JitterStd,
			})
		}
		sites := make([]topo.RadialSite, 0, len(opts.Sites))
		for _, s := range opts.Sites {
			if s.Radius < 0 {
				return refuse("site %s has Radius %v; want 0 or more", s.Name, s.Radius)
			}
			sites = append(sites, topo.RadialSite{
				Name:        s.Name,
				Radius:      s.Radius,
				ClockOffset: s.ClockOffset,
				Providers:   s.Providers,
			})
		}
		cfg = topo.RadialMeshConfig(opts.Seed, provs, sites, opts.Pairs)
	}
	return deploy(cfg, core.MeshConfig{
		ProbeInterval: opts.ProbeInterval,
		DecideEvery:   opts.DecideEvery,
		NewPolicy:     func(site, peer string) control.Policy { return mkPolicy(opts.SitePolicy) },
		AuthKey:       opts.AuthKey,
	})
}

// deploy builds tc and establishes Tango on it as mc configures.
func deploy(tc topo.MeshConfig, mc core.MeshConfig) (*Mesh, error) {
	d, err := core.Deploy(tc, mc)
	if err != nil {
		return nil, err
	}
	return &Mesh{d: d}, nil
}

// Instrument registers the deployment's metrics in reg — every edge
// server's switch, monitor and controller (labelled by site on a Lab,
// "site->peer" on a Mesh), the fault counters, and one
// tango_line_drops_total series per provider trunk labelled
// line="trunk/<site>/<provider>" — and journals structured events (path
// switches, fault applies and reverts, queue drops) to j. Both are
// typically served with obs.Handler.
func (m *Mesh) Instrument(reg *obs.Registry, j *obs.Journal) { m.d.Instrument(reg, j) }

// Run advances the deployment by d of virtual time.
func (m *Mesh) Run(d time.Duration) { m.d.Scenario.Run(d) }

// Now returns the current virtual time.
func (m *Mesh) Now() time.Duration { return m.d.Scenario.B.W.Now() }

// Sites returns the deployment's site names, sorted.
func (m *Mesh) Sites() []string { return m.d.Mesh.Sites() }

// Route is one end-to-end overlay route: direct (empty Via) or relayed
// through the named sites in order. OWDMs/JitterMs sum the live smoothed
// per-segment estimates; the per-segment clock offsets telescope, so
// routes of the same site pair compare exactly even though absolute
// values carry a constant offset.
type Route struct {
	Src, Dst string
	Via      []string
	// OWDMs and JitterMs are the summed segment estimates (receiver
	// clock domains; compare within a site pair, not across pairs).
	OWDMs, JitterMs float64
	// Valid reports whether every segment currently has a live estimate.
	Valid bool
}

// Relayed reports whether the route hands traffic through relay sites.
func (r Route) Relayed() bool { return len(r.Via) > 0 }

// String renders the route's site sequence.
func (r Route) String() string {
	s := r.Src
	for _, v := range r.Via {
		s += "->" + v
	}
	return s + "->" + r.Dst
}

func publicRoute(r control.CompositeRoute) Route {
	return Route{Src: r.Src, Dst: r.Dst, Via: r.Via, OWDMs: r.OWDMs, JitterMs: r.JitterMs, Valid: r.Valid}
}

// Routes returns every route from src to dst scored from the live
// segment estimates, best-first.
func (m *Mesh) Routes(src, dst string) []Route {
	rs := m.d.Mesh.Routes(src, dst)
	out := make([]Route, 0, len(rs))
	for _, r := range rs {
		out = append(out, publicRoute(r))
	}
	return out
}

// BestRoute returns the currently best valid route from src to dst, or
// false when no route has a live estimate on every segment.
func (m *Mesh) BestRoute(src, dst string) (Route, bool) {
	r, ok := m.d.Mesh.Best(src, dst)
	return publicRoute(r), ok
}

// Send transmits an application payload along a specific route as a UDP
// packet between the route's endpoint host addresses. Direct routes are
// tunnelled by the origin pair; relayed routes are re-encapsulated at
// each intermediate site.
func (m *Mesh) Send(r Route, srcPort, dstPort uint16, payload []byte) error {
	return m.d.Mesh.SendAlong(control.CompositeRoute{Src: r.Src, Dst: r.Dst, Via: r.Via},
		srcPort, dstPort, payload)
}

// OnReceive registers a handler for application packets addressed to the
// given inner UDP port arriving at a site, whichever route carried them.
func (m *Mesh) OnReceive(site string, dstPort uint16, fn func(Delivery)) {
	for _, recv := range m.d.Mesh.MembersOf(site) {
		recv.AddSink(deliverySink(recv, dstPort, fn))
	}
}

// Paths returns the live per-path view of one deployed segment: the
// paths carrying traffic from site toward peer. It is an error when the
// pair does not exist.
func (m *Mesh) Paths(site, peer string) ([]PathInfo, error) {
	sender := m.d.Mesh.Member(site, peer)
	recv := m.d.Mesh.Member(peer, site)
	if sender == nil || recv == nil {
		return nil, fmt.Errorf("tango: no deployed pair %s:%s", site, peer)
	}
	return pathInfos(sender, recv.Monitor), nil
}

// RelayStats reports a site's relay activity: packets re-encapsulated
// onto a next segment and packets dropped by the TTL loop guard; zero
// for a site the mesh does not have.
func (m *Mesh) RelayStats(site string) (forwarded, ttlExpired uint64) {
	r := m.d.Mesh.Relay(site)
	if r == nil {
		return 0, 0
	}
	return r.Stats.Forwarded, r.Stats.TTLExpired
}
