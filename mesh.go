package tango

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/topo"
)

// MeshProvider describes one transit provider of a custom mesh topology.
// Backbone delay follows the radial model: the provider's path between
// two sites costs the sum of the sites' radii scaled by the provider's
// factor, plus per-packet Gaussian noise.
type MeshProvider struct {
	Name string
	// ASN is the provider's 16-bit AS number (1-65535; Establish refuses
	// any other).
	ASN uint32
	// Scale multiplies each site's radius on this provider's backbone
	// (1.0 = the topology's fastest tier; slower carriers use >1).
	Scale float64
	// JitterStd is the per-packet delay noise.
	JitterStd time.Duration
}

// MeshSiteSpec places one site in a custom mesh topology.
type MeshSiteSpec struct {
	Name string
	// Radius is the site's distance from the (notional) network center;
	// it sets the scale of every provider path touching the site.
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
	// Establish refuses a negative value).
	ProbeInterval time.Duration
	// DecideEvery is the per-pair controller cadence (0 = 1 s; Establish
	// refuses a negative value). PolicyStaticDefault keeps traffic on the
	// BGP default path.
	DecideEvery time.Duration
	// SitePolicy selects every member controller's strategy.
	SitePolicy Policy
	// RecordBucket, when positive, records per-path OWD series.
	RecordBucket time.Duration
	// AuthKey enables authenticated telemetry on every border switch.
	AuthKey []byte
	// MaxRelays bounds intermediate sites per overlay route (0 = the
	// default of one relay; -1 restricts to direct routes).
	MaxRelays int

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
type Mesh struct {
	deployment
}

// NewMesh builds the simulated N-site deployment (BGP converged, host
// prefixes announced) without running Tango establishment yet.
func NewMesh(opts MeshOptions) *Mesh {
	var err error
	opts.ProbeInterval, opts.DecideEvery, err = cadences("MeshOptions", opts.ProbeInterval, opts.DecideEvery)
	if err != nil {
		return &Mesh{deployment: deployment{buildErr: err}}
	}
	var cfg topo.MeshConfig
	if len(opts.Sites) == 0 {
		cfg = topo.TriConfig(opts.Seed)
	} else {
		provs := make([]topo.RadialProvider, 0, len(opts.Providers))
		for _, p := range opts.Providers {
			if p.ASN == 0 || p.ASN > math.MaxUint16 {
				return &Mesh{deployment: deployment{buildErr: fmt.Errorf(
					"tango: MeshOptions provider %s has ASN %d; want 1-65535", p.Name, p.ASN)}}
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
			sites = append(sites, topo.RadialSite{
				Name:        s.Name,
				Radius:      s.Radius,
				ClockOffset: s.ClockOffset,
				Providers:   s.Providers,
			})
		}
		cfg = topo.RadialMeshConfig(opts.Seed, provs, sites, opts.Pairs)
	}
	return &Mesh{deployment: newDeployment(cfg, core.MeshConfig{
		ProbeInterval: opts.ProbeInterval,
		DecideEvery:   opts.DecideEvery,
		NewPolicy:     func(site, peer string) control.Policy { return mkPolicy(opts.SitePolicy) },
		RecordBucket:  opts.RecordBucket,
		AuthKey:       opts.AuthKey,
		MaxRelays:     opts.MaxRelays,
	})}
}

// errNotEstablished is what the Mesh methods with an error result return
// until Establish has succeeded.
var errNotEstablished = errors.New("tango: mesh not established; call Establish first and check its error")

// Sites returns the deployment's site names, sorted; nil until Establish
// has succeeded.
func (m *Mesh) Sites() []string {
	if !m.established() {
		return nil
	}
	return m.d.Mesh.Sites()
}

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
// segment estimates, best-first; nil until Establish has succeeded.
func (m *Mesh) Routes(src, dst string) []Route {
	if !m.established() {
		return nil
	}
	rs := m.d.Mesh.Routes(src, dst)
	out := make([]Route, 0, len(rs))
	for _, r := range rs {
		out = append(out, publicRoute(r))
	}
	return out
}

// BestRoute returns the currently best valid route from src to dst; false
// until Establish has succeeded.
func (m *Mesh) BestRoute(src, dst string) (Route, bool) {
	if !m.established() {
		return Route{}, false
	}
	r, ok := m.d.Mesh.Best(src, dst)
	return publicRoute(r), ok
}

// Send transmits an application payload along a specific route as a UDP
// packet between the route's endpoint host addresses. Direct routes are
// tunnelled by the origin pair; relayed routes are re-encapsulated at
// each intermediate site.
func (m *Mesh) Send(r Route, srcPort, dstPort uint16, payload []byte) error {
	if !m.established() {
		return errNotEstablished
	}
	return m.d.Mesh.SendAlong(control.CompositeRoute{Src: r.Src, Dst: r.Dst, Via: r.Via},
		srcPort, dstPort, payload)
}

// OnReceive registers a handler for application packets addressed to the
// given inner UDP port arriving at a site, whichever route carried them.
// On a refused mesh (Establish returns why) no packet can arrive, and
// OnReceive does nothing.
func (m *Mesh) OnReceive(site string, dstPort uint16, fn func(Delivery)) {
	if m.buildErr == nil {
		for _, recv := range m.d.Mesh.MembersOf(site) {
			recv.AddSink(deliverySink(recv, dstPort, fn))
		}
	}
}

// Paths returns the live per-path view of one deployed segment: the
// paths carrying traffic from site toward peer. It is an error before
// Establish has succeeded or when the pair does not exist.
func (m *Mesh) Paths(site, peer string) ([]PathInfo, error) {
	if !m.established() {
		return nil, errNotEstablished
	}
	sender := m.d.Mesh.Member(site, peer)
	recv := m.d.Mesh.Member(peer, site)
	if sender == nil || recv == nil {
		return nil, fmt.Errorf("tango: no deployed pair %s:%s", site, peer)
	}
	return pathInfos(sender, recv.Monitor), nil
}

// RelayStats reports a site's relay activity: packets re-encapsulated
// onto a next segment and packets dropped by the TTL loop guard; zero
// until Establish has succeeded.
func (m *Mesh) RelayStats(site string) (forwarded, ttlExpired uint64) {
	if !m.established() {
		return 0, 0
	}
	r := m.d.Mesh.Relay(site)
	if r == nil {
		return 0, 0
	}
	return r.Stats.Forwarded, r.Stats.TTLExpired
}
