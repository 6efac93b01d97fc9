package tango

import (
	"fmt"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/topo"
)

// MeshOptions configures NewMesh, which deploys the three-site topology
// (NY, CHI, LA over NTT, Telia, GTT) in which NY and LA share only one
// provider — the situation where relaying through CHI pays off. Every
// member probes each path every 10 ms and its min-delay controller
// decides once a second.
type MeshOptions struct {
	// Seed drives every random process; equal seeds reproduce bit-for-bit.
	Seed int64
	// AuthKey enables authenticated telemetry on every border switch.
	AuthKey []byte
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
// on every deployed pair concurrently in virtual time — iterative path
// discovery in both directions, one pinned prefix announced per exposed
// path, tunnels provisioned, probing and the measurement feedback loop
// started — then wires the overlay relay tables. It returns an error for
// an establishment that does not complete or a deployed pair BGP exposed
// no path between.
func NewMesh(opts MeshOptions) (*Mesh, error) {
	return deploy(topo.TriConfig(opts.Seed), core.MeshConfig{
		ProbeInterval: probeInterval,
		DecideEvery:   decideEvery,
		NewPolicy:     func(site, peer string) control.Policy { return mkPolicy(PolicyMinDelay) },
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
