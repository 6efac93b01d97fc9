// Package core assembles a complete Tango deployment from the substrates:
// it runs the §4.1 discovery loop in both directions, originates one
// pinned prefix per exposed path (prefixes-as-routes), provisions the
// tunnels, and wires the measurement loop — receiver-side monitor,
// piggybacked reports, sender-side controller — for each direction.
//
// The result is the system of Figure 2: two border switches that between
// them see every exposed wide-area path, measure each path's one-way
// delay continuously, and steer traffic per packet.
//
// Three layers, each built from the one below: Edge is one border switch
// with its measurement loop on any transport endpoint, Pair discovers the
// paths between two sites and starts an Edge on each, Mesh composes pairs
// with relay forwarding. Deploy stands the whole thing up from a topology
// (DESIGN.md §7).
package core

import (
	"fmt"
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/topo"
)

// SiteSpec describes one cooperating edge network.
type SiteSpec struct {
	// Name labels the site ("ny", "la").
	Name string
	// Edge is the site's server: BGP speaker plus forwarding node.
	Edge *topo.AS
	// POPAS is the provider-facing AS in front of the site (the Vultr
	// POP), used by discovery to identify the delivering provider.
	POPAS bgp.ASN
	// Block is institutional prefix space subnetted into one /48 per
	// exposed path (the paper announces four /48s per server).
	Block addr.Prefix
	// HostPrefix addresses the site's end hosts; it is announced over
	// plain BGP for non-Tango reachability.
	HostPrefix addr.Prefix
	// ProbePrefix is used during discovery and withdrawn afterwards.
	ProbePrefix addr.Prefix
}

// PairConfig configures Establish.
type PairConfig struct {
	// MaxRounds bounds discovery rounds per direction, and with them the
	// number of paths a pair can expose (control.Discoverer defaults
	// to 8; deployments sharing more providers must raise it).
	MaxRounds int
	// ProbeInterval enables per-path probing at this interval when
	// positive (the paper uses 10 ms).
	ProbeInterval time.Duration
	// DecideEvery starts each site's controller at this cadence when
	// positive.
	DecideEvery time.Duration
	// PolicyA/PolicyB are the path-selection policies (default MinOWD
	// with a 0.5 ms absolute margin and 2 s dwell).
	PolicyA, PolicyB control.Policy
	// RecordBucket, when positive, records per-path OWD series at this
	// aggregation (for figures).
	RecordBucket time.Duration
	// AuthKey, when non-empty, enables authenticated telemetry on both
	// switches: Tango datagrams are signed and unverified ones dropped
	// (paper §6, trustworthy telemetry).
	AuthKey []byte
}

// Timing every pair shares (virtual time).
const (
	// roundWait is the discovery per-round convergence wait.
	roundWait = 2 * time.Minute
	// settleWait follows the origination of the pinned prefixes, before
	// tunnels are provisioned over them.
	settleWait = 3 * time.Minute
	// reportInterval paces piggybacked measurement reports; a path that
	// has delivered nothing for reportMaxAge is no longer reported, so
	// the sender's estimate goes stale.
	reportInterval = 100 * time.Millisecond
	reportMaxAge   = 2 * time.Second
)

// Site is one side of an established pair.
type Site struct {
	Spec SiteSpec
	// Edge is the site's border switch and measurement loop (Switch,
	// Monitor, Controller, Reporter, Prober).
	*Edge
	// OutPaths are the discovered wide-area paths for traffic leaving
	// this site, indexed by tunnel PathID-1.
	OutPaths []control.DiscoveredPath

	// SwitchAddr is the outer source address for this site's tunnels.
	SwitchAddr netip.Addr
	// Endpoints are this site's announced tunnel endpoints (incoming).
	Endpoints []netip.Addr

	peer  *Site
	sinks []func([]byte) bool
}

// Send passes a host packet to the site's border switch (tunnelled when
// its destination belongs to the peer site).
func (s *Site) Send(inner []byte) { s.Switch.HandleHostTraffic(inner) }

// AddSink registers a consumer for decapsulated inner packets arriving at
// this site; the first sink returning true claims the packet.
func (s *Site) AddSink(fn func([]byte) bool) { s.sinks = append(s.sinks, fn) }

// PathName returns the provider label for one of this site's outgoing
// path IDs.
func (s *Site) PathName(id uint8) string {
	i := int(id) - 1
	if i < 0 || i >= len(s.OutPaths) {
		return fmt.Sprintf("path-%d", id)
	}
	return s.OutPaths[i].ProviderName
}

// PinnedPrefix returns the /48 this site originated for one of its
// *incoming* paths (the peer's outgoing path id). Fault injectors
// withdraw it to simulate the path's tunnel endpoint vanishing from the
// global routing table.
func (s *Site) PinnedPrefix(id uint8) (addr.Prefix, error) {
	i := int(id) - 1
	if i < 0 || i >= len(s.Endpoints) {
		return addr.Prefix{}, fmt.Errorf("core: site %s has no incoming path %d", s.Spec.Name, id)
	}
	return s.Spec.Block.Subnet(48, i)
}

// Peer returns the other site.
func (s *Site) Peer() *Site { return s.peer }

// Eng returns the engine the site's events run on: its partition's
// engine. Workloads that emit at this site (generators, probers) must
// tick here.
func (s *Site) Eng() *sim.Engine { return s.Spec.Edge.Speaker.Engine() }

// Instrument registers the site's switch, monitor, and controller
// metrics in reg under the site's name and journals its path switches
// to j.
func (s *Site) Instrument(reg *obs.Registry, j *obs.Journal) {
	s.instrument(reg, j, s.Spec.Name)
}

func (s *Site) instrument(reg *obs.Registry, j *obs.Journal, name string) {
	s.Edge.Instrument(reg, shardView(j, s), name)
}

// shardView returns the journal view a site's controller may write: the
// site partition's staging view when its events stage (merged into j at
// epoch barriers, in canonical order), else j itself.
func shardView(j *obs.Journal, s *Site) *obs.Journal {
	if eng := s.Eng(); eng.Staged() {
		return j.Shard(eng.Part())
	}
	return j
}

// Pair is a Tango deployment between two sites.
type Pair struct {
	A, B *Site

	cfg   PairConfig
	s     *topo.MeshScenario // names providers; its network drives time
	ready bool
	// OnReady fires once both directions are provisioned.
	OnReady func()
}

// Ready reports whether establishment completed.
func (p *Pair) Ready() bool { return p.ready }

// Instrument registers both sites' metrics in reg (labelled by site
// name) and journals their path switches to j. Call after Establish so
// every tunnel and path is known; lazily created paths still register
// on first report.
func (p *Pair) Instrument(reg *obs.Registry, j *obs.Journal) {
	p.A.Instrument(reg, j)
	p.B.Instrument(reg, j)
}

// newPair prepares (but does not start) Tango between sites a and b of s,
// on the edge servers s built for that pair. The two live on partition
// engines of one coordinator, often the same one: establishment runs in
// coupled mode, where cross-site calls are exact, and only the traffic
// that follows it runs in parallel epochs.
func newPair(s *topo.MeshScenario, a, b string, cfg PairConfig) *Pair {
	if cfg.PolicyA == nil {
		cfg.PolicyA = &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second}
	}
	if cfg.PolicyB == nil {
		cfg.PolicyB = &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second}
	}
	p := &Pair{cfg: cfg, s: s}
	p.A = newSite(siteSpec(s, a, b))
	p.B = newSite(siteSpec(s, b, a))
	p.A.peer, p.B.peer = p.B, p.A
	return p
}

// siteSpec describes the edge server s built at site for its pair with
// peer, named by its edge key "site:peer".
func siteSpec(s *topo.MeshScenario, site, peer string) SiteSpec {
	key := site + ":" + peer
	return SiteSpec{
		Name:        key,
		Edge:        s.Edges[key],
		POPAS:       s.POPs[site].ASN,
		Block:       s.Block[key],
		HostPrefix:  s.HostPrefix[key],
		ProbePrefix: s.Probe[key],
	}
}

func newSite(spec SiteSpec) *Site {
	s := &Site{Spec: spec, Edge: NewEdge(spec.Edge.Node, spec.Edge.Speaker.Engine())}
	// The switch's outer source address lives near the top of the host
	// prefix.
	sa, err := spec.HostPrefix.Host(0xfffe)
	if err != nil {
		panic(err)
	}
	s.SwitchAddr = sa
	spec.Edge.Node.AddAddr(sa)
	s.Switch.DeliverLocal = func(inner []byte) {
		for _, sink := range s.sinks {
			if sink(inner) {
				return
			}
		}
	}
	return s
}

// Establish schedules the full establishment sequence on the engine and
// returns immediately; drive the engine (e.g. Pair.RunUntilReady) to make
// progress. Sequence: concurrent bidirectional discovery, pinned prefix
// origination, settle, tunnel provisioning and measurement wiring.
func (p *Pair) Establish() {
	remaining := 2
	finish := func() {
		if remaining--; remaining > 0 {
			return
		}
		// Each site originates one pinned prefix per path toward it.
		originatePinned(p.B, p.A.OutPaths)
		originatePinned(p.A, p.B.OutPaths)
		p.A.Eng().Schedule(settleWait, func() {
			p.start(p.A, p.cfg.PolicyA)
			p.start(p.B, p.cfg.PolicyB)
			if every := p.cfg.ProbeInterval; every > 0 {
				aHost, _ := p.A.Spec.HostPrefix.Host(0xfffd)
				bHost, _ := p.B.Spec.HostPrefix.Host(0xfffd)
				p.A.Probe(aHost, bHost, every)
				p.B.Probe(bHost, aHost, every)
			}
			p.ready = true
			if p.OnReady != nil {
				p.OnReady()
			}
		})
	}
	// discover finds the paths for src->dst traffic: dst announces, src
	// observes.
	discover := func(src, dst *Site) {
		d := &control.Discoverer{
			Announcer: dst.Spec.Edge.Speaker,
			Observer:  src.Spec.Edge.Speaker,
			Probe:     dst.Spec.ProbePrefix,
			POPAS:     dst.Spec.POPAS,
			NameFor:   p.s.ProviderName,
			RoundWait: roundWait,
			MaxRounds: p.cfg.MaxRounds,
		}
		d.Run(func(found []control.DiscoveredPath) { src.OutPaths = found; finish() })
	}
	discover(p.A, p.B)
	discover(p.B, p.A)
}

// originatePinned has dst announce one /48 per incoming path, pinned to
// that path's provider by suppressing all others.
func originatePinned(dst *Site, paths []control.DiscoveredPath) {
	for i := range paths {
		pfx, err := dst.Spec.Block.Subnet(48, i)
		if err != nil {
			panic(err)
		}
		dst.Spec.Edge.Speaker.Originate(pfx, control.PinCommunities(paths, i)...)
		ep, err := pfx.Host(1)
		if err != nil {
			panic(err)
		}
		dst.Spec.Edge.Node.AddAddr(ep)
		dst.Endpoints = append(dst.Endpoints, ep)
	}
}

// start brings up s's edge toward its peer: one tunnel per discovered
// path to the peer's pinned endpoints, and the measurement loop.
func (p *Pair) start(s *Site, policy control.Policy) {
	peer := s.peer
	paths := make([]EdgePath, len(s.OutPaths))
	for i, dp := range s.OutPaths {
		paths[i] = EdgePath{Name: dp.ProviderName, Remote: peer.Endpoints[i]}
	}
	peerPaths := make([]string, len(peer.OutPaths))
	for i, dp := range peer.OutPaths {
		peerPaths[i] = dp.ProviderName
	}
	// Reports ride back only when probing gives them traffic to ride on.
	var reportEvery time.Duration
	if p.cfg.ProbeInterval > 0 {
		reportEvery = reportInterval
	}
	s.Start(EdgeConfig{
		Local:        s.SwitchAddr,
		Paths:        paths,
		PeerPaths:    peerPaths,
		Policy:       policy,
		DecideEvery:  p.cfg.DecideEvery,
		ReportEvery:  reportEvery,
		ReportMaxAge: reportMaxAge,
		RecordBucket: p.cfg.RecordBucket,
		AuthKey:      p.cfg.AuthKey,
	})
	s.Switch.AddPeerPrefix(peer.Spec.HostPrefix)
}

// RunUntilReady drives the simulation until establishment completes or
// the deadline passes, reporting success. Time is driven through the
// coordinator, never an individual partition engine.
func (p *Pair) RunUntilReady(maxVirtual time.Duration) bool {
	return runUntil(p.s.B.W, p.Ready, maxVirtual)
}

// runUntil advances net in 10 s steps until done reports true or
// maxVirtual has passed, and returns done's verdict.
func runUntil(net *simnet.Network, done func() bool, maxVirtual time.Duration) bool {
	deadline := net.Now() + maxVirtual
	for !done() && net.Now() < deadline {
		net.Run(min(net.Now()+10*time.Second, deadline))
	}
	return done()
}

// VultrPair builds a Pair over the paper's Vultr scenario with sensible
// defaults: NY is site A, LA is site B.
func VultrPair(s *topo.Scenario, cfg PairConfig) *Pair {
	p := newPair(s.MeshScenario, "ny", "la", cfg)
	p.A.Spec.Name, p.B.Spec.Name = "ny", "la"
	return p
}
