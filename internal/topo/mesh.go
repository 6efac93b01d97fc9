package topo

import (
	"fmt"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/simnet"
)

// N-site mesh construction (§6, "from Tango of 2 to Tango of N"): every
// deployment this package builds — the paper's two-site Vultr testbed,
// the three-site tri scenario, and arbitrary overlays — is one
// MeshConfig run through NewMeshScenario. A mesh is a set of sites, each
// a POP attached to some transit providers, plus the deployed pairs:
// for every pair each site runs a dedicated Tango edge server behind its
// POP, because a pairwise deployment owns its own pinned prefixes and
// measurement state ("more PoPs of the same network", §6).
//
// Construction order is canonical — providers, then sites with their
// transit wires, then pairs, then provider peerings — so the same config
// always yields the same simulation. Determinism across *refactors*
// rests on names and router IDs, not creation order: simnet RNG streams
// are keyed by node-name pairs and BGP ties break on RouterID.

// MeshProvider declares one transit provider.
type MeshProvider struct {
	Name string
	// NodeName is the simnet node name; defaults to Name.
	NodeName string
	ASN      bgp.ASN
	// RouterID defaults to 21+index.
	RouterID uint32
}

// MeshAttachment connects a site's POP to a provider, with the two
// directed delay models: Access carries POP->provider (typically
// near-zero), Trunk carries provider->POP (the wide-area direction that
// incident injection targets). Nil models default to fixed 1 ms.
type MeshAttachment struct {
	Provider string
	Access   simnet.DelayModel
	Trunk    simnet.DelayModel
}

// MeshSite declares one deployment site.
type MeshSite struct {
	Name        string
	ClockOffset time.Duration // applied to the site's edge servers
	// POPName defaults to "pop-"+Name.
	POPName string
	POPASN  bgp.ASN
	// POPRouterID defaults to 11+index.
	POPRouterID uint32
	// AllowOwnAS enables allowas-in on the POP's transit sessions, for
	// overlays whose sites share one POP ASN (Vultr's AS 20473).
	AllowOwnAS bool
	Attach     []MeshAttachment
}

// MeshPairSide overrides per-side details of one deployed pair. Zero
// values take mesh-wide defaults (sequential edge ASNs/router IDs,
// prefixes carved from EdgeBlockBase).
type MeshPairSide struct {
	EdgeName string      // default "edge-<site>:<peer>"
	EdgeASN  bgp.ASN     // default 64701, 64702, ...
	RouterID uint32      // default 100+edge index
	Block    addr.Prefix // institutional space for pinned tunnel prefixes (/44)
	Host     addr.Prefix // host prefix, originated plainly (/48)
	Probe    addr.Prefix // discovery probe prefix (/48)
}

// MeshPair deploys Tango between two sites: one edge server per side.
type MeshPair struct {
	A, B         string
	SideA, SideB MeshPairSide
}

// MeshPeering wires a settlement-free peering between two providers.
type MeshPeering struct {
	A, B string
	// Delay is the one-way peering-hop delay, both directions (default
	// 4 ms).
	Delay time.Duration
}

// MeshConfig declares an N-site mesh.
type MeshConfig struct {
	Seed int64
	// Shards, when positive, builds the mesh over a partitioned network
	// (see MeshPartition) and runs parallel phases on that many worker
	// goroutines. The partition layout is a function of the topology
	// only — Shards sets workers, never the layout — so any two positive
	// values produce identical simulations, differing only in wall-clock
	// time. Zero builds the classic single-engine network.
	Shards int
	// EdgeBlockBase supplies default per-edge prefixes (a /44 block plus
	// host and probe /48s per edge, in edge-creation order). Default
	// 2001:db8:4000::/36.
	EdgeBlockBase addr.Prefix
	Providers     []MeshProvider
	Sites         []MeshSite
	Pairs         []MeshPair
	Peerings      []MeshPeering
}

// MeshScenario is a built N-site deployment.
type MeshScenario struct {
	B *Builder

	// SiteNames and PairKeys preserve config order.
	SiteNames []string
	PairKeys  [][2]string

	// POPs by site name; Providers by provider name.
	POPs      map[string]*AS
	Providers map[string]*AS
	// Edges holds the per-pair Tango servers, keyed by "<site>:<peer>"
	// (Edges["ny:la"] pairs with Edges["la:ny"]).
	Edges map[string]*AS

	// Trunk[site][provider] is the line carrying traffic from the
	// provider's hub toward that site; incident injection targets these.
	Trunk map[string]map[string]*simnet.Line
	// Uplink[site][provider] is the reverse direction of the same wire:
	// the line from that site's POP toward the provider's hub. TE-style
	// capacity accounting needs both directions of a trunk.
	Uplink map[string]map[string]*simnet.Line

	// HostPrefix / Block / Probe per edge key.
	HostPrefix map[string]addr.Prefix
	Block      map[string]addr.Prefix
	Probe      map[string]addr.Prefix

	// Layout is the partition layout the mesh was built over (zero value
	// when cfg.Shards == 0).
	Layout Partition
}

// meshSessionDelay and meshEdgeDelay mirror the construction constants
// below; MeshPartition folds them into the partition graph, so the two
// must stay in sync with NewMeshScenario's wiring.
const (
	meshSessionDelay     = 10 * time.Millisecond // Wire's default control-plane delay
	meshEdgeLinkDelay    = 200 * time.Microsecond
	meshEdgeSessionDelay = time.Millisecond
	meshPeeringDelay     = 4 * time.Millisecond
)

// modelFloor returns the known propagation minimum of a delay model: nil
// models take Wire's 1 ms default, models without a declared floor are
// conservatively 0 (forcing their endpoints into one partition).
func modelFloor(dm simnet.DelayModel) time.Duration {
	if dm == nil {
		return time.Millisecond
	}
	if md, ok := dm.(simnet.MinDelayer); ok {
		return md.MinDelay()
	}
	return 0
}

// MeshPartition derives the partition graph of a mesh config without
// building it: the nodes are every provider, POP, and edge server the
// config will create, and each adjacency's per-direction minimum folds
// the data-plane delay floor with the BGP session delay (whichever plane
// interacts first bounds the lookahead). The layout depends only on the
// topology — never on cfg.Shards.
func MeshPartition(cfg MeshConfig) Partition {
	var nodes []string
	var edges []PartEdge
	provNode := map[string]string{}
	for _, p := range cfg.Providers {
		node := p.NodeName
		if node == "" {
			node = p.Name
		}
		provNode[p.Name] = node
		nodes = append(nodes, node)
	}
	popNode := map[string]string{}
	for _, s := range cfg.Sites {
		pop := s.POPName
		if pop == "" {
			pop = "pop-" + s.Name
		}
		popNode[s.Name] = pop
		nodes = append(nodes, pop)
		for _, at := range s.Attach {
			pn, ok := provNode[at.Provider]
			if !ok {
				continue // construction reports the error
			}
			edges = append(edges, PartEdge{
				A: pop, B: pn,
				MinDelayAB: min(modelFloor(at.Access), meshSessionDelay),
				MinDelayBA: min(modelFloor(at.Trunk), meshSessionDelay),
			})
		}
	}
	for _, pr := range cfg.Pairs {
		for k := 0; k < 2; k++ {
			siteName, peer, side := pr.A, pr.B, pr.SideA
			if k == 1 {
				siteName, peer, side = pr.B, pr.A, pr.SideB
			}
			pop, ok := popNode[siteName]
			if !ok {
				continue
			}
			name := side.EdgeName
			if name == "" {
				name = "edge-" + siteName + ":" + peer
			}
			nodes = append(nodes, name)
			d := min(meshEdgeLinkDelay, meshEdgeSessionDelay)
			edges = append(edges, PartEdge{A: name, B: pop, MinDelayAB: d, MinDelayBA: d})
		}
	}
	for _, pe := range cfg.Peerings {
		pa, oka := provNode[pe.A]
		pb, okb := provNode[pe.B]
		if !oka || !okb {
			continue
		}
		d := pe.Delay
		if d == 0 {
			d = meshPeeringDelay
		}
		d = min(d, meshSessionDelay)
		edges = append(edges, PartEdge{A: pa, B: pb, MinDelayAB: d, MinDelayBA: d})
	}
	return PartitionGraph(nodes, edges)
}

// NewMeshScenario builds the mesh, validating the config as it goes.
func NewMeshScenario(cfg MeshConfig) (*MeshScenario, error) {
	var b *Builder
	var layout Partition
	if cfg.Shards > 0 {
		layout = MeshPartition(cfg)
		b = NewShardedBuilder(cfg.Seed, layout)
		b.W.Coord().SetWorkers(cfg.Shards)
	} else {
		b = NewBuilder(cfg.Seed)
	}
	m := &MeshScenario{
		B:          b,
		Layout:     layout,
		POPs:       map[string]*AS{},
		Providers:  map[string]*AS{},
		Edges:      map[string]*AS{},
		Trunk:      map[string]map[string]*simnet.Line{},
		Uplink:     map[string]map[string]*simnet.Line{},
		HostPrefix: map[string]addr.Prefix{},
		Block:      map[string]addr.Prefix{},
		Probe:      map[string]addr.Prefix{},
	}
	blockBase := cfg.EdgeBlockBase
	if !blockBase.IsValid() {
		blockBase = addr.MustParsePrefix("2001:db8:4000::/36")
	}
	blockAl := addr.NewAlloc(blockBase)

	for i, p := range cfg.Providers {
		if m.Providers[p.Name] != nil {
			return nil, fmt.Errorf("topo: duplicate provider %q", p.Name)
		}
		node := p.NodeName
		if node == "" {
			node = p.Name
		}
		rid := p.RouterID
		if rid == 0 {
			rid = uint32(21 + i)
		}
		m.Providers[p.Name] = b.AddAS(node, p.ASN, rid, 0)
	}

	siteCfg := map[string]MeshSite{}
	for i, s := range cfg.Sites {
		if _, dup := siteCfg[s.Name]; dup {
			return nil, fmt.Errorf("topo: duplicate site %q", s.Name)
		}
		siteCfg[s.Name] = s
		m.SiteNames = append(m.SiteNames, s.Name)
		popName := s.POPName
		if popName == "" {
			popName = "pop-" + s.Name
		}
		rid := s.POPRouterID
		if rid == 0 {
			rid = uint32(11 + i)
		}
		pop := b.AddAS(popName, s.POPASN, rid, 0)
		m.POPs[s.Name] = pop
		m.Trunk[s.Name] = map[string]*simnet.Line{}
		m.Uplink[s.Name] = map[string]*simnet.Line{}
		for _, at := range s.Attach {
			prov := m.Providers[at.Provider]
			if prov == nil {
				return nil, fmt.Errorf("topo: site %q attaches to unknown provider %q", s.Name, at.Provider)
			}
			lnk, _, _ := b.Wire(pop, prov, WireOpts{
				RelAB:   bgp.RelProvider,
				DelayAB: at.Access,
				DelayBA: at.Trunk,
				// The POP strips the tenant's private ASN and scrubs
				// action communities when announcing to the core.
				StripPrivateA2B: true,
				ScrubA2B:        true,
				AllowOwnASA:     s.AllowOwnAS,
			})
			m.Trunk[s.Name][at.Provider] = lnk.LineFrom(prov.Node)
			m.Uplink[s.Name][at.Provider] = lnk.LineFrom(pop.Node)
		}
	}

	// Per-pair edge servers: dedicated AS behind each site's POP, with
	// default route toward it and a plainly originated host prefix.
	dc := simnet.FixedDelay(meshEdgeLinkDelay)
	edgeASN := bgp.ASN(64700)
	for _, pr := range cfg.Pairs {
		if pr.A == pr.B {
			return nil, fmt.Errorf("topo: pair %q:%q is a self-pair", pr.A, pr.B)
		}
		for k := 0; k < 2; k++ {
			siteName, peer := pr.A, pr.B
			side := pr.SideA
			if k == 1 {
				siteName, peer = pr.B, pr.A
				side = pr.SideB
			}
			site, ok := siteCfg[siteName]
			if !ok {
				return nil, fmt.Errorf("topo: pair references unknown site %q", siteName)
			}
			key := siteName + ":" + peer
			if m.Edges[key] != nil {
				return nil, fmt.Errorf("topo: duplicate pair %s", key)
			}
			edgeASN++
			asn := side.EdgeASN
			if asn == 0 {
				asn = edgeASN
			}
			rid := side.RouterID
			if rid == 0 {
				rid = uint32(100 + len(m.Edges))
			}
			name := side.EdgeName
			if name == "" {
				name = "edge-" + key
			}
			edge := b.AddAS(name, asn, rid, site.ClockOffset)
			m.Edges[key] = edge
			lnk, _, _ := b.Wire(edge, m.POPs[siteName], WireOpts{
				RelAB:   bgp.RelProvider,
				DelayAB: dc, DelayBA: dc,
				SessionDelay: meshEdgeSessionDelay,
				MRAI:         time.Second,
			})
			if err := DefaultRoute(edge, lnk); err != nil {
				return nil, err
			}
			var err error
			if m.Block[key], err = sideOrAlloc(side.Block, blockAl, 44); err != nil {
				return nil, fmt.Errorf("topo: block for %s: %w", key, err)
			}
			if m.HostPrefix[key], err = sideOrAlloc(side.Host, blockAl, 48); err != nil {
				return nil, fmt.Errorf("topo: host prefix for %s: %w", key, err)
			}
			if m.Probe[key], err = sideOrAlloc(side.Probe, blockAl, 48); err != nil {
				return nil, fmt.Errorf("topo: probe prefix for %s: %w", key, err)
			}
			edge.Speaker.Originate(m.HostPrefix[key])
		}
		m.PairKeys = append(m.PairKeys, [2]string{pr.A, pr.B})
	}

	for _, pe := range cfg.Peerings {
		pa, pb := m.Providers[pe.A], m.Providers[pe.B]
		if pa == nil || pb == nil {
			return nil, fmt.Errorf("topo: peering %s<->%s references unknown provider", pe.A, pe.B)
		}
		d := pe.Delay
		if d == 0 {
			d = meshPeeringDelay
		}
		b.Wire(pa, pb, WireOpts{
			RelAB:   bgp.RelPeer,
			DelayAB: simnet.FixedDelay(d),
			DelayBA: simnet.FixedDelay(d),
		})
	}
	return m, nil
}

func sideOrAlloc(p addr.Prefix, al *addr.Alloc, bits int) (addr.Prefix, error) {
	if p.IsValid() {
		return p, nil
	}
	return al.NextSubnet(bits)
}

// Run advances virtual time by d.
func (m *MeshScenario) Run(d time.Duration) { m.B.W.Run(m.B.W.Now() + d) }

// Edge returns the server at site paired with peer.
func (m *MeshScenario) Edge(site, peer string) (*AS, error) {
	e, ok := m.Edges[site+":"+peer]
	if !ok {
		return nil, fmt.Errorf("topo: no edge %s:%s", site, peer)
	}
	return e, nil
}

// RadialProvider parameterizes a provider for RadialMeshConfig: its
// hub-and-spoke backbone scales each site's radius by Scale (NTT slowest,
// GTT fastest in the tri calibration) with per-packet jitter Std.
type RadialProvider struct {
	Name  string
	ASN   bgp.ASN
	Scale float64
	Std   time.Duration
}

// RadialSite places a site on the radial model.
type RadialSite struct {
	Name        string
	Radius      time.Duration
	ClockOffset time.Duration
	Providers   []string
}

// RadialMeshConfig builds a MeshConfig under the radial delay model:
// provider P's backbone is a hub, each attached POP sits at the site
// radius scaled by P's factor, and the P-path delay between two sites is
// the sum of their scaled radii plus jitter. POP ASNs are 30101, 30102,
// ... in site order; every listed pair is deployed with default edge
// numbering and prefixes.
func RadialMeshConfig(seed int64, provs []RadialProvider, sites []RadialSite, pairs [][2]string) MeshConfig {
	cfg := MeshConfig{Seed: seed}
	byName := map[string]RadialProvider{}
	for _, p := range provs {
		byName[p.Name] = p
		cfg.Providers = append(cfg.Providers, MeshProvider{Name: p.Name, ASN: p.ASN})
	}
	for i, s := range sites {
		ms := MeshSite{
			Name:        s.Name,
			ClockOffset: s.ClockOffset,
			POPASN:      bgp.ASN(30101 + i),
		}
		for _, pname := range s.Providers {
			p := byName[pname]
			radial := time.Duration(float64(s.Radius) * p.Scale / 2)
			dm := simnet.GaussianDelay{
				Floor: radial,
				Mean:  radial + radial/100 + 50*time.Microsecond,
				Std:   p.Std,
			}
			ms.Attach = append(ms.Attach, MeshAttachment{Provider: pname, Access: dm, Trunk: dm})
		}
		cfg.Sites = append(cfg.Sites, ms)
	}
	for _, pr := range pairs {
		cfg.Pairs = append(cfg.Pairs, MeshPair{A: pr[0], B: pr[1]})
	}
	return cfg
}
