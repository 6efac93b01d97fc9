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
// MeshConfig run through NewMeshScenario, and a generated internet is a
// mesh too (NewGenMesh). A mesh is a set of sites, each
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

// MeshProvider declares one transit provider. Its router ID is 21 plus
// its index in MeshConfig.Providers.
type MeshProvider struct {
	Name string
	// NodeName is the simnet node name; defaults to Name.
	NodeName string
	ASN      bgp.ASN
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

// MeshSite declares one deployment site. Its POP's router ID is 11 plus
// its index in MeshConfig.Sites.
type MeshSite struct {
	Name        string
	ClockOffset time.Duration // applied to the site's edge servers
	// POPName defaults to "pop-"+Name.
	POPName string
	POPASN  bgp.ASN
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

// MeshPeering wires a settlement-free peering between two providers,
// meshPeeringDelay one way in both directions.
type MeshPeering struct {
	A, B string
}

// MeshConfig declares an N-site mesh.
type MeshConfig struct {
	Seed int64
	// Shards is how many worker goroutines run the parallel phases of
	// the mesh's partitioned network (see MeshPartition); 0 means one.
	// The partition layout is a function of the topology only — Shards
	// sets workers, never the layout — so every value produces the same
	// simulation, differing only in wall-clock time.
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

// MeshScenario is a built N-site deployment. B.Graph is its AS graph:
// every speaker — provider, POP and edge — is a node (AS.Index).
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

	// Layout is the partition layout the mesh was built over.
	Layout Partition

	provName map[bgp.ASN]string // ProviderName's table
}

// meshPeeringDelay is a provider peering's one-way delay, both ways.
const meshPeeringDelay = 4 * time.Millisecond

// MeshPartition is the partition layout of cfg, read from the graph of
// cfg built once on a one-partition builder (see Builder). The layout
// depends only on the topology — never on cfg.Shards. An invalid config
// yields the layout of what was built before the error, which is where
// the partitioned build of it stops too.
func MeshPartition(cfg MeshConfig) Partition {
	b := NewBuilder(cfg.Seed, Partition{})
	_, _ = buildMesh(b, cfg, Partition{})
	return PartitionGraph(&b.Graph)
}

// NewMeshScenario builds the mesh over its partition layout, validating
// the config as it goes.
func NewMeshScenario(cfg MeshConfig) (*MeshScenario, error) {
	layout := MeshPartition(cfg)
	b := NewBuilder(cfg.Seed, layout)
	b.W.Coord().SetWorkers(cfg.Shards)
	return buildMesh(b, cfg, layout)
}

// ProviderName returns the scenario's name for the provider with this
// ASN, or "AS<n>" for an AS that is none of its providers.
func (m *MeshScenario) ProviderName(asn bgp.ASN) string {
	if name, ok := m.provName[asn]; ok {
		return name
	}
	return fmt.Sprintf("AS%d", asn)
}

func newMeshScenario(b *Builder, layout Partition) *MeshScenario {
	return &MeshScenario{
		B:          b,
		Layout:     layout,
		provName:   map[bgp.ASN]string{},
		POPs:       map[string]*AS{},
		Providers:  map[string]*AS{},
		Edges:      map[string]*AS{},
		Trunk:      map[string]map[string]*simnet.Line{},
		Uplink:     map[string]map[string]*simnet.Line{},
		HostPrefix: map[string]addr.Prefix{},
		Block:      map[string]addr.Prefix{},
		Probe:      map[string]addr.Prefix{},
	}
}

// buildMesh builds cfg on b, in the canonical order.
func buildMesh(b *Builder, cfg MeshConfig, layout Partition) (*MeshScenario, error) {
	m := newMeshScenario(b, layout)
	for i, p := range cfg.Providers {
		if m.Providers[p.Name] != nil {
			return nil, fmt.Errorf("topo: duplicate provider %q", p.Name)
		}
		if prev, dup := m.provName[p.ASN]; dup {
			return nil, fmt.Errorf("topo: providers %s and %s share AS%d", prev, p.Name, p.ASN)
		}
		m.provName[p.ASN] = p.Name
		node := p.NodeName
		if node == "" {
			node = p.Name
		}
		m.Providers[p.Name] = b.AddAS(node, p.ASN, uint32(21+i), 0)
	}

	offset := map[string]time.Duration{}
	for i, s := range cfg.Sites {
		if m.POPs[s.Name] != nil {
			return nil, fmt.Errorf("topo: duplicate site %q", s.Name)
		}
		offset[s.Name] = s.ClockOffset
		m.SiteNames = append(m.SiteNames, s.Name)
		popName := s.POPName
		if popName == "" {
			popName = "pop-" + s.Name
		}
		pop := b.AddAS(popName, s.POPASN, uint32(11+i), 0)
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

	if err := m.deployPairs(cfg.Pairs, cfg.EdgeBlockBase, 100, offset); err != nil {
		return nil, err
	}

	for _, pe := range cfg.Peerings {
		pa, pb := m.Providers[pe.A], m.Providers[pe.B]
		if pa == nil || pb == nil {
			return nil, fmt.Errorf("topo: peering %s<->%s references unknown provider", pe.A, pe.B)
		}
		b.Wire(pa, pb, WireOpts{
			RelAB:   bgp.RelPeer,
			DelayAB: simnet.FixedDelay(meshPeeringDelay),
			DelayBA: simnet.FixedDelay(meshPeeringDelay),
		})
	}
	return m, nil
}

// deployPairs deploys Tango on each pair, in order: a dedicated edge
// server per side behind its site's POP, keyed "<site>:<peer>". Sides
// default to edge ASNs 64701, 64702, ... and router IDs ridBase,
// ridBase+1, ... in creation order, and to prefixes carved from
// blockBase (2001:db8:4000::/36 when invalid); offset is each site's edge
// clock offset. A default edge ASN past 65534, the last private one, is
// an error.
func (m *MeshScenario) deployPairs(pairs []MeshPair, blockBase addr.Prefix, ridBase uint32, offset map[string]time.Duration) error {
	if !blockBase.IsValid() {
		blockBase = addr.MustParsePrefix("2001:db8:4000::/36")
	}
	blockAl := addr.NewAlloc(blockBase)
	edgeASN := 64700
	for _, pr := range pairs {
		if pr.A == pr.B {
			return fmt.Errorf("topo: pair %q:%q is a self-pair", pr.A, pr.B)
		}
		for k := 0; k < 2; k++ {
			siteName, peer := pr.A, pr.B
			side := pr.SideA
			if k == 1 {
				siteName, peer = pr.B, pr.A
				side = pr.SideB
			}
			pop := m.POPs[siteName]
			if pop == nil {
				return fmt.Errorf("topo: pair references unknown site %q", siteName)
			}
			key := siteName + ":" + peer
			if m.Edges[key] != nil {
				return fmt.Errorf("topo: duplicate pair %s", key)
			}
			edgeASN++
			asn := side.EdgeASN
			if asn == 0 {
				if edgeASN > 65534 {
					return fmt.Errorf("topo: pair %s:%s: default edge ASN %d for %s is past the private range (64512-65534)",
						pr.A, pr.B, edgeASN, key)
				}
				asn = bgp.ASN(edgeASN)
			}
			rid := side.RouterID
			if rid == 0 {
				rid = ridBase + uint32(len(m.Edges))
			}
			name := side.EdgeName
			if name == "" {
				name = "edge-" + key
			}
			var err error
			if m.Block[key], err = sideOrAlloc(side.Block, blockAl, 44); err != nil {
				return fmt.Errorf("topo: block for %s: %w", key, err)
			}
			if m.HostPrefix[key], err = sideOrAlloc(side.Host, blockAl, 48); err != nil {
				return fmt.Errorf("topo: host prefix for %s: %w", key, err)
			}
			if m.Probe[key], err = sideOrAlloc(side.Probe, blockAl, 48); err != nil {
				return fmt.Errorf("topo: probe prefix for %s: %w", key, err)
			}
			m.Edges[key] = m.B.addEdge(pop, name, asn, rid, offset[siteName], m.HostPrefix[key])
		}
		m.PairKeys = append(m.PairKeys, [2]string{pr.A, pr.B})
	}
	return nil
}

// genMRAI paces a generated internet's transit sessions (edge sessions
// are addEdge's).
const genMRAI = 2 * time.Second

// NewGenMesh builds the internet cfg generates (see Gen) on one
// partition and deploys Tango on pairs of its stub sites, given as site
// ordinals (0 is the first stub). Tier-1 and tier-2 ASes become the
// Providers; stubs become the POPs, with SiteNames in graph order. Every
// adjacency is wired in both planes with the graph's delay. A stub's
// provider-facing sessions strip the edge's private ASN and scrub action
// communities, as a mesh POP's do, so the paper's discovery knob
// (64600:<asn>) is interpreted exactly once, by the site the probe enters
// the transit core through. Edges take deployPairs' defaults, with router
// IDs numbered after the graph's.
func NewGenMesh(cfg GenConfig, pairs [][2]int) (*MeshScenario, error) {
	g, err := Gen(cfg)
	if err != nil {
		return nil, err
	}
	m := newMeshScenario(NewBuilder(cfg.Seed, Partition{}), Partition{})
	ases := make([]*AS, len(g.ASes))
	for i, a := range g.ASes {
		ases[i] = m.B.AddAS(a.Name, a.ASN, uint32(1+i), 0)
		if a.Tier == GenStub {
			m.POPs[a.Name] = ases[i]
			m.SiteNames = append(m.SiteNames, a.Name)
		} else {
			m.Providers[a.Name] = ases[i]
			m.provName[a.ASN] = a.Name
		}
	}
	for _, e := range g.Edges {
		o := WireOpts{
			RelAB:        e.RelAB,
			DelayAB:      simnet.FixedDelay(e.Delay),
			DelayBA:      simnet.FixedDelay(e.Delay),
			SessionDelay: e.Delay,
			MRAI:         genMRAI,
		}
		if g.ASes[e.A].Tier == GenStub && e.RelAB == bgp.RelProvider {
			o.StripPrivateA2B = true
			o.ScrubA2B = true
		}
		m.B.Wire(ases[e.A], ases[e.B], o)
	}
	mp := make([]MeshPair, len(pairs))
	for i, p := range pairs {
		for _, s := range p {
			if s < 0 || s >= len(m.SiteNames) {
				return nil, fmt.Errorf("topo: pair site %d is not one of the %d stub sites", s, len(m.SiteNames))
			}
		}
		mp[i] = MeshPair{A: m.SiteNames[p[0]], B: m.SiteNames[p[1]]}
	}
	// Every edge's /44 block and two /48s come from a /24, so no sweep
	// runs out of prefixes before it runs out of private ASNs.
	if err := m.deployPairs(mp, addr.MustParsePrefix("3000::/24"), uint32(len(g.ASes)+1), nil); err != nil {
		return nil, err
	}
	return m, nil
}

// addEdge adds a Tango edge server behind pop — a mesh site's POP or a
// generated stub site: its own AS, pop's customer over a site-internal
// link (200 µs each way, 1 ms BGP session, 1 s MRAI), with a static
// default route (::/0) toward pop and host originated plainly.
func (b *Builder) addEdge(pop *AS, name string, asn bgp.ASN, routerID uint32, clockOffset time.Duration, host addr.Prefix) *AS {
	edge := b.AddAS(name, asn, routerID, clockOffset)
	dc := simnet.FixedDelay(200 * time.Microsecond)
	lnk, _, _ := b.Wire(edge, pop, WireOpts{
		RelAB:   bgp.RelProvider,
		DelayAB: dc, DelayBA: dc,
		SessionDelay: time.Millisecond,
		MRAI:         time.Second,
	})
	edge.Node.SetRoute(addr.MustParsePrefix("::/0"), lnk.PortA())
	edge.Speaker.Originate(host)
	return edge
}

func sideOrAlloc(p addr.Prefix, al *addr.Alloc, bits int) (addr.Prefix, error) {
	if p.IsValid() {
		return p, nil
	}
	return al.NextSubnet(bits)
}

// Run advances virtual time by d.
func (m *MeshScenario) Run(d time.Duration) { m.B.W.Run(m.B.W.Now() + d) }

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
