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
// A config is planned before anything is built (planMesh), in a
// canonical order — providers, then sites with their transit wires, then
// pairs, then provider peerings — and built once in the plan's order, so
// the same config always yields the same simulation. Determinism across *refactors*
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
	// POPASN may be shared with other sites (Vultr's AS 20473): each
	// such POP hears the others' prefixes through the core with its own
	// ASN in the path, so its transit sessions turn on allowas-in.
	POPASN bgp.ASN
	Attach []MeshAttachment
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
	// the mesh's partitioned network (see NewMeshScenario); 0 means one.
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

// MeshScenario is a built N-site deployment.
type MeshScenario struct {
	B *Builder
	// Graph is the AS graph the mesh was planned and built from: every
	// speaker — provider, POP and edge — is a node (AS.Index), and every
	// wire an adjacency whose Delay is the earliest either end can
	// affect the other. The valley-free oracle reads it.
	Graph ASGraph

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

	provName map[bgp.ASN]string // ProviderName's table
}

// meshPeeringDelay is a provider peering's one-way delay, both ways.
const meshPeeringDelay = 4 * time.Millisecond

// NewMeshScenario plans cfg, validating it before any node, line or RNG
// stream exists, lays the plan's graph out (PartitionGraph: the layout
// depends only on the topology, never on cfg.Shards) and builds it once.
func NewMeshScenario(cfg MeshConfig) (*MeshScenario, error) {
	p, err := planMesh(cfg)
	if err != nil {
		return nil, err
	}
	m := p.build(PartitionGraph(&p.m.Graph))
	m.B.W.Coord().SetWorkers(cfg.Shards)
	return m, nil
}

// ProviderName returns the scenario's name for the provider with this
// ASN, or "AS<n>" for an AS that is none of its providers.
func (m *MeshScenario) ProviderName(asn bgp.ASN) string {
	if name, ok := m.provName[asn]; ok {
		return name
	}
	return fmt.Sprintf("AS%d", asn)
}

// meshPlan is a mesh as plain data, worked out and checked before any
// node, line or RNG stream exists: the scenario's AS graph (node i is
// nodes[i], edge j is wires[j], both in build order) and the prefix
// universe its speakers' table numbers: every edge's host and probe
// prefix and every /48 of its block. build turns it into a scenario
// once.
type meshPlan struct {
	seed     int64
	nodes    []planNode
	wires    []planWire
	prefixes []addr.Prefix

	// provs, pops and edges index graph nodes by provider name, site
	// name and edge key.
	provs, pops, edges map[string]int
	// m holds the scenario's plain-data fields, Graph included; build
	// adds the network.
	m *MeshScenario
}

// planNode is an AS's router ID and clock offset.
type planNode struct {
	rid   uint32
	clock time.Duration
}

// planWire is one wire of a plan. A mesh site's attachment names the
// site and the provider (A is the POP, B the provider): the scenario
// lists its lines in Trunk and Uplink. An edge server's one wire, to its
// POP, names the edge (A is the edge): a static default route (::/0)
// rides it, and the edge originates its host prefix plainly.
type planWire struct {
	o          WireOpts
	site, prov string
	edge       string
}

func newMeshPlan(seed int64) *meshPlan {
	return &meshPlan{
		seed:  seed,
		provs: map[string]int{},
		pops:  map[string]int{},
		edges: map[string]int{},
		m: &MeshScenario{
			provName:   map[bgp.ASN]string{},
			POPs:       map[string]*AS{},
			Providers:  map[string]*AS{},
			Edges:      map[string]*AS{},
			Trunk:      map[string]map[string]*simnet.Line{},
			Uplink:     map[string]map[string]*simnet.Line{},
			HostPrefix: map[string]addr.Prefix{},
			Block:      map[string]addr.Prefix{},
			Probe:      map[string]addr.Prefix{},
		},
	}
}

// addAS plans an AS and returns its graph node.
func (p *meshPlan) addAS(name string, asn bgp.ASN, rid uint32, clock time.Duration) int {
	p.m.Graph.ASes = append(p.m.Graph.ASes, GenAS{Name: name, ASN: asn})
	p.nodes = append(p.nodes, planNode{rid: rid, clock: clock})
	return len(p.nodes) - 1
}

// wire plans a Wire from node a to node b and its graph adjacency.
func (p *meshPlan) wire(a, b int, w planWire) {
	w.o = w.o.withDefaults()
	p.m.Graph.Edges = append(p.m.Graph.Edges, w.o.edge(a, b))
	p.wires = append(p.wires, w)
}

// build builds the plan on a network laid out by part: every AS in node
// order, then every wire in edge order.
func (p *meshPlan) build(part Partition) *MeshScenario {
	b := NewBuilder(p.seed, part, p.prefixes)
	m := p.m
	m.B = b
	ases := make([]*AS, len(p.nodes))
	for i, n := range p.nodes {
		ases[i] = b.AddAS(m.Graph.ASes[i].Name, m.Graph.ASes[i].ASN, n.rid, n.clock)
	}
	for name, i := range p.provs {
		m.Providers[name] = ases[i]
	}
	for site, i := range p.pops {
		m.POPs[site] = ases[i]
	}
	for key, i := range p.edges {
		m.Edges[key] = ases[i]
	}
	for j, e := range m.Graph.Edges {
		w := p.wires[j]
		x, y := ases[e.A], ases[e.B]
		lnk, _, _ := b.Wire(x, y, w.o)
		if w.prov != "" {
			m.Trunk[w.site][w.prov] = lnk.LineFrom(y.Node)
			m.Uplink[w.site][w.prov] = lnk.LineFrom(x.Node)
		}
		if w.edge != "" {
			x.Node.SetRoute(addr.MustParsePrefix("::/0"), lnk.PortA())
			x.Speaker.Originate(m.HostPrefix[w.edge])
		}
	}
	return m
}

// planMesh validates cfg and plans it in the canonical order: providers,
// then sites with their transit wires, then pairs, then provider
// peerings.
func planMesh(cfg MeshConfig) (*meshPlan, error) {
	p := newMeshPlan(cfg.Seed)
	m := p.m
	for i, pr := range cfg.Providers {
		if _, dup := p.provs[pr.Name]; dup {
			return nil, fmt.Errorf("topo: duplicate provider %q", pr.Name)
		}
		if prev, dup := m.provName[pr.ASN]; dup {
			return nil, fmt.Errorf("topo: providers %s and %s share AS%d", prev, pr.Name, pr.ASN)
		}
		m.provName[pr.ASN] = pr.Name
		node := pr.NodeName
		if node == "" {
			node = pr.Name
		}
		p.provs[pr.Name] = p.addAS(node, pr.ASN, uint32(21+i), 0)
	}

	sitesOf := map[bgp.ASN]int{}
	for _, s := range cfg.Sites {
		sitesOf[s.POPASN]++
	}
	offset := map[string]time.Duration{}
	for i, s := range cfg.Sites {
		if _, dup := p.pops[s.Name]; dup {
			return nil, fmt.Errorf("topo: duplicate site %q", s.Name)
		}
		offset[s.Name] = s.ClockOffset
		m.SiteNames = append(m.SiteNames, s.Name)
		popName := s.POPName
		if popName == "" {
			popName = "pop-" + s.Name
		}
		pop := p.addAS(popName, s.POPASN, uint32(11+i), 0)
		p.pops[s.Name] = pop
		m.Trunk[s.Name] = map[string]*simnet.Line{}
		m.Uplink[s.Name] = map[string]*simnet.Line{}
		for _, at := range s.Attach {
			prov, ok := p.provs[at.Provider]
			if !ok {
				return nil, fmt.Errorf("topo: site %q attaches to unknown provider %q", s.Name, at.Provider)
			}
			p.wire(pop, prov, planWire{site: s.Name, prov: at.Provider, o: WireOpts{
				RelAB:   bgp.RelProvider,
				DelayAB: at.Access,
				DelayBA: at.Trunk,
				// The POP strips the tenant's private ASN and scrubs
				// action communities when announcing to the core.
				BorderA2B:   true,
				AllowOwnASA: sitesOf[s.POPASN] > 1,
			}})
		}
	}

	if err := p.deployPairs(cfg.Pairs, cfg.EdgeBlockBase, 100, offset); err != nil {
		return nil, err
	}

	for _, pe := range cfg.Peerings {
		pa, okA := p.provs[pe.A]
		pb, okB := p.provs[pe.B]
		if !okA || !okB {
			return nil, fmt.Errorf("topo: peering %s<->%s references unknown provider", pe.A, pe.B)
		}
		p.wire(pa, pb, planWire{o: WireOpts{
			RelAB:   bgp.RelPeer,
			DelayAB: simnet.FixedDelay(meshPeeringDelay),
			DelayBA: simnet.FixedDelay(meshPeeringDelay),
		}})
	}
	return p, nil
}

// deployPairs plans Tango on each pair, in order: a dedicated edge
// server per side behind its site's POP, keyed "<site>:<peer>": its own
// AS, the POP's customer over a site-internal link (200 µs each way, 1 ms
// BGP session, 1 s MRAI). Sides default to edge ASNs 64701, 64702, ...
// and router IDs ridBase, ridBase+1, ... in creation order, and to
// prefixes carved from blockBase (2001:db8:4000::/36 when invalid);
// offset is each site's edge clock offset. A default edge ASN past 65534,
// the last private one, is an error, and so is a block shorter than a
// /44. Each edge's prefixes join the universe.
func (p *meshPlan) deployPairs(pairs []MeshPair, blockBase addr.Prefix, ridBase uint32, offset map[string]time.Duration) error {
	if !blockBase.IsValid() {
		blockBase = addr.MustParsePrefix("2001:db8:4000::/36")
	}
	m := p.m
	blockAl := addr.NewAlloc(blockBase)
	edgeASN := 64700
	dc := simnet.FixedDelay(200 * time.Microsecond)
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
			pop, ok := p.pops[siteName]
			if !ok {
				return fmt.Errorf("topo: pair references unknown site %q", siteName)
			}
			key := siteName + ":" + peer
			if _, dup := p.edges[key]; dup {
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
				rid = ridBase + uint32(len(p.edges))
			}
			name := side.EdgeName
			if name == "" {
				name = "edge-" + key
			}
			if side.Block.IsValid() && side.Block.Bits() < 44 {
				// Each of its /48s joins the universe: a /32 would be
				// 65 536 prefixes per edge.
				return fmt.Errorf("topo: block for %s: %v is shorter than a /44", key, side.Block)
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
			p.prefixes = append(p.prefixes, m.HostPrefix[key], m.Probe[key])
			for i := 0; ; i++ {
				pin, err := m.Block[key].Subnet(48, i)
				if err != nil {
					break
				}
				p.prefixes = append(p.prefixes, pin)
			}
			p.edges[key] = p.addAS(name, asn, rid, offset[siteName])
			p.wire(p.edges[key], pop, planWire{edge: key, o: WireOpts{
				RelAB:   bgp.RelProvider,
				DelayAB: dc, DelayBA: dc,
				SessionDelay: time.Millisecond,
				MRAI:         time.Second,
			}})
		}
		m.PairKeys = append(m.PairKeys, [2]string{pr.A, pr.B})
	}
	return nil
}

// genMRAI paces a generated internet's transit sessions (edge sessions
// are deployPairs').
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
// IDs numbered after the graph's. Like NewMeshScenario, it plans first
// and builds once.
func NewGenMesh(cfg GenConfig, pairs [][2]int) (*MeshScenario, error) {
	g, err := Gen(cfg)
	if err != nil {
		return nil, err
	}
	p := newMeshPlan(cfg.Seed)
	m := p.m
	for i, a := range g.ASes {
		n := p.addAS(a.Name, a.ASN, uint32(1+i), 0)
		if a.Tier == GenStub {
			p.pops[a.Name] = n
			m.SiteNames = append(m.SiteNames, a.Name)
		} else {
			p.provs[a.Name] = n
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
		o.BorderA2B = g.ASes[e.A].Tier == GenStub && e.RelAB == bgp.RelProvider
		p.wire(e.A, e.B, planWire{o: o})
	}
	mp := make([]MeshPair, len(pairs))
	for i, pr := range pairs {
		for _, s := range pr {
			if s < 0 || s >= len(m.SiteNames) {
				return nil, fmt.Errorf("topo: pair site %d is not one of the %d stub sites", s, len(m.SiteNames))
			}
		}
		mp[i] = MeshPair{A: m.SiteNames[pr[0]], B: m.SiteNames[pr[1]]}
	}
	// Every edge's /44 block and two /48s come from a /24, so no sweep
	// runs out of prefixes before it runs out of private ASNs.
	if err := p.deployPairs(mp, addr.MustParsePrefix("3000::/24"), uint32(len(g.ASes)+1), nil); err != nil {
		return nil, err
	}
	return p.build(Partition{}), nil
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
