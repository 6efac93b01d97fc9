package topo

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/simnet"
)

// Generated-internet scenario: instantiates an ASGraph as a running
// simulation — one speaker+node per AS, every adjacency wired in both
// planes with the graph's delay — and deploys a Tango edge server behind
// each requested site with the mesh's own edge wiring (addEdge). Sites
// play the POP role: their provider-facing sessions strip the edge's
// private ASN and scrub action communities, so the paper's discovery knob
// (64600:<asn>) is interpreted exactly once, by the site the probe enters
// the transit core through.

// genMRAI paces the transit sessions (edge sessions are addEdge's).
const genMRAI = 2 * time.Second

// GenScenarioConfig parameterizes NewGenScenario.
type GenScenarioConfig struct {
	// Graph generates the AS-level topology.
	Graph GenConfig
	// EdgeSites lists the site indices (into the graph's node order) that
	// get a Tango edge server. At most 800 (private edge ASNs are carved
	// from 64701 up).
	EdgeSites []int
}

// GenScenario is a built generated internet.
type GenScenario struct {
	B *Builder
	// Graph is the generated AS graph the scenario instantiates.
	Graph *ASGraph
	// ASes indexes the built ASes exactly like the graph's node order.
	ASes []*AS
	// Edges maps a site index to its Tango edge server.
	Edges map[int]*AS

	probeBase addr.Prefix
}

func edgeNodeName(site GenAS) string { return "ex-" + site.Name }

// NewGenScenario generates the graph and builds it as a simulation.
func NewGenScenario(cfg GenScenarioConfig) (*GenScenario, error) {
	g, err := Gen(cfg.Graph)
	if err != nil {
		return nil, err
	}
	sites := append([]int(nil), cfg.EdgeSites...)
	sort.Ints(sites)
	sites = dedupInts(sites)
	if len(sites) > 800 {
		return nil, fmt.Errorf("topo: %d edge sites exceed the 800 private-ASN budget", len(sites))
	}
	stubBase := cfg.Graph.Tier1 + cfg.Graph.Tier2
	for _, s := range sites {
		if s < stubBase || s >= len(g.ASes) {
			return nil, fmt.Errorf("topo: edge site index %d is not a stub site (want [%d, %d))",
				s, stubBase, len(g.ASes))
		}
	}
	b := NewBuilder(cfg.Graph.Seed, Partition{})
	m := &GenScenario{
		B:         b,
		Graph:     g,
		Edges:     map[int]*AS{},
		probeBase: addr.MustParsePrefix("2001:db8:9000::/36"),
	}
	for i, a := range g.ASes {
		m.ASes = append(m.ASes, b.AddAS(a.Name, a.ASN, uint32(1+i), 0))
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
			// The site is the probe's POP: strip the tenant edge's private
			// ASN and apply-then-scrub its action communities on the way
			// into the core.
			o.StripPrivateA2B = true
			o.ScrubA2B = true
		}
		b.Wire(m.ASes[e.A], m.ASes[e.B], o)
	}

	hostBase := addr.MustParsePrefix("2001:db8:8000::/36")
	for k, s := range sites {
		host, err := hostBase.Subnet(48, k)
		if err != nil {
			return nil, fmt.Errorf("topo: host prefix for edge site %d: %w", s, err)
		}
		// Edge router IDs follow the graph's, so none can collide.
		m.Edges[s] = b.addEdge(m.ASes[s], edgeNodeName(g.ASes[s]), bgp.ASN(64701+k), uint32(len(g.ASes)+1+k), 0, host)
	}
	return m, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// ProbePrefix returns the i-th discovery probe prefix (i < 4096). Each
// concurrent discovery in a sweep announces its own probe, so per-pair
// suppression communities never interfere.
func (m *GenScenario) ProbePrefix(i int) (addr.Prefix, error) {
	return m.probeBase.Subnet(48, i)
}

// Run advances virtual time by d.
func (m *GenScenario) Run(d time.Duration) { m.B.W.Run(m.B.W.Now() + d) }
