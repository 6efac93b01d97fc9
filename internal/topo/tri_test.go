package topo

import (
	"maps"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/control"
	"tango/internal/sim"
)

func mustTri(t *testing.T, seed int64) *MeshScenario {
	t.Helper()
	s, err := NewMeshScenario(TriConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustEdge(t *testing.T, s *MeshScenario, site, peer string) *AS {
	t.Helper()
	e := s.Edges[site+":"+peer]
	if e == nil {
		t.Fatalf("no edge %s:%s", site, peer)
	}
	return e
}

func TestTriScenarioStructure(t *testing.T) {
	s := mustTri(t, 1)
	if len(s.POPs) != 3 || len(s.Providers) != 3 || len(s.Edges) != 6 {
		t.Fatalf("structure: %d POPs, %d providers, %d edges",
			len(s.POPs), len(s.Providers), len(s.Edges))
	}
	// Heterogeneous attachment.
	if len(s.Trunk["ny"]) != 2 || len(s.Trunk["chi"]) != 3 || len(s.Trunk["la"]) != 2 {
		t.Fatalf("trunks: ny=%d chi=%d la=%d", len(s.Trunk["ny"]), len(s.Trunk["chi"]), len(s.Trunk["la"]))
	}
	if s.Trunk["ny"]["GTT"] != nil || s.Trunk["la"]["Telia"] != nil {
		t.Fatal("unexpected provider attachment")
	}
	mustEdge(t, s, "ny", "la")
}

// TestMeshConfigValidation: the plan refuses each invalid config with
// its own error, and NewMeshScenario returns that error and nothing
// else, allocating what planning the config does: a refused config is
// refused before any node, line or RNG stream exists. The allocation
// comparison runs without the race detector only. Two
// providers with one ASN used to build, the discovery labels kept
// whichever name came last, and BGP loop detection dropped every route
// through either.
func TestMeshConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*MeshConfig)
		want  string
	}{
		{"unknown site", func(c *MeshConfig) { c.Pairs = append(c.Pairs, MeshPair{A: "ny", B: "atlantis"}) },
			`topo: pair references unknown site "atlantis"`},
		{"unknown provider", func(c *MeshConfig) { c.Sites[0].Attach[0].Provider = "nope" },
			`topo: site "ny" attaches to unknown provider "nope"`},
		{"duplicate pair", func(c *MeshConfig) { c.Pairs = append(c.Pairs, c.Pairs[0]) },
			"topo: duplicate pair ny:la"},
		{"self-pair", func(c *MeshConfig) { c.Pairs[0].B = c.Pairs[0].A },
			`topo: pair "ny":"ny" is a self-pair`},
		{"unknown peering", func(c *MeshConfig) { c.Peerings = append(c.Peerings, MeshPeering{A: "NTT", B: "nope"}) },
			"topo: peering NTT<->nope references unknown provider"},
		{"shared provider ASN", func(c *MeshConfig) { c.Providers[1].ASN = c.Providers[0].ASN },
			"topo: providers NTT and Telia share AS2914"},
		{"duplicate provider", func(c *MeshConfig) { c.Providers = append(c.Providers, c.Providers[2]) },
			`topo: duplicate provider "GTT"`},
		{"duplicate site", func(c *MeshConfig) { c.Sites = append(c.Sites, c.Sites[1]) },
			`topo: duplicate site "chi"`},
		{"edge ASN past 65534", func(c *MeshConfig) { *c = WideMeshConfig(1, 84) },
			"default edge ASN 65535"},
		{"block shorter than a /44", func(c *MeshConfig) { c.Pairs[1].SideB.Block = addr.MustParsePrefix("2001:db8::/32") },
			"topo: block for chi:ny: 2001:db8::/32 is shorter than a /44"},
	} {
		cfg := TriConfig(1)
		c.spoil(&cfg)
		p, err := planMesh(cfg)
		if p != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: plan %v, error %v; want only an error containing %q", c.name, p, err, c.want)
		}
		if s, err2 := NewMeshScenario(cfg); s != nil || err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("%s: NewMeshScenario = %v, %v; want only the plan's error %q", c.name, s, err2, err)
		}
		if sim.RaceEnabled {
			continue // the race detector allocates on its own bookkeeping
		}
		plan := testing.AllocsPerRun(1, func() { _, _ = planMesh(cfg) })
		whole := testing.AllocsPerRun(1, func() { _, _ = NewMeshScenario(cfg) })
		if whole > plan+16 {
			t.Errorf("%s: refusing the config allocated %.0f times, planning it %.0f", c.name, whole, plan)
		}
	}
}

// TestPlanUniverse: the plan's universe holds every prefix the scenario
// names and no other: each edge's host and probe prefix and every /48 of
// its block.
func TestPlanUniverse(t *testing.T) {
	for name, cfg := range map[string]MeshConfig{
		"vultr": VultrConfig(ScenarioConfig{Seed: 1}),
		"tri":   TriConfig(1),
		"wide":  WideMeshConfig(1, 16),
	} {
		p, err := planMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := p.m
		want := map[addr.Prefix]bool{}
		for key, block := range s.Block {
			want[s.HostPrefix[key]], want[s.Probe[key]] = true, true
			for i := range 16 {
				pin, err := block.Subnet(48, i)
				if err != nil {
					t.Fatal(err)
				}
				want[pin] = true
			}
		}
		got := map[addr.Prefix]bool{}
		for _, pfx := range p.prefixes {
			got[pfx] = true
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: the plan's universe has %d prefixes, the scenario names %d", name, len(got), len(want))
		}
	}
}

// TestMeshBuildsOnce: NewMeshScenario plans, lays out and builds a mesh
// once, so it allocates what one plan and one build of the mesh do,
// where a second build — say, a throwaway one to read the layout from —
// would double it.
func TestMeshBuildsOnce(t *testing.T) {
	cfg := WideMeshConfig(1, 16)
	once := testing.AllocsPerRun(1, func() {
		p, err := planMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.build(PartitionGraph(&p.m.Graph))
	})
	whole := testing.AllocsPerRun(1, func() {
		if _, err := NewMeshScenario(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if whole > once*1.05 {
		t.Fatalf("NewMeshScenario allocated %.0f times, one plan and build %.0f", whole, once)
	}
}

func triDiscover(t *testing.T, s *MeshScenario, a, b string) []control.DiscoveredPath {
	t.Helper()
	d := &control.Discoverer{
		Announcer: mustEdge(t, s, b, a).Speaker,
		Observer:  mustEdge(t, s, a, b).Speaker,
		Probe:     s.Probe[b+":"+a],
		POPAS:     s.POPs[b].ASN,
		NameFor:   s.ProviderName,
		RoundWait: 90 * time.Second,
	}
	var got []control.DiscoveredPath
	d.Run(func(paths []control.DiscoveredPath) { got = paths })
	s.Run(15 * time.Minute)
	return got
}

func TestTriScenarioPathDiversity(t *testing.T) {
	s := mustTri(t, 2)
	s.Run(5 * time.Minute)

	// NY<->LA share only NTT: exactly one path.
	direct := triDiscover(t, s, "ny", "la")
	if len(direct) != 1 || direct[0].ProviderName != "NTT" {
		t.Fatalf("ny->la paths = %v, want [NTT]", direct)
	}
	// NY<->CHI share NTT and Telia.
	nyChi := triDiscover(t, s, "ny", "chi")
	if len(nyChi) != 2 {
		t.Fatalf("ny->chi paths = %v", nyChi)
	}
	// CHI<->LA share NTT and GTT.
	chiLa := triDiscover(t, s, "chi", "la")
	if len(chiLa) != 2 {
		t.Fatalf("chi->la paths = %v", chiLa)
	}
	seen := map[string]bool{}
	for _, p := range append(nyChi, chiLa...) {
		seen[p.ProviderName] = true
	}
	if !seen["Telia"] || !seen["GTT"] || !seen["NTT"] {
		t.Fatalf("overlay providers = %v", seen)
	}
}

func TestTriProviderName(t *testing.T) {
	s := mustTri(t, 1)
	for name, p := range s.Providers {
		if got := s.ProviderName(p.ASN); got != name {
			t.Errorf("ProviderName(%d) = %q, want %q", p.ASN, got, name)
		}
	}
	if len(s.Providers) != 3 || s.ProviderName(9999) != "AS9999" {
		t.Fatalf("tri providers %d, ProviderName(9999) = %q", len(s.Providers), s.ProviderName(9999))
	}
}

func TestTriScenarioClockOffsets(t *testing.T) {
	s := mustTri(t, 3)
	offNY := mustEdge(t, s, "ny", "la").Node.Clock().Offset()
	offNY2 := mustEdge(t, s, "ny", "chi").Node.Clock().Offset()
	offLA := mustEdge(t, s, "la", "ny").Node.Clock().Offset()
	if offNY != offNY2 {
		t.Fatal("servers in the same site must share the site clock offset")
	}
	if offNY == offLA {
		t.Fatal("sites must have distinct clock offsets")
	}
}
