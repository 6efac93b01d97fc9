package topo

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"tango/internal/bgp"
)

// genSweepConfig is the 25-seed property sweep's graph shape: small
// enough to build a full simulation per seed, rich enough to exercise
// multi-homing, lateral peerings, and preferential attachment.
func genSweepConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:           seed,
		Tier1:          3,
		Tier2:          6,
		Sites:          10,
		MinHoming:      2,
		MaxHoming:      3,
		Tier2MaxHoming: 2,
		PeerLinks:      3,
		PrefExp:        1.0,
	}
}

const genSweepSeeds = 25

// TestGenProperties is the generator's property suite: for every seed,
// the graph is connected, relationship-antisymmetric, acyclic in the
// provider direction, within its homing bounds, and a pure function of
// config+seed.
func TestGenProperties(t *testing.T) {
	for seed := int64(0); seed < genSweepSeeds; seed++ {
		cfg := genSweepConfig(seed)
		g, err := Gen(cfg)
		if err != nil {
			t.Fatalf("seed %d: Gen: %v", seed, err)
		}

		// Purity: a second build is deeply equal.
		g2, err := Gen(cfg)
		if err != nil {
			t.Fatalf("seed %d: second Gen: %v", seed, err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("seed %d: two builds of the same config differ", seed)
		}

		if want := cfg.Tier1 + cfg.Tier2 + cfg.Sites; len(g.ASes) != want {
			t.Fatalf("seed %d: %d ASes, want %d", seed, len(g.ASes), want)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: graph is not connected", seed)
		}
		if !g.ProviderAcyclic() {
			t.Fatalf("seed %d: provider digraph has a cycle", seed)
		}

		// Relationship antisymmetry: X customer-of Y ⇔ Y provider-of X,
		// peering is symmetric, and no pair is adjacent twice.
		adj := g.Neighbors()
		rel := map[[2]int]bgp.Relation{}
		for a, list := range adj {
			for _, n := range list {
				if _, dup := rel[[2]int{a, n.Peer}]; dup {
					t.Fatalf("seed %d: %d-%d adjacent twice", seed, a, n.Peer)
				}
				rel[[2]int{a, n.Peer}] = n.Rel
			}
		}
		inverse := map[bgp.Relation]bgp.Relation{
			bgp.RelProvider: bgp.RelCustomer,
			bgp.RelCustomer: bgp.RelProvider,
			bgp.RelPeer:     bgp.RelPeer,
		}
		for _, e := range g.Edges {
			ab, ba := rel[[2]int{e.A, e.B}], rel[[2]int{e.B, e.A}]
			if ab != e.RelAB || ba != inverse[ab] {
				t.Fatalf("seed %d: edge %d-%d relation %v inverts to %v, want %v",
					seed, e.A, e.B, ab, ba, inverse[ab])
			}
		}

		// ASN uniqueness and tier/homing structure.
		if !distinctASNs(g) {
			t.Fatalf("seed %d: duplicate ASNs", seed)
		}
		for i, a := range g.ASes {
			provs := g.Providers(i)
			switch a.Tier {
			case GenTier1:
				if len(provs) != 0 {
					t.Fatalf("seed %d: tier-1 %s has providers %v", seed, a.Name, provs)
				}
			case GenTier2:
				if len(provs) < 1 || len(provs) > cfg.Tier2MaxHoming {
					t.Fatalf("seed %d: tier-2 %s has %d providers, want 1..%d",
						seed, a.Name, len(provs), cfg.Tier2MaxHoming)
				}
			case GenStub:
				if len(provs) < cfg.MinHoming || len(provs) > cfg.MaxHoming {
					t.Fatalf("seed %d: site %s has %d providers, want %d..%d",
						seed, a.Name, len(provs), cfg.MinHoming, cfg.MaxHoming)
				}
			}
			// Providers are always earlier-created — the structural form
			// of provider-direction acyclicity.
			for _, p := range provs {
				if p >= i {
					t.Fatalf("seed %d: %s has provider index %d >= its own %d", seed, a.Name, p, i)
				}
			}
		}

		// Ground truth sanity: every site pair reaches through at least
		// one of dst's providers, and never through a non-provider.
		src, dst := cfg.Tier1+cfg.Tier2, cfg.Tier1+cfg.Tier2+1
		truth := g.ValleyFreeProviders(dst, src)
		if len(truth) == 0 {
			t.Fatalf("seed %d: no valley-free provider between sites %d and %d", seed, src, dst)
		}
		provASNs := map[bgp.ASN]bool{}
		for _, p := range g.Providers(dst) {
			provASNs[g.ASes[p].ASN] = true
		}
		for _, a := range truth {
			if !provASNs[a] {
				t.Fatalf("seed %d: ground truth names AS%d, not a provider of %d", seed, a, dst)
			}
		}
	}
}

// distinctASNs reports whether no two ASes of g share an ASN.
func distinctASNs(g *ASGraph) bool {
	seen := map[bgp.ASN]bool{}
	for _, a := range g.ASes {
		if seen[a.ASN] {
			return false
		}
		seen[a.ASN] = true
	}
	return true
}

// speakers lists every AS of m — transit, POP and edge — in graph order.
func speakers(m *MeshScenario) []*AS {
	var out []*AS
	for _, set := range []map[string]*AS{m.Providers, m.POPs, m.Edges} {
		for _, a := range set {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// checkBestValleyFree fails t unless every learned best route at every
// speaker of m is valley-free by m's own recorded graph, observed from
// that speaker's node.
func checkBestValleyFree(t *testing.T, m *MeshScenario) {
	t.Helper()
	checked := 0
	for _, a := range speakers(m) {
		sp := a.Speaker
		for _, p := range sp.BestPrefixes() {
			r := sp.Best(p)
			if r.FromSession == nil {
				continue // locally originated
			}
			if !m.B.Graph.ValleyFreeObserved(a.Index, r.Path) {
				t.Fatalf("%s selected non-valley-free path [%v] for %v", sp.Name, r.Path, p)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no learned best routes to check")
	}
}

// TestGenSpeakerValleyFree builds each sweep graph as a live simulation
// and asserts that after convergence, every path selected by any speaker
// — transit ASes, stub sites and Tango edges alike — is valley-free
// under the recorded graph's relationships. This pins the bgp package's
// Gao-Rexford export rule and import preference to the generator's model
// of them.
func TestGenSpeakerValleyFree(t *testing.T) {
	seeds := int64(genSweepSeeds)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		m, err := NewGenMesh(genSweepConfig(seed), [][2]int{{0, 3}, {3, 7}})
		if err != nil {
			t.Fatalf("seed %d: NewGenMesh: %v", seed, err)
		}
		m.Run(120 * time.Second)
		checkBestValleyFree(t, m)
	}
}

// TestGenRouterIDsDistinct: past 5 000 ASes every speaker, transit AS
// and Tango edge alike, still has its own router ID, BGP's last
// tie-break.
func TestGenRouterIDsDistinct(t *testing.T) {
	cfg := GenConfig{Seed: 1, Tier1: 4, Tier2: 800, Sites: 4500,
		MinHoming: 2, MaxHoming: 4, Tier2MaxHoming: 2, PeerLinks: 400, PrefExp: 1}
	m, err := NewGenMesh(cfg, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]string{}
	for _, a := range speakers(m) {
		if prev, ok := seen[a.Speaker.RouterID]; ok {
			t.Fatalf("%s and %s share router ID %d", prev, a.Name, a.Speaker.RouterID)
		}
		seen[a.Speaker.RouterID] = a.Name
	}
	if n := len(m.Providers) + len(m.POPs); n != 5304 || len(m.Edges) != 4 {
		t.Fatalf("built %d ASes and %d edges, want 5304 and 4", n, len(m.Edges))
	}
}

// TestGenValidateErrors spot-checks that Validate rejects each class of
// invalid config with an error (the fuzz target explores the space).
func TestGenValidateErrors(t *testing.T) {
	base := genSweepConfig(1)
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Tier1 = 0 },
		func(c *GenConfig) { c.Tier1 = 65 },
		func(c *GenConfig) { c.Tier2 = -1 },
		func(c *GenConfig) { c.Tier2 = 4097 },
		func(c *GenConfig) { c.Sites = -1 },
		func(c *GenConfig) { c.Sites = 50001 },
		func(c *GenConfig) { c.MinHoming = 0 },
		func(c *GenConfig) { c.MaxHoming = 1 }, // below MinHoming 2
		func(c *GenConfig) { c.MaxHoming = 7 }, // above the tier-2 pool
		func(c *GenConfig) { c.Tier2MaxHoming = 0 },
		func(c *GenConfig) { c.PeerLinks = -1 },
		func(c *GenConfig) { c.PeerLinks = 16 }, // above the tier-2 pair count
		func(c *GenConfig) { c.PrefExp = -0.5 },
		func(c *GenConfig) { c.PrefExp = 9 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
		if _, err := Gen(c); err == nil {
			t.Errorf("case %d: Gen accepted %+v", i, c)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	for _, pairs := range [][][2]int{{{0, base.Sites}}, {{-1, 0}}, {{2, 2}}, {{0, 1}, {1, 0}}} {
		if _, err := NewGenMesh(base, pairs); err == nil {
			t.Errorf("NewGenMesh accepted pairs %v", pairs)
		}
	}
}

// TestMeshValleyFree: the scenarios Tango deploys on carry the same
// oracle as a generated internet. After 5 virtual minutes every best
// route at every speaker of Vultr, tri and an 8-site wide mesh is
// valley-free by that scenario's own recorded graph, and the oracle
// reproduces the §4.1 provider sets of the Vultr pair (PAPER.md, E1).
func TestMeshValleyFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MeshConfig
	}{
		{"vultr", VultrConfig(ScenarioConfig{Seed: 1})},
		{"tri", TriConfig(1)},
		{"wide8", WideMeshConfig(1, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMeshScenario(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(5 * time.Minute)
			checkBestValleyFree(t, m)
		})
	}

	m, err := NewMeshScenario(VultrConfig(ScenarioConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ny, la := m.POPs["ny"].Index, m.POPs["la"].Index
	for _, tc := range []struct {
		dir      string
		dst, src int
		want     []bgp.ASN
	}{
		{"NY->LA", la, ny, []bgp.ASN{bgp.ASTelia, bgp.ASNTT, bgp.ASGTT, bgp.ASLevel3}},
		{"LA->NY", ny, la, []bgp.ASN{bgp.ASCogent, bgp.ASTelia, bgp.ASNTT, bgp.ASGTT}},
	} {
		if got := m.B.Graph.ValleyFreeProviders(tc.dst, tc.src); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s providers %v, want %v", tc.dir, got, tc.want)
		}
	}
}

// TestValleyFreeObservedVultrEdge: both Vultr POPs are AS 20473, so a
// hop resolves among the previous node's neighbours, not by ASN alone.
// edge-ny's route to LA through NTT walks edge-ny → vultr-ny → NTT →
// vultr-la.
func TestValleyFreeObservedVultrEdge(t *testing.T) {
	m, err := NewMeshScenario(VultrConfig(ScenarioConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	g, edge := &m.B.Graph, m.Edges["ny:la"].Index
	if !g.ValleyFreeObserved(edge, bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr}) {
		t.Fatal("edge-ny's NTT path to LA rejected")
	}
	// Prepending collapses; the origin's private ASN is on the graph
	// behind vultr-la.
	if !g.ValleyFreeObserved(edge, bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASNTT, bgp.ASVultr, ASEdgeLA}) {
		t.Fatal("prepended path to edge-la rejected")
	}
	// A valley: NTT hears LA from its peer Level3 and hands it on to
	// Telia, which is no customer of NTT (and not even adjacent).
	if g.ValleyFreeObserved(edge, bgp.Path{bgp.ASVultr, bgp.ASTelia, bgp.ASNTT, bgp.ASLevel3, bgp.ASVultr}) {
		t.Fatal("path through a non-adjacency accepted")
	}
	// NTT may not carry Cogent's peer route to its peer Level3.
	if g.ValleyFreeObserved(m.Providers["Level3"].Index, bgp.Path{bgp.ASNTT, bgp.ASCogent, bgp.ASVultr}) {
		t.Fatal("peer-to-peer transit accepted")
	}
}

// TestValleyFreeObservedOffGraphHop: a hop whose ASN no neighbour of the
// previous node carries fails the walk, wherever it sits on the path.
func TestValleyFreeObservedOffGraphHop(t *testing.T) {
	m, err := NewMeshScenario(VultrConfig(ScenarioConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	g, edge := &m.B.Graph, m.Edges["ny:la"].Index
	for _, path := range []bgp.Path{
		{64999},
		{bgp.ASVultr, 64999, bgp.ASVultr},
		{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr, 64999},
		{bgp.ASLevel3}, // on the graph, but no neighbour of vultr-ny's edge
	} {
		if g.ValleyFreeObserved(edge, path) {
			t.Errorf("path [%v] with an unresolvable hop accepted", path)
		}
	}
}
