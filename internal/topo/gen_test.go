package topo

import (
	"reflect"
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
		// and peering is symmetric.
		for _, e := range g.Edges {
			ab, ok := g.Rel(e.A, e.B)
			ba, ok2 := g.Rel(e.B, e.A)
			if !ok || !ok2 {
				t.Fatalf("seed %d: edge %d-%d not adjacent via Rel", seed, e.A, e.B)
			}
			want := map[bgp.Relation]bgp.Relation{
				bgp.RelProvider: bgp.RelCustomer,
				bgp.RelCustomer: bgp.RelProvider,
				bgp.RelPeer:     bgp.RelPeer,
			}[ab]
			if ba != want {
				t.Fatalf("seed %d: edge %d-%d relation %v inverts to %v, want %v",
					seed, e.A, e.B, ab, ba, want)
			}
		}

		// ASN uniqueness and tier/homing structure.
		if len(g.ASNIndex()) != len(g.ASes) {
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

// TestGenSpeakerValleyFree builds each sweep graph as a live simulation
// and asserts that after convergence, every path selected by any speaker
// — transit ASes and Tango edges alike — is valley-free under the
// graph's relationships. This pins the bgp package's Gao-Rexford export
// rule and import preference to the generator's model of them.
func TestGenSpeakerValleyFree(t *testing.T) {
	seeds := int64(genSweepSeeds)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := genSweepConfig(seed)
		stub := cfg.Tier1 + cfg.Tier2
		s, err := NewGenScenario(GenScenarioConfig{
			Graph:     cfg,
			EdgeSites: []int{stub, stub + 3, stub + 7},
		})
		if err != nil {
			t.Fatalf("seed %d: NewGenScenario: %v", seed, err)
		}
		g := s.Graph
		s.Run(120 * time.Second)

		checked := 0
		checkSpeaker := func(observer bgp.ASN, sp *bgp.Speaker) {
			for _, p := range sp.BestPrefixes() {
				r := sp.Best(p)
				if r.FromSession == nil {
					continue // locally originated
				}
				// Paths heard straight from a tenant edge still carry its
				// private ASN (stripping happens on the way to the core);
				// the graph walk covers public hops only.
				if !g.ValleyFreeObserved(observer, r.Path.StripPrivate()) {
					t.Fatalf("seed %d: %s selected non-valley-free path [%v] for %v",
						seed, sp.Name, r.Path, p)
				}
				checked++
			}
		}
		for i, as := range s.ASes {
			checkSpeaker(g.ASes[i].ASN, as.Speaker)
		}
		for _, e := range s.Edges {
			// Edge servers observe from off-graph private ASNs.
			checkSpeaker(0, e.Speaker)
		}
		if checked == 0 {
			t.Fatalf("seed %d: no learned best routes to check", seed)
		}
	}
}

// TestGenRouterIDsDistinct: past 5 000 ASes every speaker, transit AS
// and Tango edge alike, still has its own router ID, BGP's last
// tie-break.
func TestGenRouterIDsDistinct(t *testing.T) {
	cfg := GenConfig{Seed: 1, Tier1: 4, Tier2: 800, Sites: 4500,
		MinHoming: 2, MaxHoming: 4, Tier2MaxHoming: 2, PeerLinks: 400, PrefExp: 1}
	stub := cfg.Tier1 + cfg.Tier2
	s, err := NewGenScenario(GenScenarioConfig{Graph: cfg, EdgeSites: []int{stub, stub + 1, stub + 2, stub + 3}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]string{}
	speakers := append([]*AS(nil), s.ASes...)
	for _, e := range s.Edges {
		speakers = append(speakers, e)
	}
	for _, a := range speakers {
		if prev, ok := seen[a.Speaker.RouterID]; ok {
			t.Fatalf("%s and %s share router ID %d", prev, a.Name, a.Speaker.RouterID)
		}
		seen[a.Speaker.RouterID] = a.Name
	}
	if len(s.ASes) != 5304 {
		t.Fatalf("built %d ASes, want 5304", len(s.ASes))
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
}
