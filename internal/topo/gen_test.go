package topo

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"tango/internal/bgp"
	"tango/internal/sim"
)

// genSweepConfig is the 25-seed property sweep's graph: 4 tier-1s, 6
// tier-2s and 10 sites, small enough to build a full simulation per seed,
// rich enough to exercise multi-homing, lateral peerings, and
// preferential attachment.
func genSweepConfig(seed int64) GenConfig { return GenConfig{Seed: seed, Sites: 10} }

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

		if len(g.ASes) != 4+6+cfg.Sites {
			t.Fatalf("seed %d: %d ASes, want %d", seed, len(g.ASes), 4+6+cfg.Sites)
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
				if len(provs) < 1 || len(provs) > 2 {
					t.Fatalf("seed %d: tier-2 %s has %d providers, want 1..2", seed, a.Name, len(provs))
				}
			case GenStub:
				if len(provs) < 2 || len(provs) > 4 {
					t.Fatalf("seed %d: site %s has %d providers, want 2..4", seed, a.Name, len(provs))
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
		src, dst := 4+6, 4+6+1
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

// TestGenGraphConcurrentQueries: a graph works out its adjacency once and
// every query shares it, so two goroutines may query one fresh graph at
// once (run under -race) and get the answers a serial run gives.
func TestGenGraphConcurrentQueries(t *testing.T) {
	cfg := genSweepConfig(0)
	serial, err := Gen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := Gen(cfg)
	sites := len(g.ASes) - 10
	answers := func(g *ASGraph) (out [][]bgp.ASN) {
		for dst := 10; dst < 10+sites; dst++ {
			out = append(out, g.ValleyFreeProviders(dst, 10+(dst+1-10)%sites))
		}
		return out
	}
	want := answers(serial)
	var got [2][][]bgp.ASN
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = answers(g)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("goroutine %d: answers differ from a serial run", i)
		}
	}
	if a, b := g.Neighbors(), g.Neighbors(); &a[0][0] != &b[0][0] {
		t.Fatal("two queries built the adjacency twice")
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
			r, _ := sp.Best(p)
			if r.FromSession == nil {
				continue // locally originated
			}
			if !m.Graph.ValleyFreeObserved(a.Index, r.Path) {
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
	m, err := NewGenMesh(GenConfig{Seed: 1, Sites: 4500}, [][2]int{{0, 1}, {2, 3}})
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
	if n := len(m.Providers) + len(m.POPs); n != 5258 || len(m.Edges) != 4 {
		t.Fatalf("built %d ASes and %d edges, want 5258 and 4", n, len(m.Edges))
	}
}

// TestGenValidateErrors: Validate and Gen reject an out-of-range size
// with an error, and NewGenMesh rejects pairs that name no stub site or
// repeat one.
func TestGenValidateErrors(t *testing.T) {
	for _, sites := range []int{-1, 50001} {
		c := GenConfig{Seed: 1, Sites: sites}
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
		if _, err := Gen(c); err == nil {
			t.Errorf("Gen accepted %+v", c)
		}
	}
	base := genSweepConfig(1)
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	for _, pairs := range [][][2]int{{{0, base.Sites}}, {{-1, 0}}, {{2, 2}}, {{0, 1}, {1, 0}}} {
		if _, err := NewGenMesh(base, pairs); err == nil {
			t.Errorf("NewGenMesh accepted pairs %v", pairs)
		}
	}
}

// TestGenShape pins the size rule: a 4-member tier-1 clique below 440
// sites and 8 from there up, max(6, Sites/6) tier-2s, and one stub per
// site.
func TestGenShape(t *testing.T) {
	for _, tc := range []struct{ sites, tier1, tier2 int }{
		{16, 4, 6},
		{439, 4, 73},
		{440, 8, 73},
	} {
		g, err := Gen(GenConfig{Seed: 1, Sites: tc.sites})
		if err != nil {
			t.Fatal(err)
		}
		count := map[int]int{}
		for _, a := range g.ASes {
			count[a.Tier]++
		}
		if count[GenTier1] != tc.tier1 || count[GenTier2] != tc.tier2 || count[GenStub] != tc.sites {
			t.Errorf("Sites %d: %d/%d/%d ASes per tier, want %d/%d/%d", tc.sites,
				count[GenTier1], count[GenTier2], count[GenStub], tc.tier1, tc.tier2, tc.sites)
		}
	}
}

// linearPick is the reference weights.pick is held to: k distinct
// elements of pool drawn without replacement, element p weighted w[p],
// by a linear scan over the remaining candidates.
func linearPick(rng *sim.RNG, pool []int, w []float64, k int) []int {
	cand := append([]int(nil), pool...)
	total := 0.0
	for _, p := range cand {
		total += w[p]
	}
	out := make([]int, 0, k)
	for len(out) < k {
		r := rng.Float64() * total
		idx := len(cand) - 1
		for i, p := range cand {
			if r < w[p] {
				idx = i
				break
			}
			r -= w[p]
		}
		out = append(out, cand[idx])
		total -= w[cand[idx]]
		cand = append(cand[:idx], cand[idx+1:]...)
	}
	return out
}

// TestWeightedPickMatchesLinearScan: on random weight vectors, some
// entries not candidates, the Fenwick picker draws exactly the elements
// the linear scan draws from the same random stream, and leaves each
// pick one customer heavier. A draw that rounds up to the total takes
// the last candidate, as the scan's fallback does.
func TestWeightedPickMatchesLinearScan(t *testing.T) {
	src := sim.NewStreams(1).Stream("weights")
	rngF, rngL := sim.NewStreams(2).Stream("pick"), sim.NewStreams(2).Stream("pick")
	for trial := 0; trial < 2000; trial++ {
		n := 1 + src.Intn(200)
		f := newWeights(n)
		var pool []int
		for i := 0; i < n; i++ {
			if src.Intn(4) > 0 {
				f.set(i, float64(1+src.Intn(1000)))
				pool = append(pool, i)
			}
		}
		if len(pool) == 0 {
			continue
		}
		if last := pool[len(pool)-1]; f.search(f.total) != last {
			t.Fatalf("trial %d: search(total) = %d, want the last candidate %d", trial, f.search(f.total), last)
		}
		before := append([]float64(nil), f.w...)
		k := 1 + src.Intn(min(4, len(pool)))
		want := linearPick(rngL, pool, before, k)
		got := f.pick(rngF, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: picked %v, the linear scan %v", trial, got, want)
		}
		total := 0.0
		for i := range before {
			if slices.Contains(got, i) {
				before[i]++
			}
			total += before[i]
		}
		if !reflect.DeepEqual(f.w, before) || f.total != total {
			t.Fatalf("trial %d: weights after the pick %v (total %g), want %v (total %g)", trial, f.w, f.total, before, total)
		}
	}
	if rngF.Int63() != rngL.Int63() {
		t.Fatal("the picker and the scan consumed different numbers of draws")
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
		if got := m.Graph.ValleyFreeProviders(tc.dst, tc.src); !reflect.DeepEqual(got, tc.want) {
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
	g, edge := &m.Graph, m.Edges["ny:la"].Index
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
	g, edge := &m.Graph, m.Edges["ny:la"].Index
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
