package topo

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tango/internal/bgp"
	"tango/internal/sim"
)

// AS-level topology generation (ROADMAP item 1, scenario diversity): a
// seeded generator producing internets of hundreds to thousands of ASes
// with Gao-Rexford business relationships, so the §4.1 discovery loop can
// be measured against topologies whose ground-truth path diversity is
// nontrivial (cf. "BGP-Multipath Routing in the Internet").
//
// The model is the classic three-layer hierarchy:
//
//   - Tier 1: a full settlement-free peering clique — the default-free
//     zone. Every tier-1 reaches every prefix without a provider.
//   - Tier 2: regional transit. Each tier-2 buys transit from one or more
//     providers chosen among the tier-1s and the previously created
//     tier-2s by preferential attachment — the probability of picking a
//     provider grows with its existing customer degree raised to PrefExp,
//     which yields the heavy-tailed (power-law-ish) degree distribution
//     measured AS graphs show. Lateral tier-2 peerings add the shortcut
//     edges real peering fabrics provide.
//   - Sites: stub edge networks (the paper's deployment sites), each
//     multi-homed to MinHoming..MaxHoming transit providers. Sites buy
//     transit only — they never peer and never provide.
//
// Providers are always drawn among strictly earlier-created ASes, so the
// customer→provider digraph is acyclic by construction, and every AS has
// a transit path to the tier-1 clique, so the graph is connected. Both
// invariants are also checked explicitly by the property-test suite.
//
// Everything is drawn from one named stream of sim.Streams(Seed), so a
// graph is a pure function of its GenConfig: equal configs give deeply
// equal graphs (the determinism property test pins this).

// GenConfig parameterizes the AS-graph generator. The zero value is
// invalid.
type GenConfig struct {
	// Seed drives every random draw.
	Seed int64
	// Tier1 is the size of the settlement-free core clique (1..64).
	Tier1 int
	// Tier2 is the number of mid-tier transit ASes (0..4096).
	Tier2 int
	// Sites is the number of stub edge networks (0..50000).
	Sites int
	// MinHoming..MaxHoming bound each site's transit provider count.
	// MaxHoming must not exceed the provider pool (Tier2, or Tier1 when
	// Tier2 is zero).
	MinHoming, MaxHoming int
	// Tier2MaxHoming bounds each tier-2's provider count (1..64); the
	// draw is clamped to the pool available when the AS is created.
	Tier2MaxHoming int
	// PeerLinks is the number of lateral tier-2 peerings to attempt
	// (duplicates of existing adjacencies are skipped, so the realized
	// count may be lower).
	PeerLinks int
	// PrefExp is the preferential-attachment exponent: provider draws are
	// weighted by (1+customers)^PrefExp. 0 is uniform; 1 is linear
	// (Barabási-Albert-like). Must be finite, in [0, 8].
	PrefExp float64
}

// Validate reports whether the config describes a generatable graph. It
// returns an error — never panics — for any out-of-range field, which is
// the contract FuzzGenConfig exercises.
func (c GenConfig) Validate() error {
	if c.Tier1 < 1 || c.Tier1 > 64 {
		return fmt.Errorf("topo: GenConfig.Tier1 %d out of range [1, 64]", c.Tier1)
	}
	if c.Tier2 < 0 || c.Tier2 > 4096 {
		return fmt.Errorf("topo: GenConfig.Tier2 %d out of range [0, 4096]", c.Tier2)
	}
	if c.Sites < 0 || c.Sites > 50000 {
		return fmt.Errorf("topo: GenConfig.Sites %d out of range [0, 50000]", c.Sites)
	}
	if c.Tier2 > 0 && (c.Tier2MaxHoming < 1 || c.Tier2MaxHoming > 64) {
		return fmt.Errorf("topo: GenConfig.Tier2MaxHoming %d out of range [1, 64]", c.Tier2MaxHoming)
	}
	if c.Sites > 0 {
		pool := c.Tier2
		if pool == 0 {
			pool = c.Tier1
		}
		if c.MinHoming < 1 {
			return fmt.Errorf("topo: GenConfig.MinHoming %d must be at least 1", c.MinHoming)
		}
		if c.MaxHoming < c.MinHoming {
			return fmt.Errorf("topo: GenConfig.MaxHoming %d below MinHoming %d", c.MaxHoming, c.MinHoming)
		}
		if c.MaxHoming > pool {
			return fmt.Errorf("topo: GenConfig.MaxHoming %d exceeds provider pool %d", c.MaxHoming, pool)
		}
	}
	if c.PeerLinks < 0 || c.PeerLinks > 100000 {
		return fmt.Errorf("topo: GenConfig.PeerLinks %d out of range [0, 100000]", c.PeerLinks)
	}
	if maxPeer := c.Tier2 * (c.Tier2 - 1) / 2; c.PeerLinks > maxPeer {
		return fmt.Errorf("topo: GenConfig.PeerLinks %d exceeds tier-2 pair count %d", c.PeerLinks, maxPeer)
	}
	if math.IsNaN(c.PrefExp) || math.IsInf(c.PrefExp, 0) || c.PrefExp < 0 || c.PrefExp > 8 {
		return fmt.Errorf("topo: GenConfig.PrefExp %v out of range [0, 8]", c.PrefExp)
	}
	return nil
}

// Tiers of a generated AS.
const (
	GenTier1 = 1 // settlement-free core
	GenTier2 = 2 // regional transit
	GenStub  = 3 // edge site
)

// GenAS is one generated autonomous system.
type GenAS struct {
	Name string
	ASN  bgp.ASN
	Tier int
}

// GenEdge is one inter-AS adjacency. RelAB follows the Wire convention:
// it is what B is to A (RelProvider: B provides transit to A). Delay is
// the symmetric one-way link delay, also used as the BGP session delay.
type GenEdge struct {
	A, B  int
	RelAB bgp.Relation
	Delay time.Duration
}

// ASGraph is a generated AS-level topology.
type ASGraph struct {
	ASes  []GenAS
	Edges []GenEdge
}

// Gen generates the AS graph for cfg. It returns an error for any invalid
// config (it never panics on one), and a graph that is a pure function of
// cfg: calling Gen twice with equal configs yields deeply equal graphs.
func Gen(cfg GenConfig) (*ASGraph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewStreams(cfg.Seed).Stream("topo/gen")
	g := &ASGraph{}

	// Tier 1: the core clique, peering all-to-all.
	for i := 0; i < cfg.Tier1; i++ {
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("t1-%02d", i),
			ASN:  bgp.ASN(101 + i),
			Tier: GenTier1,
		})
	}
	for i := 0; i < cfg.Tier1; i++ {
		for j := i + 1; j < cfg.Tier1; j++ {
			g.Edges = append(g.Edges, GenEdge{
				A: i, B: j, RelAB: bgp.RelPeer,
				Delay: time.Duration(10+rng.Intn(31)) * time.Millisecond,
			})
		}
	}

	// custDeg[i] counts transit customers attached to AS i so far — the
	// preferential-attachment weight driver.
	custDeg := make([]int, cfg.Tier1+cfg.Tier2+cfg.Sites)

	// Tier 2: each AS buys transit from earlier-created providers.
	for i := 0; i < cfg.Tier2; i++ {
		idx := cfg.Tier1 + i
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("t2-%04d", i),
			ASN:  bgp.ASN(1001 + i),
			Tier: GenTier2,
		})
		pool := make([]int, idx) // every tier-1 and earlier tier-2
		for p := range pool {
			pool[p] = p
		}
		n := 1 + rng.Intn(cfg.Tier2MaxHoming)
		if n > len(pool) {
			n = len(pool)
		}
		for _, prov := range pickWeighted(rng, pool, custDeg, cfg.PrefExp, n) {
			g.Edges = append(g.Edges, GenEdge{
				A: idx, B: prov, RelAB: bgp.RelProvider,
				Delay: time.Duration(5+rng.Intn(21)) * time.Millisecond,
			})
			custDeg[prov]++
		}
	}

	// Lateral tier-2 peerings: drawn pairs, skipping existing adjacencies
	// (bounded attempts, so degenerate configs terminate instead of
	// spinning — the fuzz target's no-hang contract).
	if cfg.Tier2 > 1 && cfg.PeerLinks > 0 {
		adj := make(map[[2]int]bool, len(g.Edges))
		for _, e := range g.Edges {
			adj[edgeKey(e.A, e.B)] = true
		}
		added := 0
		for attempt := 0; attempt < 20*cfg.PeerLinks && added < cfg.PeerLinks; attempt++ {
			a := cfg.Tier1 + rng.Intn(cfg.Tier2)
			b := cfg.Tier1 + rng.Intn(cfg.Tier2)
			if a == b || adj[edgeKey(a, b)] {
				continue
			}
			adj[edgeKey(a, b)] = true
			g.Edges = append(g.Edges, GenEdge{
				A: a, B: b, RelAB: bgp.RelPeer,
				Delay: time.Duration(5+rng.Intn(26)) * time.Millisecond,
			})
			added++
		}
	}

	// Sites: stub edge networks multi-homed into the transit layer.
	sitePool := make([]int, 0, cfg.Tier2)
	if cfg.Tier2 > 0 {
		for i := 0; i < cfg.Tier2; i++ {
			sitePool = append(sitePool, cfg.Tier1+i)
		}
	} else {
		for i := 0; i < cfg.Tier1; i++ {
			sitePool = append(sitePool, i)
		}
	}
	for i := 0; i < cfg.Sites; i++ {
		idx := cfg.Tier1 + cfg.Tier2 + i
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("st-%05d", i),
			ASN:  bgp.ASN(10001 + i),
			Tier: GenStub,
		})
		n := cfg.MinHoming
		if cfg.MaxHoming > cfg.MinHoming {
			n += rng.Intn(cfg.MaxHoming - cfg.MinHoming + 1)
		}
		for _, prov := range pickWeighted(rng, sitePool, custDeg, cfg.PrefExp, n) {
			g.Edges = append(g.Edges, GenEdge{
				A: idx, B: prov, RelAB: bgp.RelProvider,
				Delay: time.Duration(5+rng.Intn(11)) * time.Millisecond,
			})
			custDeg[prov]++
		}
	}
	return g, nil
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// pickWeighted draws k distinct elements of pool without replacement,
// weighting element i by (1+deg[i])^exp. Sampling removes each pick from
// the candidate set and rescales, so the draw is exact and bounded — no
// rejection loop.
func pickWeighted(rng *sim.RNG, pool []int, deg []int, exp float64, k int) []int {
	if k > len(pool) {
		k = len(pool)
	}
	cand := append([]int(nil), pool...)
	w := make([]float64, len(cand))
	total := 0.0
	for i, p := range cand {
		w[i] = math.Pow(1+float64(deg[p]), exp)
		total += w[i]
	}
	out := make([]int, 0, k)
	for len(out) < k {
		idx := len(cand) - 1
		if total > 0 {
			r := rng.Float64() * total
			for i, wi := range w {
				if r < wi || i == len(cand)-1 {
					idx = i
					break
				}
				r -= wi
			}
		}
		out = append(out, cand[idx])
		total -= w[idx]
		cand = append(cand[:idx], cand[idx+1:]...)
		w = append(w[:idx], w[idx+1:]...)
	}
	return out
}

// Rel returns the relation of b as seen from a (what b is to a), and
// whether the two ASes are adjacent.
func (g *ASGraph) Rel(a, b int) (bgp.Relation, bool) {
	for _, e := range g.Edges {
		if e.A == a && e.B == b {
			return e.RelAB, true
		}
		if e.A == b && e.B == a {
			return invert(e.RelAB), true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency lists of every AS: for each node, the
// (neighbor index, relation-of-neighbor) pairs in edge order.
func (g *ASGraph) Neighbors() [][]GenAdj {
	adj := make([][]GenAdj, len(g.ASes))
	for _, e := range g.Edges {
		adj[e.A] = append(adj[e.A], GenAdj{Peer: e.B, Rel: e.RelAB})
		adj[e.B] = append(adj[e.B], GenAdj{Peer: e.A, Rel: invert(e.RelAB)})
	}
	return adj
}

// GenAdj is one adjacency-list entry: Rel is what Peer is to the owning
// node.
type GenAdj struct {
	Peer int
	Rel  bgp.Relation
}

// Providers returns the indices of a's transit providers, in edge order.
func (g *ASGraph) Providers(a int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.A == a && e.RelAB == bgp.RelProvider {
			out = append(out, e.B)
		}
		if e.B == a && e.RelAB == bgp.RelCustomer {
			out = append(out, e.A)
		}
	}
	return out
}

// Connected reports whether the undirected graph is one component.
func (g *ASGraph) Connected() bool {
	if len(g.ASes) == 0 {
		return true
	}
	adj := g.Neighbors()
	seen := make([]bool, len(g.ASes))
	queue := []int{0}
	seen[0] = true
	visited := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range adj[u] {
			if !seen[a.Peer] {
				seen[a.Peer] = true
				visited++
				queue = append(queue, a.Peer)
			}
		}
	}
	return visited == len(g.ASes)
}

// ProviderAcyclic reports whether the customer→provider digraph has no
// cycle (no AS is, transitively, its own provider).
func (g *ASGraph) ProviderAcyclic() bool {
	up := make([][]int, len(g.ASes)) // customer -> providers
	indeg := make([]int, len(g.ASes))
	for _, e := range g.Edges {
		switch e.RelAB {
		case bgp.RelProvider: // B provides to A
			up[e.A] = append(up[e.A], e.B)
			indeg[e.B]++
		case bgp.RelCustomer: // B is A's customer
			up[e.B] = append(up[e.B], e.A)
			indeg[e.A]++
		}
	}
	// Kahn's algorithm over the reversed digraph (provider -> customer
	// in-degrees): all nodes drain iff acyclic.
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	drained := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		drained++
		for _, p := range up[u] {
			if indeg[p]--; indeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	return drained == len(g.ASes)
}

// ASNIndex maps every ASN to its node index.
func (g *ASGraph) ASNIndex() map[bgp.ASN]int {
	m := make(map[bgp.ASN]int, len(g.ASes))
	for i, a := range g.ASes {
		m[a.ASN] = i
	}
	return m
}

// ValleyFreeProviders returns, sorted, the ASNs of dst's transit
// providers through which a valley-free route announced by dst can reach
// src — the §4.1 discovery loop's ground truth: each round's observed
// adjacent provider must come from this set, and a fully converged loop
// discovers all of it.
//
// Reachability per provider is a two-state BFS over the export rules:
// state "permissive" (the route was originated or learned from a
// customer; exportable to everyone) and state "restricted" (learned from
// a peer or provider; exportable only to customers). Gao-Rexford
// preference makes customer-learned routes win selection, so a node that
// *can* hold a route in the permissive state exports with permissive
// power — the BFS over (node, state) with permissive dominance is exact
// for steady-state reachability.
func (g *ASGraph) ValleyFreeProviders(dst, src int) []bgp.ASN {
	adj := g.Neighbors()
	var out []bgp.ASN
	for _, prov := range g.Providers(dst) {
		if g.reachableVia(adj, dst, prov, src) {
			out = append(out, g.ASes[prov].ASN)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reachableVia reports whether the announcement dst hands to its provider
// entry can propagate to src under valley-free export, never transiting
// dst itself.
func (g *ASGraph) reachableVia(adj [][]GenAdj, dst, entry, src int) bool {
	if entry == src {
		return true
	}
	const (
		restricted = 0
		permissive = 1
	)
	seen := make([][2]bool, len(g.ASes))
	// The entry provider learned the route from its customer dst.
	seen[entry][permissive] = true
	type item struct{ node, state int }
	queue := []item{{entry, permissive}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, a := range adj[it.node] {
			if a.Peer == dst {
				continue
			}
			// Export rule: permissive routes go everywhere; restricted
			// routes only to customers.
			if it.state == restricted && a.Rel != bgp.RelCustomer {
				continue
			}
			// Import state at the neighbor: permissive iff it learned the
			// route from one of its customers (we are its customer iff it
			// is our provider).
			ns := restricted
			if a.Rel == bgp.RelProvider {
				ns = permissive
			}
			if seen[a.Peer][ns] {
				continue
			}
			seen[a.Peer][ns] = true
			if a.Peer == src {
				return true
			}
			queue = append(queue, item{a.Peer, ns})
		}
	}
	return false
}

// ValleyFreePaths enumerates simple valley-free AS paths from src to dst
// (observed-path orientation: element 0 is src, the last element is dst),
// in deterministic DFS order, bounded by maxLen hops and maxPaths
// results. The golden-file test pins these sets for a small seeded graph.
func (g *ASGraph) ValleyFreePaths(dst, src, maxLen, maxPaths int) [][]bgp.ASN {
	adj := g.Neighbors()
	var out [][]bgp.ASN
	onPath := make([]bool, len(g.ASes))
	path := []int{dst}
	onPath[dst] = true
	var dfs func(node, state int)
	const (
		restricted = 0
		permissive = 1
	)
	dfs = func(node, state int) {
		if len(out) >= maxPaths {
			return
		}
		if node == src {
			// The announcement walked dst→…→src; the observed AS path at
			// src reads src-nearest first.
			p := make([]bgp.ASN, len(path))
			for i, n := range path {
				p[len(path)-1-i] = g.ASes[n].ASN
			}
			out = append(out, p)
			return
		}
		if len(path) > maxLen {
			return
		}
		// Deterministic neighbor order: ascending node index.
		next := append([]GenAdj(nil), adj[node]...)
		sort.Slice(next, func(i, j int) bool { return next[i].Peer < next[j].Peer })
		for _, a := range next {
			if onPath[a.Peer] {
				continue
			}
			if state == restricted && a.Rel != bgp.RelCustomer {
				continue
			}
			ns := restricted
			if a.Rel == bgp.RelProvider {
				ns = permissive
			}
			onPath[a.Peer] = true
			path = append(path, a.Peer)
			dfs(a.Peer, ns)
			path = path[:len(path)-1]
			onPath[a.Peer] = false
		}
	}
	dfs(dst, permissive)
	return out
}

// ValleyFreeObserved reports whether an AS path observed at a speaker is
// valley-free under the graph's relationships. The path is in wire order:
// element 0 is the last prepender (nearest the observer), the last
// element is the origin. Consecutive duplicates (prepending) are skipped;
// ASNs outside the graph (unstripped private edge ASNs) fail the check.
//
// When observer names a graph AS, the final import hop into the observer
// is checked too; pass 0 for an off-graph observer (a Tango edge server
// speaking from a private ASN behind a site).
func (g *ASGraph) ValleyFreeObserved(observer bgp.ASN, path bgp.Path) bool {
	idx := g.ASNIndex()
	// Collapse the wire path to the distinct AS chain, observer-nearest
	// first, and resolve every hop to a graph node.
	var chain []int
	if observer != 0 {
		o, ok := idx[observer]
		if !ok {
			return false
		}
		chain = append(chain, o)
	}
	for _, a := range path {
		n, ok := idx[a]
		if !ok {
			return false
		}
		if len(chain) > 0 && chain[len(chain)-1] == n {
			continue // prepending
		}
		chain = append(chain, n)
	}
	if len(chain) < 2 {
		return true
	}
	// Walk in announcement direction: origin (end) toward observer
	// (front). The origin holds the route permissively (it originated it,
	// or — for a site fronting a Tango edge — learned it from a
	// customer).
	permissive := true
	for i := len(chain) - 1; i > 0; i-- {
		exporter, importer := chain[i], chain[i-1]
		rel, ok := g.Rel(exporter, importer) // what importer is to exporter
		if !ok {
			return false // hop without an adjacency
		}
		if !permissive && rel != bgp.RelCustomer {
			return false // restricted route exported beyond customers
		}
		// State after import: permissive iff the importer heard it from
		// its own customer, i.e. the exporter is the importer's customer.
		permissive = rel == bgp.RelProvider
	}
	return true
}
