package topo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tango/internal/bgp"
	"tango/internal/sim"
)

// AS-level topology generation (ROADMAP items 6, 13 and 19: deploying
// on, and scoring discovery against, a generated internet): a seeded
// generator producing internets of hundreds to thousands of ASes
// with Gao-Rexford business relationships, so the §4.1 discovery loop can
// be measured against topologies whose ground-truth path diversity is
// nontrivial (cf. "BGP-Multipath Routing in the Internet").
//
// The model is the classic three-layer hierarchy, its shape a function of
// the site count alone:
//
//   - Tier 1: a full settlement-free peering clique — the default-free
//     zone — of 4 ASes, or 8 from bigTier1Sites sites up. Every tier-1
//     reaches every prefix without a provider.
//   - Tier 2: max(6, Sites/6) regional transit ASes. Each buys transit
//     from 1–2 providers chosen among the tier-1s and the previously
//     created tier-2s by preferential attachment — a provider is drawn
//     with probability ∝ 1+customers, which yields the heavy-tailed
//     (power-law-ish) degree distribution measured AS graphs show. Half
//     as many lateral tier-2 peerings add the shortcut edges real peering
//     fabrics provide.
//   - Sites: stub edge networks (the paper's deployment sites), each
//     multi-homed to 2–4 tier-2 providers. Sites buy transit only — they
//     never peer and never provide.
//
// Providers are always drawn among strictly earlier-created ASes, so the
// customer→provider digraph is acyclic by construction, and every AS has
// a transit path to the tier-1 clique, so the graph is connected. Both
// invariants are also checked explicitly by the property-test suite.
//
// Everything is drawn from one named stream of sim.Streams(Seed), so a
// graph is a pure function of seed and size: equal configs give deeply
// equal graphs (the determinism property test pins this).

// GenConfig names one generated internet. The zero value is the smallest:
// a core and transit layer with no sites.
type GenConfig struct {
	// Seed drives every random draw.
	Seed int64
	// Sites is the number of stub edge networks (0..50000); it sets the
	// size of every tier.
	Sites int
}

// bigTier1Sites is the site count from which the tier-1 clique doubles
// to 8 (E14's full scale).
const bigTier1Sites = 440

// Validate reports whether the config describes a generatable graph. It
// returns an error — never panics — for an out-of-range size, which is
// the contract FuzzGenConfig exercises.
func (c GenConfig) Validate() error {
	if c.Sites < 0 || c.Sites > 50000 {
		return fmt.Errorf("topo: GenConfig.Sites %d out of range [0, 50000]", c.Sites)
	}
	return nil
}

// Tiers of a generated AS.
const (
	GenTier1 = 1 // settlement-free core
	GenTier2 = 2 // regional transit
	GenStub  = 3 // edge site
)

// GenAS is one autonomous system of an ASGraph.
type GenAS struct {
	Name string
	ASN  bgp.ASN
	// Tier is set by Gen; a Builder's recorded graph leaves it 0.
	Tier int
}

// GenEdge is one inter-AS adjacency. RelAB follows the Wire convention:
// it is what B is to A (RelProvider: B provides transit to A). Delay is
// the earliest either end can affect the other; Gen draws it as the
// symmetric one-way link delay, also used as the BGP session delay.
type GenEdge struct {
	A, B  int
	RelAB bgp.Relation
	Delay time.Duration
}

// ASGraph is an AS-level topology: one Gen draws, or one a mesh plan
// records. It does not change once queried: the first query works out
// the adjacency lists every later one reads.
type ASGraph struct {
	ASes  []GenAS
	Edges []GenEdge

	adjOnce sync.Once
	adj     [][]GenAdj
}

// Gen generates the AS graph for cfg. It returns an error for an invalid
// config (it never panics on one), and a graph that is a pure function of
// cfg: calling Gen twice with equal configs yields deeply equal graphs.
func Gen(cfg GenConfig) (*ASGraph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tier1, tier2, sites := 4, max(6, cfg.Sites/6), cfg.Sites
	if sites >= bigTier1Sites {
		tier1 = 8
	}
	rng := sim.NewStreams(cfg.Seed).Stream("topo/gen")
	g := &ASGraph{}

	// Tier 1: the core clique, peering all-to-all.
	for i := 0; i < tier1; i++ {
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("t1-%02d", i),
			ASN:  bgp.ASN(101 + i),
			Tier: GenTier1,
		})
	}
	for i := 0; i < tier1; i++ {
		for j := i + 1; j < tier1; j++ {
			g.Edges = append(g.Edges, GenEdge{
				A: i, B: j, RelAB: bgp.RelPeer,
				Delay: time.Duration(10+rng.Intn(31)) * time.Millisecond,
			})
		}
	}

	// Provider candidates: every tier-1 and earlier tier-2 while the
	// tier-2s home, the tier-2s alone while the sites do.
	w := newWeights(tier1 + tier2)
	for i := 0; i < tier1; i++ {
		w.set(i, 1)
	}

	// Tier 2: each AS buys transit from 1–2 earlier-created providers.
	for i := 0; i < tier2; i++ {
		idx := tier1 + i
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("t2-%04d", i),
			ASN:  bgp.ASN(1001 + i),
			Tier: GenTier2,
		})
		for _, prov := range w.pick(rng, 1+rng.Intn(2)) {
			g.Edges = append(g.Edges, GenEdge{
				A: idx, B: prov, RelAB: bgp.RelProvider,
				Delay: time.Duration(5+rng.Intn(21)) * time.Millisecond,
			})
		}
		w.set(idx, 1)
	}

	// Lateral tier-2 peerings: drawn pairs, skipping existing adjacencies
	// (bounded attempts, so the loop terminates whatever the draws — the
	// fuzz target's no-hang contract).
	adj := make(map[[2]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		adj[edgeKey(e.A, e.B)] = true
	}
	for attempt, added, peers := 0, 0, tier2/2; attempt < 20*peers && added < peers; attempt++ {
		a := tier1 + rng.Intn(tier2)
		b := tier1 + rng.Intn(tier2)
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

	// Sites: stub edge networks homed to 2–4 tier-2s.
	for i := 0; i < tier1; i++ {
		w.set(i, 0)
	}
	for i := 0; i < sites; i++ {
		idx := tier1 + tier2 + i
		g.ASes = append(g.ASes, GenAS{
			Name: fmt.Sprintf("st-%05d", i),
			ASN:  bgp.ASN(10001 + i),
			Tier: GenStub,
		})
		for _, prov := range w.pick(rng, 2+rng.Intn(3)) {
			g.Edges = append(g.Edges, GenEdge{
				A: idx, B: prov, RelAB: bgp.RelProvider,
				Delay: time.Duration(5+rng.Intn(11)) * time.Millisecond,
			})
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

// weights is a Fenwick tree over the provider candidates' draw weights,
// 1+customers, with 0 for an AS that is not a candidate: a weighted draw
// and a weight change each cost O(log n).
type weights struct {
	w     []float64 // each AS's weight
	tree  []float64 // 1-based Fenwick sums of w, less a pick's draws so far
	total float64   // the sum of the tree
}

func newWeights(n int) *weights {
	return &weights{w: make([]float64, n), tree: make([]float64, n+1)}
}

// move adds d to element i in the tree.
func (f *weights) move(i int, d float64) {
	f.total += d
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += d
	}
}

// set makes v the weight of element i.
func (f *weights) set(i int, v float64) {
	f.move(i, v-f.w[i])
	f.w[i] = v
}

// search returns the first element whose running weight sum exceeds r,
// or the last candidate when r has rounded up to the total. The weights
// are integers below 2^53, so every sum, subtraction and comparison is
// exact and the element is the one a linear scan would find.
func (f *weights) search(r float64) int {
	r = min(r, f.total-1)
	step := 1
	for step < len(f.tree) {
		step <<= 1
	}
	i := 0
	for ; step > 0; step >>= 1 {
		if j := i + step; j < len(f.tree) && f.tree[j] <= r {
			i, r = j, r-f.tree[j]
		}
	}
	return i
}

// pick draws k distinct candidates without replacement, each with
// probability ∝ its weight among those left, and gives each pick one
// more customer. Every caller has more than k candidates.
func (f *weights) pick(rng *sim.RNG, k int) []int {
	out := make([]int, k)
	for j := range out {
		out[j] = f.search(rng.Float64() * f.total)
		f.move(out[j], -f.w[out[j]])
	}
	for _, i := range out {
		f.w[i]++
		f.move(i, f.w[i])
	}
	return out
}

// Neighbors returns the adjacency lists of every AS: for each node, the
// (neighbor index, relation-of-neighbor) pairs in edge order. Every call
// returns the same lists, built on the first, so callers must not write
// them.
func (g *ASGraph) Neighbors() [][]GenAdj {
	g.adjOnce.Do(func() {
		g.adj = make([][]GenAdj, len(g.ASes))
		for _, e := range g.Edges {
			g.adj[e.A] = append(g.adj[e.A], GenAdj{Peer: e.B, Rel: e.RelAB})
			g.adj[e.B] = append(g.adj[e.B], GenAdj{Peer: e.A, Rel: invert(e.RelAB)})
		}
	})
	return g.adj
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
	for _, n := range g.Neighbors()[a] {
		if n.Rel == bgp.RelProvider {
			out = append(out, n.Peer)
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

// The two states of a route under valley-free export: restricted (learned
// from a peer or provider; exportable only to customers) and permissive
// (originated or learned from a customer; exportable to everyone).
const (
	restricted = 0
	permissive = 1
)

// exportStep is the valley-free export rule for one hop: to is what the
// importing neighbour is to the exporter, which holds the route in state.
// ok reports whether the export is allowed, and next is the state the
// neighbour then holds the route in: permissive iff the exporter is its
// customer.
func exportStep(state int, to bgp.Relation) (next int, ok bool) {
	if state == restricted && to != bgp.RelCustomer {
		return restricted, false
	}
	if to == bgp.RelProvider {
		return permissive, true
	}
	return restricted, true
}

// reachableVia reports whether the announcement dst hands to its provider
// entry can propagate to src under valley-free export, never transiting
// dst itself.
func (g *ASGraph) reachableVia(adj [][]GenAdj, dst, entry, src int) bool {
	if entry == src {
		return true
	}
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
			ns, ok := exportStep(it.state, a.Rel)
			if !ok || seen[a.Peer][ns] {
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

// ValleyFreeObserved reports whether an AS path observed at the observer
// node is valley-free under the graph's relationships. The path is in
// wire order: element 0 is the last prepender (the observer's neighbour),
// the last element is the origin; consecutive duplicates (prepending)
// collapse. The walk starts at the observer and resolves each hop among
// the previous node's neighbours not yet on the walk, so an ASN several
// nodes share (Vultr's two POPs are both AS 20473) resolves by adjacency.
// A hop no such neighbour carries fails the check.
func (g *ASGraph) ValleyFreeObserved(observer int, path bgp.Path) bool {
	var hops []bgp.ASN
	for _, a := range path {
		if len(hops) == 0 || hops[len(hops)-1] != a {
			hops = append(hops, a)
		}
	}
	adj := g.Neighbors()
	onWalk := make([]bool, len(g.ASes))
	onWalk[observer] = true
	// rels[i] is what the walk's node i+1 is to its node i.
	rels := make([]bgp.Relation, 0, len(hops))
	var walk func(node int) bool
	walk = func(node int) bool {
		if len(rels) == len(hops) {
			return valleyFree(rels)
		}
		for _, a := range adj[node] {
			if onWalk[a.Peer] || g.ASes[a.Peer].ASN != hops[len(rels)] {
				continue
			}
			onWalk[a.Peer] = true
			rels = append(rels, a.Rel)
			ok := walk(a.Peer)
			rels = rels[:len(rels)-1]
			onWalk[a.Peer] = false
			if ok {
				return true
			}
		}
		return false
	}
	return walk(observer)
}

// valleyFree checks a walk's relations in announcement direction, from
// the origin (the end) toward the observer: rels[i] is what the exporter
// (the walk's node i+1) is to the importer (node i).
func valleyFree(rels []bgp.Relation) bool {
	// The origin holds the route permissively: it originated it, or — for
	// a POP fronting a Tango edge — learned it from a customer.
	state := permissive
	for i := len(rels) - 1; i >= 0; i-- {
		var ok bool
		if state, ok = exportStep(state, invert(rels[i])); !ok {
			return false
		}
	}
	return true
}
