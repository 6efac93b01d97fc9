package topo

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tango/internal/bgp"
)

var updateGenGolden = flag.Bool("update-gen-golden", false, "rewrite the generator golden file")

// TestGenGolden pins one small seeded topology — its ASes, its
// relationships, and the valley-free ground truth (provider sets and
// full path sets) for three site pairs — so a policy or generator
// refactor that changes selection behavior fails loudly instead of
// silently shifting every experiment's baseline. Regenerate with
//
//	go test ./internal/topo -run TestGenGolden -update-gen-golden
//
// and review the diff like any other behavior change.
func TestGenGolden(t *testing.T) {
	g, err := Gen(GenConfig{Seed: 42, Sites: 6})
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}

	type goldenEdge struct {
		A, B    string
		Rel     string // what B is to A
		DelayNS int64  `json:"delay_ns"`
	}
	type goldenPair struct {
		Src, Dst  string
		Providers []bgp.ASN   // valley-free ground truth, ascending
		Paths     [][]bgp.ASN // every simple valley-free path, DFS order
	}
	type golden struct {
		ASes  []GenAS
		Edges []goldenEdge
		Pairs []goldenPair
	}

	relName := map[bgp.Relation]string{
		bgp.RelCustomer: "customer",
		bgp.RelPeer:     "peer",
		bgp.RelProvider: "provider",
	}
	out := golden{ASes: g.ASes}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, goldenEdge{
			A: g.ASes[e.A].Name, B: g.ASes[e.B].Name,
			Rel: relName[e.RelAB], DelayNS: int64(e.Delay),
		})
	}
	stub := 4 + 6 // the first site follows 4 tier-1s and 6 tier-2s
	for _, pr := range [][2]int{{stub, stub + 1}, {stub + 2, stub + 5}, {stub + 4, stub}} {
		src, dst := pr[0], pr[1]
		out.Pairs = append(out.Pairs, goldenPair{
			Src:       g.ASes[src].Name,
			Dst:       g.ASes[dst].Name,
			Providers: g.ValleyFreeProviders(dst, src),
			Paths:     g.ValleyFreePaths(dst, src, 8, 64),
		})
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')

	path := filepath.Join("testdata", "gen_golden.json")
	if *updateGenGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-gen-golden to create): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("generated topology diverged from the pinned golden file\n"+
			"got:\n%s\nwant:\n%s\n(rerun with -update-gen-golden only if the change is intended)",
			firstDiffContext(buf, want), firstDiffContext(want, buf))
	}
}

// firstDiffContext returns a short window around the first differing byte.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hi := i + 120
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...byte %d: %q...", i, a[lo:hi])
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
			ns, ok := exportStep(state, a.Rel)
			if onPath[a.Peer] || !ok {
				continue
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
