package experiments

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/topo"
)

// e14RecallFloor is the pinned diversity-recall floor: the mean per-pair
// fraction of ground-truth providers the §4.1 loop must expose. On
// generated graphs the loop is exhaustive in steady state (Gao-Rexford
// preference keeps the most re-exportable route selected, so every
// unsuppressed true provider stays observable), so the measured recall
// sits at 1.0; the floor leaves margin only for convergence-timing
// artifacts on future topology families.
const e14RecallFloor = 0.90

// Timing of the sweep (virtual time).
const (
	// sweepEstablish is the initial convergence window.
	sweepEstablish = 120 * time.Second
	// sweepRoundWait is the per-round convergence wait: a dozen-plus MRAI
	// intervals, comfortably above worst-case path hunting on generated
	// graphs.
	sweepRoundWait = 30 * time.Second
	// sweepMaxRounds bounds each discovery loop.
	sweepMaxRounds = 8
)

// pairResult scores one pair's discovery run.
type pairResult struct {
	// found is the discovery loop's raw output, in round order.
	found []control.DiscoveredPath
	// providers is the distinct discovered provider set, ascending.
	providers []bgp.ASN
	// truth is the valley-free ground truth: dst's providers through
	// which src is reachable, ascending.
	truth []bgp.ASN
	// recall is |providers ∩ truth| / |truth| (1 when truth is empty).
	recall float64
	// phantomFree reports providers ⊆ truth: discovery never observed a
	// provider the ground truth rules out.
	phantomFree bool
	// valleyFree reports every observed AS path obeyed the export rules.
	valleyFree bool
}

// E14DiscoverySweep measures the discovery loop against a generated
// internet: a seeded Gao-Rexford AS graph — tiered transit core,
// power-law provider degrees, multi-homed stub sites — at full scale
// 521 ASes, with 64 seeded site pairs scored against the
// generator's exhaustively enumerated valley-free ground truth. Every
// pair's discoverer runs concurrently on the one built internet, each
// announcing its own probe prefix, so per-pair suppression communities
// never interfere. cfg.Sites scales the graph down for CI smoke; the
// network is one partition, so cfg.Shards does not apply.
func E14DiscoverySweep(cfg Config) *Result {
	r := newResult("E14", "Discovery sweeps vs valley-free ground truth on a generated internet (§4.1)")

	sites := cfg.Sites
	full := sites == 0
	if full {
		sites = 440
	}
	tier1 := 4
	if full {
		tier1 = 8
	}
	tier2 := max(6, sites/6)
	gcfg := topo.GenConfig{
		Seed:           cfg.Seed + 14,
		Tier1:          tier1,
		Tier2:          tier2,
		Sites:          sites,
		MinHoming:      2,
		MaxHoming:      min(4, tier2),
		Tier2MaxHoming: 2,
		PeerLinks:      tier2 / 2,
		PrefExp:        1.0,
	}
	npairs := 64
	if !full {
		npairs = max(4, sites/2)
	}
	// A mesh pair deploys both directions, so the draw is over unordered
	// pairs.
	if sites < 2 || sites*(sites-1)/2 < npairs {
		r.Err = fmt.Sprintf("E14 needs %d distinct unordered site pairs: %d sites give %d",
			npairs, sites, max(0, sites*(sites-1)/2))
		return r
	}

	// Seeded distinct unordered pairs over the stub sites; each pair
	// discovers from its first site toward its second.
	rng := sim.NewStreams(cfg.Seed + 14).Stream("e14/pairs")
	seen := map[[2]int]bool{}
	var pairs [][2]int
	for len(pairs) < npairs {
		p := [2]int{rng.Intn(sites), rng.Intn(sites)}
		key := [2]int{min(p[0], p[1]), max(p[0], p[1])}
		if p[0] == p[1] || seen[key] {
			continue
		}
		seen[key] = true
		pairs = append(pairs, p)
	}

	s, err := topo.NewGenMesh(gcfg, pairs)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	g := &s.B.Graph
	s.Run(sweepEstablish)

	// Discovery runs toward dst, observing from src.
	journal := obs.NewJournal(len(pairs)*(sweepMaxRounds+2) + 1)
	found := make([][]control.DiscoveredPath, len(pairs))
	done := 0
	for i, k := range s.PairKeys {
		src, dst := k[0], k[1]
		fwd, back := src+":"+dst, dst+":"+src
		target := fmt.Sprintf("d/%d/%s->%s", i, src, dst)
		d := &control.Discoverer{
			Announcer: s.Edges[back].Speaker,
			Observer:  s.Edges[fwd].Speaker,
			Probe:     s.Probe[back],
			POPAS:     s.POPs[dst].ASN,
			RoundWait: sweepRoundWait,
			MaxRounds: sweepMaxRounds,
			OnRound: func(round int, f *control.DiscoveredPath) {
				if f == nil {
					journal.Record(s.B.W.Now(), obs.KindDiscovery, uint8(round), 0, 0, target)
					return
				}
				journal.Record(s.B.W.Now(), obs.KindDiscovery,
					uint8(round), uint8(len(f.Path)), int64(f.ProviderASN), target)
			},
		}
		d.Run(func(paths []control.DiscoveredPath) {
			found[i] = paths
			done++
		})
	}
	// Every loop terminates within sweepMaxRounds+1 waits; the guard is
	// slack for the final withdrawals to land.
	for k := 0; k < sweepMaxRounds+4 && done < len(pairs); k++ {
		s.Run(sweepRoundWait)
	}
	if done < len(pairs) {
		r.Err = fmt.Sprintf("E14 finished only %d/%d discovery loops", done, len(pairs))
		return r
	}

	reg := obs.NewRegistry()
	recallH := reg.Histogram("tango_e14_recall_pct", "per-pair discovery recall vs valley-free ground truth (%)")
	foundH := reg.Histogram("tango_e14_discovered_paths", "paths discovered per pair")
	truthH := reg.Histogram("tango_e14_truth_providers", "ground-truth providers per pair")
	lenH := reg.Histogram("tango_e14_path_len", "observed AS-path length (hops)")

	sumRecall := 0.0
	totalFound, totalTruth := 0, 0
	phantomFree, valleyFree, nonEmpty := true, true, true
	for i, k := range s.PairKeys {
		src, dst := k[0], k[1]
		p := scorePair(g, s.Edges[src+":"+dst].Index, s.POPs[src].Index, s.POPs[dst].Index, found[i])
		sumRecall += p.recall
		totalFound += len(p.providers)
		totalTruth += len(p.truth)
		phantomFree = phantomFree && p.phantomFree
		valleyFree = valleyFree && p.valleyFree
		nonEmpty = nonEmpty && len(p.found) > 0
		recallH.Observe(int64(p.recall * 100))
		foundH.Observe(int64(len(p.found)))
		truthH.Observe(int64(len(p.truth)))
		for _, f := range p.found {
			lenH.Observe(int64(len(f.Path)))
		}
	}
	meanRecall := sumRecall / float64(len(pairs))

	ases := len(s.Providers) + len(s.POPs)
	r.Rows = append(r.Rows, []string{"quantity", "value"})
	for _, row := range [][2]string{
		{"ASes", fmt.Sprint(ases)},
		{"Tango edges", fmt.Sprint(len(s.Edges))},
		{"adjacencies", fmt.Sprint(len(g.Edges))},
		{"pairs swept", fmt.Sprint(len(pairs))},
		{"providers discovered", fmt.Sprint(totalFound)},
		{"ground-truth providers", fmt.Sprint(totalTruth)},
		{"mean recall", fmt.Sprintf("%.3f", meanRecall)},
	} {
		r.Rows = append(r.Rows, []string{row[0], row[1]})
	}

	r.check("generated internet at target scale", "≥500 ASes, connected, provider-acyclic",
		g.Connected() && g.ProviderAcyclic() && (!full || ases >= 500),
		"%d ASes and %d Tango edges, %d adjacencies", ases, len(s.Edges), len(g.Edges))
	r.check("sweep coverage", "≥64 concurrent site pairs",
		(!full || len(pairs) >= 64) && len(pairs) >= 4,
		"%d pairs on one network", len(pairs))
	r.check("every pair discovered a path", "the default route is always observable",
		nonEmpty, "min rounds > 0 across %d pairs", len(pairs))
	r.check("diversity recall at the pinned floor", fmt.Sprintf("recall ≥ %.2f", e14RecallFloor),
		meanRecall >= e14RecallFloor, "mean recall %.3f (%d/%d providers)", meanRecall, totalFound, totalTruth)
	r.check("no phantom providers", "discovered ⊆ valley-free ground truth",
		phantomFree, "phantom-free=%v", phantomFree)
	r.check("observed paths valley-free", "every path obeys Gao-Rexford export",
		valleyFree, "valley-free=%v", valleyFree)

	r.note("discovery is community-driven (64600:<asn>) against each destination site; " +
		"ground truth is the generator's two-state valley-free reachability per provider")
	r.VirtualTime = s.B.W.Now()
	r.Metrics = reg.Snapshot()
	r.Trace = traceJSON(journal)
	return r
}

// scorePair folds one pair's discovery output, observed at the observer
// edge behind src, against the ground truth from src's POP to dst's.
func scorePair(g *topo.ASGraph, observer, src, dst int, found []control.DiscoveredPath) pairResult {
	pr := pairResult{
		found:       found,
		truth:       g.ValleyFreeProviders(dst, src),
		phantomFree: true,
		valleyFree:  true,
	}
	truth := map[bgp.ASN]bool{}
	for _, a := range pr.truth {
		truth[a] = true
	}
	seen := map[bgp.ASN]bool{}
	hits := 0
	for _, f := range found {
		if !seen[f.ProviderASN] {
			seen[f.ProviderASN] = true
			pr.providers = append(pr.providers, f.ProviderASN)
			if truth[f.ProviderASN] {
				hits++
			} else {
				pr.phantomFree = false
			}
		}
		// The destination's POP strips its edge's private ASN on the way
		// into the core, so one on an observed path leaked, though the
		// edge it names is on the graph.
		if len(f.Path.StripPrivate()) != len(f.Path) || !g.ValleyFreeObserved(observer, f.Path) {
			pr.valleyFree = false
		}
	}
	sort.Slice(pr.providers, func(i, j int) bool { return pr.providers[i] < pr.providers[j] })
	if len(pr.truth) == 0 {
		pr.recall = 1
	} else {
		pr.recall = float64(hits) / float64(len(pr.truth))
	}
	return pr
}
