package experiments

import (
	"fmt"

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

// E14DiscoverySweep measures the discovery loop against a generated
// internet (ROADMAP item 1): a seeded Gao-Rexford AS graph — tiered
// transit core, power-law provider degrees, multi-homed stub sites — at
// full scale 521 ASes, with concurrent discovery over 64 seeded site
// pairs scored against the generator's exhaustively enumerated
// valley-free ground truth. cfg.Shards sets the RunJobs worker count
// (results are identical across values — the differential test pins it);
// cfg.Sites scales the graph down for CI smoke.
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
	if sites < 2 || sites*(sites-1) < npairs {
		r.Err = fmt.Sprintf("E14 needs %d distinct ordered site pairs: %d sites give %d",
			npairs, sites, max(0, sites*(sites-1)))
		return r
	}
	workers := cfg.Shards
	if workers == 0 {
		workers = 1
	}

	// Seeded distinct ordered pairs over the stub sites.
	rng := sim.NewStreams(cfg.Seed + 14).Stream("e14/pairs")
	stubBase := gcfg.Tier1 + gcfg.Tier2
	seen := map[[2]int]bool{}
	var pairs [][2]int
	for len(pairs) < npairs {
		p := [2]int{stubBase + rng.Intn(sites), stubBase + rng.Intn(sites)}
		if p[0] == p[1] || seen[p] {
			continue
		}
		seen[p] = true
		pairs = append(pairs, p)
	}

	rep, err := RunSweep(SweepConfig{
		Graph:   gcfg,
		Pairs:   pairs,
		Workers: workers,
	})
	if err != nil {
		r.Err = err.Error()
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
	for _, p := range rep.Pairs {
		sumRecall += p.Recall
		totalFound += len(p.Providers)
		totalTruth += len(p.Truth)
		phantomFree = phantomFree && p.PhantomFree
		valleyFree = valleyFree && p.ValleyFree
		nonEmpty = nonEmpty && len(p.Found) > 0
		recallH.Observe(int64(p.Recall * 100))
		foundH.Observe(int64(len(p.Found)))
		truthH.Observe(int64(len(p.Truth)))
		for _, f := range p.Found {
			lenH.Observe(int64(len(f.Path)))
		}
	}
	meanRecall := sumRecall / float64(len(rep.Pairs))

	g := rep.Graph
	r.Rows = append(r.Rows, []string{"quantity", "value"})
	for _, row := range [][2]string{
		{"ASes", fmt.Sprint(len(g.ASes))},
		{"adjacencies", fmt.Sprint(len(g.Edges))},
		{"pairs swept", fmt.Sprint(len(rep.Pairs))},
		{"chunks", fmt.Sprint(rep.Chunks)},
		{"providers discovered", fmt.Sprint(totalFound)},
		{"ground-truth providers", fmt.Sprint(totalTruth)},
		{"mean recall", fmt.Sprintf("%.3f", meanRecall)},
	} {
		r.Rows = append(r.Rows, []string{row[0], row[1]})
	}

	r.check("generated internet at target scale", "≥500 ASes, connected, provider-acyclic",
		g.Connected() && g.ProviderAcyclic() && (!full || len(g.ASes) >= 500),
		"%d ASes, %d adjacencies", len(g.ASes), len(g.Edges))
	r.check("sweep coverage", "≥64 concurrent site pairs",
		(!full || len(rep.Pairs) >= 64) && len(rep.Pairs) >= 4,
		"%d pairs in %d chunks", len(rep.Pairs), rep.Chunks)
	r.check("every pair discovered a path", "the default route is always observable",
		nonEmpty, "min rounds > 0 across %d pairs", len(rep.Pairs))
	r.check("diversity recall at the pinned floor", fmt.Sprintf("recall ≥ %.2f", e14RecallFloor),
		meanRecall >= e14RecallFloor, "mean recall %.3f (%d/%d providers)", meanRecall, totalFound, totalTruth)
	r.check("no phantom providers", "discovered ⊆ valley-free ground truth",
		phantomFree, "phantom-free=%v", phantomFree)
	r.check("observed paths valley-free", "every path obeys Gao-Rexford export",
		valleyFree, "valley-free=%v", valleyFree)

	r.note("discovery is community-driven (64600:<asn>) against each destination site; " +
		"ground truth is the generator's two-state valley-free reachability per provider")
	r.VirtualTime = rep.VirtualTime
	r.Metrics = reg.Snapshot()
	r.Trace = rep.Trace
	return r
}
