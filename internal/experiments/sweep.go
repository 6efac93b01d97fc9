package experiments

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/obs"
	"tango/internal/topo"
)

// Discovery sweep driver: runs the §4.1 iterative community discovery
// across many site pairs of one generated internet and scores the
// discovered provider sets against the generator's valley-free ground
// truth.
//
// Pairs are split into min(8, len(Pairs)) chunks; each chunk is one
// RunJobs job that builds its own replica of the (identical, seeded)
// topology and runs its pairs' discoverers concurrently on that one
// engine. The chunk count — and therefore every engine's event timeline
// — depends only on the pairs, never on Workers, so serial (Workers 1)
// and parallel runs produce deeply equal results and byte-identical
// merged journals (the differential test pins this).
type SweepConfig struct {
	// Graph generates the internet under test (its Seed drives every
	// draw).
	Graph topo.GenConfig
	// Pairs lists {src, dst} site indices (graph node order); discovery
	// runs toward dst, observing from src. At most 4096 pairs (each gets
	// its own probe /48).
	Pairs [][2]int
	// Workers bounds RunJobs parallelism (<= 0: GOMAXPROCS; 1: serial).
	Workers int
}

// Timing every sweep chunk shares (virtual time).
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

// PairResult scores one pair's discovery run (SweepConfig.Pairs order).
type PairResult struct {
	// Found is the discovery loop's raw output, in round order.
	Found []control.DiscoveredPath
	// Providers is the distinct discovered provider set, ascending.
	Providers []bgp.ASN
	// Truth is the valley-free ground truth: dst's providers through
	// which src is reachable, ascending.
	Truth []bgp.ASN
	// Recall is |Providers ∩ Truth| / |Truth| (1 when Truth is empty).
	Recall float64
	// PhantomFree reports Providers ⊆ Truth: discovery never observed a
	// provider the ground truth rules out.
	PhantomFree bool
	// ValleyFree reports every observed AS path obeyed the export rules.
	ValleyFree bool
}

// SweepReport is a finished sweep.
type SweepReport struct {
	Graph *topo.ASGraph
	Pairs []PairResult
	// Trace is the merged journal of every discovery round, in chunk
	// order — byte-identical across Workers values for a fixed config.
	Trace string
	// VirtualTime is the longest chunk timeline.
	VirtualTime time.Duration
	Chunks      int
}

type sweepChunk struct {
	found [][]control.DiscoveredPath // indexed like the chunk's pair slice
	recs  []obs.Rec
	vtime time.Duration
}

// RunSweep executes the sweep and scores it.
func RunSweep(cfg SweepConfig) (*SweepReport, error) {
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one pair")
	}
	if len(cfg.Pairs) > 4096 {
		return nil, fmt.Errorf("experiments: %d pairs exceed the probe-prefix budget (4096)", len(cfg.Pairs))
	}
	for _, p := range cfg.Pairs {
		if p[0] == p[1] {
			return nil, fmt.Errorf("experiments: sweep pair %d->%d is a self-pair", p[0], p[1])
		}
	}
	g, err := topo.Gen(cfg.Graph)
	if err != nil {
		return nil, err
	}
	chunks := min(8, len(cfg.Pairs))

	// Every chunk deploys the full edge-site union, so all replicas are
	// byte-for-byte the same topology and per-chunk timelines compose
	// into one deterministic merged journal.
	siteSet := map[int]bool{}
	for _, p := range cfg.Pairs {
		siteSet[p[0]] = true
		siteSet[p[1]] = true
	}
	edgeSites := make([]int, 0, len(siteSet))
	for s := range siteSet {
		edgeSites = append(edgeSites, s)
	}
	sort.Ints(edgeSites)

	out := make([]*sweepChunk, chunks)
	jobs := make([]Job, chunks)
	for ci := 0; ci < chunks; ci++ {
		ci := ci
		lo := len(cfg.Pairs) * ci / chunks
		hi := len(cfg.Pairs) * (ci + 1) / chunks
		jobs[ci] = Job{
			ID: fmt.Sprintf("sweep/%02d", ci),
			Run: func(Config) *Result {
				ch, err := runSweepChunk(cfg, g, edgeSites, lo, hi)
				if err != nil {
					panic(err) // surfaced as the job's Result.Err
				}
				out[ci] = ch
				return &Result{ID: fmt.Sprintf("sweep/%02d", ci)}
			},
		}
	}
	for _, r := range RunJobs(jobs, cfg.Workers) {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: sweep chunk %s died: %s", r.ID, r.Err)
		}
	}

	rep := &SweepReport{Graph: g, Chunks: chunks}
	total := 0
	for _, ch := range out {
		total += len(ch.recs)
		if ch.vtime > rep.VirtualTime {
			rep.VirtualTime = ch.vtime
		}
	}
	merged := obs.NewJournal(total + 1)
	gi := 0
	for _, ch := range out {
		for i := range ch.recs {
			r := &ch.recs[i]
			merged.Record(r.At, r.Kind, r.A, r.B, r.V, r.Target())
		}
		for _, found := range ch.found {
			pair := cfg.Pairs[gi]
			rep.Pairs = append(rep.Pairs, scorePair(g, pair[0], pair[1], found))
			gi++
		}
	}
	rep.Trace = traceJSON(merged)
	return rep, nil
}

// runSweepChunk builds one topology replica and discovers pairs [lo, hi).
func runSweepChunk(cfg SweepConfig, g *topo.ASGraph, edgeSites []int, lo, hi int) (*sweepChunk, error) {
	s, err := topo.NewGenScenario(topo.GenScenarioConfig{
		Graph:     cfg.Graph,
		EdgeSites: edgeSites,
	})
	if err != nil {
		return nil, err
	}
	s.Run(sweepEstablish)

	n := hi - lo
	journal := obs.NewJournal(n*(sweepMaxRounds+2) + 1)
	ch := &sweepChunk{found: make([][]control.DiscoveredPath, n)}
	done := 0
	for k := 0; k < n; k++ {
		k := k
		pairIdx := lo + k
		src, dst := cfg.Pairs[pairIdx][0], cfg.Pairs[pairIdx][1]
		probe, err := s.ProbePrefix(pairIdx)
		if err != nil {
			return nil, err
		}
		announcer, observer := s.Edges[dst], s.Edges[src]
		if announcer == nil || observer == nil {
			return nil, fmt.Errorf("experiments: pair %d->%d references a site without an edge server", src, dst)
		}
		target := fmt.Sprintf("d/%d/%s->%s", pairIdx, g.ASes[src].Name, g.ASes[dst].Name)
		d := &control.Discoverer{
			Announcer: announcer.Speaker,
			Observer:  observer.Speaker,
			Probe:     probe,
			POPAS:     g.ASes[dst].ASN,
			RoundWait: sweepRoundWait,
			MaxRounds: sweepMaxRounds,
			OnRound: func(round int, found *control.DiscoveredPath) {
				if found == nil {
					journal.Record(s.B.W.Now(), obs.KindDiscovery, uint8(round), 0, 0, target)
					return
				}
				journal.Record(s.B.W.Now(), obs.KindDiscovery,
					uint8(round), uint8(len(found.Path)), int64(found.ProviderASN), target)
			},
		}
		d.Run(func(paths []control.DiscoveredPath) {
			ch.found[k] = paths
			done++
		})
	}
	// Every loop terminates within sweepMaxRounds+1 waits; the guard is
	// slack for the final withdrawals to land.
	for i := 0; i < sweepMaxRounds+4 && done < n; i++ {
		s.Run(sweepRoundWait)
	}
	if done < n {
		return nil, fmt.Errorf("experiments: sweep chunk [%d,%d) finished only %d/%d pairs", lo, hi, done, n)
	}
	ch.recs = journal.Tail(0)
	ch.vtime = s.B.W.Now()
	return ch, nil
}

// scorePair folds one pair's discovery output against the ground truth.
func scorePair(g *topo.ASGraph, src, dst int, found []control.DiscoveredPath) PairResult {
	pr := PairResult{
		Found:       found,
		Truth:       g.ValleyFreeProviders(dst, src),
		PhantomFree: true,
		ValleyFree:  true,
	}
	truth := map[bgp.ASN]bool{}
	for _, a := range pr.Truth {
		truth[a] = true
	}
	seen := map[bgp.ASN]bool{}
	hits := 0
	for _, f := range found {
		if !seen[f.ProviderASN] {
			seen[f.ProviderASN] = true
			pr.Providers = append(pr.Providers, f.ProviderASN)
			if truth[f.ProviderASN] {
				hits++
			} else {
				pr.PhantomFree = false
			}
		}
		// The observer is a Tango edge speaking from a private ASN, off
		// the AS graph; the observed path starts at its own site.
		if !g.ValleyFreeObserved(0, f.Path) {
			pr.ValleyFree = false
		}
	}
	sort.Slice(pr.Providers, func(i, j int) bool { return pr.Providers[i] < pr.Providers[j] })
	if len(pr.Truth) == 0 {
		pr.Recall = 1
	} else {
		pr.Recall = float64(hits) / float64(len(pr.Truth))
	}
	return pr
}
