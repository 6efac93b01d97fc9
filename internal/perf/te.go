package perf

import (
	"testing"

	"tango/internal/te"
)

// teBenchProblem builds a mesh-shaped placement instance: 32 sites x 8
// provider trunks (an up and a down link each), 128 demands offered all
// 8 two-link provider paths. Small enough that SolverConverge stays a
// micro-benchmark, large enough that the move loop dominates setup.
func teBenchProblem() *te.Problem {
	const sites, providers = 32, 8
	links := make([]te.Link, 0, sites*providers*2)
	for s := 0; s < sites; s++ {
		for p := 0; p < providers; p++ {
			c := 1e6 * float64(1+p%3)
			links = append(links, te.Link{CapacityBps: c}, te.Link{CapacityBps: c})
		}
	}
	up := func(s, p int) int { return (s*providers + p) * 2 }
	down := func(s, p int) int { return (s*providers+p)*2 + 1 }
	var demands []te.Demand
	for s := 0; s < sites; s++ {
		for _, off := range []int{1, 5, 11, 17} {
			dst := (s + off) % sites
			paths := make([][]int, providers)
			for p := 0; p < providers; p++ {
				paths[p] = []int{up(s, p), down(dst, p)}
			}
			demands = append(demands, te.Demand{
				RateBps: float64(50_000 * (1 + s%7)),
				Paths:   paths,
			})
		}
	}
	return &te.Problem{Links: links, Demands: demands}
}

// BenchTEMoveEval measures the TE optimizer's elementary step: one
// ApplyMove/UndoMove round trip over two two-link paths plus a MaxUtil
// read — the operation the solver's inner loop performs per candidate.
// It must touch only the links on the two paths and allocate nothing.
func BenchTEMoveEval(b *testing.B) {
	prob := teBenchProblem()
	state := te.NewState(prob.Links)
	// Pre-load every demand onto its first path so moves shift real load.
	for _, d := range prob.Demands {
		state.Add(d.Paths[0], d.RateBps)
	}
	from := prob.Demands[0].Paths[0]
	to := prob.Demands[0].Paths[3]
	bps := prob.Demands[0].RateBps / te.DefaultQuanta
	for i := 0; i < warmupIters; i++ {
		state.ApplyMove(from, to, bps)
		state.MaxUtil()
		state.UndoMove(from, to, bps)
	}
	before, _ := state.MaxUtil()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.ApplyMove(from, to, bps)
		state.MaxUtil()
		state.UndoMove(from, to, bps)
	}
	b.StopTimer()
	after, _ := state.MaxUtil()
	if after != before {
		b.Fatalf("move round trips drifted max util: %v -> %v", before, after)
	}
}

// BenchSolverConverge measures a full Link-Guided Local Search run —
// greedy construction, guided descent, bounded restarts — on the
// mesh-shaped instance. The solver reuses its preallocated scratch, so
// steady-state re-solves allocate nothing.
func BenchSolverConverge(b *testing.B) {
	solver := te.NewSolver(teBenchProblem(), 1)
	var got float64
	for i := 0; i < 2; i++ { // warm the path; Solve state is self-resetting
		got = solver.Solve()
	}
	if got <= 0 || got >= 1 {
		b.Fatalf("bench instance must be feasible and loaded, got max util %v", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Solve()
	}
	b.StopTimer()
	if again := solver.Solve(); again != got {
		b.Fatalf("Solve not deterministic across runs: %v vs %v", again, got)
	}
}
