package te

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tango/internal/sim"
)

// twoPathProblem: one demand of 100 bps over two disjoint unit links of
// capacity 100 each. The optimum is an even split at 0.5 utilization.
func twoPathProblem() *Problem {
	return &Problem{
		Links: []Link{{CapacityBps: 100}, {CapacityBps: 100}},
		Demands: []Demand{
			{Name: "d", RateBps: 100, Paths: [][]int{{0}, {1}}},
		},
	}
}

func TestSolverFindsEvenSplit(t *testing.T) {
	s := NewSolver(twoPathProblem(), 1)
	got := s.Solve()
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Solve() = %v, want 0.5", got)
	}
	w := s.Weights(0)
	if math.Abs(w[0]-0.5) > 1e-9 || math.Abs(w[1]-0.5) > 1e-9 {
		t.Fatalf("Weights(0) = %v, want [0.5 0.5]", w)
	}
}

// TestSolverBeatsSinglePathHerding builds the herding instance the TE
// layer exists to fix: every demand's first path crosses one shared
// link, with a private alternative each. Any single-best-path policy
// (all demands on path 0) overloads the shared link 4x; the solver must
// spread onto the alternatives.
func TestSolverBeatsSinglePathHerding(t *testing.T) {
	const n = 8
	links := []Link{{CapacityBps: 100}}
	var demands []Demand
	for i := 0; i < n; i++ {
		links = append(links, Link{CapacityBps: 100})
		demands = append(demands, Demand{
			RateBps: 50,
			Paths:   [][]int{{0}, {len(links) - 1}},
		})
	}
	s := NewSolver(&Problem{Links: links, Demands: demands}, 7)
	got := s.Solve()
	herded := float64(n) * 50 / 100 // everyone on the shared link
	if got >= 1 {
		t.Fatalf("Solve() = %v, want < 1 (herded baseline %v)", got, herded)
	}
	if got > 0.5+1e-9 {
		t.Fatalf("Solve() = %v, want <= 0.5 (each demand fits on its alternative)", got)
	}
}

func TestSolverDeterministicPerSeed(t *testing.T) {
	build := func() *Problem {
		links := make([]Link, 24)
		for i := range links {
			links[i] = Link{CapacityBps: float64(100 + 7*(i%5))}
		}
		var demands []Demand
		for d := 0; d < 30; d++ {
			paths := [][]int{
				{d % 24, (d + 5) % 24},
				{(d + 11) % 24, (d + 17) % 24},
				{(d + 3) % 24},
			}
			demands = append(demands, Demand{RateBps: float64(20 + d%9), Paths: paths})
		}
		return &Problem{Links: links, Demands: demands}
	}
	a, b := NewSolver(build(), 99), NewSolver(build(), 99)
	ma, mb := a.Solve(), b.Solve()
	if ma != mb {
		t.Fatalf("same seed, different max util: %v vs %v", ma, mb)
	}
	for d := 0; d < 30; d++ {
		if !reflect.DeepEqual(a.Weights(d), b.Weights(d)) {
			t.Fatalf("same seed, different weights for demand %d: %v vs %v", d, a.Weights(d), b.Weights(d))
		}
	}
	// Re-solving the same instance is a pure function too.
	if again := a.Solve(); again != ma {
		t.Fatalf("re-Solve drifted: %v vs %v", again, ma)
	}
}

func TestSolverCountsSumToQuanta(t *testing.T) {
	s := NewSolver(twoPathProblem(), 3)
	s.Solve()
	counts := s.Counts(0, make([]int, 0, 2))
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != DefaultQuanta {
		t.Fatalf("counts %v sum to %d, want %d", counts, sum, DefaultQuanta)
	}
}

func TestNewSolverRejectsMalformedProblems(t *testing.T) {
	for name, p := range map[string]*Problem{
		"no paths":          {Links: []Link{{CapacityBps: 1}}, Demands: []Demand{{RateBps: 1}}},
		"link out of range": {Links: []Link{{CapacityBps: 1}}, Demands: []Demand{{RateBps: 1, Paths: [][]int{{1}}}}},
		"negative link":     {Links: []Link{{CapacityBps: 1}}, Demands: []Demand{{RateBps: 1, Paths: [][]int{{-1}}}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSolver did not panic", name)
				}
			}()
			NewSolver(p, 1)
		}()
	}
}

// e15ScaleProblem mirrors the E15 mesh's shape: 64 sites with 16
// provider trunks each (an up and a down link per trunk), demands on
// ring and chord pairs in three flow classes, every demand offered all
// 16 two-link provider paths.
func e15ScaleProblem() *Problem {
	const sites, providers = 64, 16
	links := make([]Link, 0, sites*providers*2)
	for s := 0; s < sites; s++ {
		for p := 0; p < providers; p++ {
			cap := 4e6 * float64(1+p%4)
			links = append(links, Link{CapacityBps: cap}, Link{CapacityBps: cap})
		}
	}
	up := func(s, p int) int { return (s*providers + p) * 2 }
	down := func(s, p int) int { return (s*providers+p)*2 + 1 }
	var demands []Demand
	for s := 0; s < sites; s++ {
		for _, off := range []int{1, 3, 9, 19} {
			dst := (s + off) % sites
			for class := 0; class < 3; class++ {
				paths := make([][]int, providers)
				for p := 0; p < providers; p++ {
					paths[p] = []int{up(s, p), down(dst, p)}
				}
				demands = append(demands, Demand{
					RateBps: float64(64_000 * (1 + class*3 + (s % 5))),
					Paths:   paths,
				})
			}
		}
	}
	return &Problem{Links: links, Demands: demands}
}

// TestSolverE15ScaleConvergesFast pins the acceptance criterion that a
// full solve at E15 scale stays sub-second. The bound is relaxed under
// the race detector, whose instrumentation slows pure compute several
// fold.
func TestSolverE15ScaleConvergesFast(t *testing.T) {
	s := NewSolver(e15ScaleProblem(), 15)
	start := time.Now()
	got := s.Solve()
	elapsed := time.Since(start)
	limit := time.Second
	if sim.RaceEnabled {
		limit = 8 * time.Second
	}
	if elapsed > limit {
		t.Fatalf("Solve took %v, want < %v", elapsed, limit)
	}
	if got <= 0 || got >= 1 {
		t.Fatalf("Solve() = %v, want a feasible placement in (0, 1)", got)
	}
	t.Logf("E15-scale solve: %d demands, max util %.4f in %v", 64*4*3, got, elapsed)
}
