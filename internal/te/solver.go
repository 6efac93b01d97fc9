package te

import "fmt"

const (
	// DefaultQuanta is how many equal shares each demand is split into:
	// weights come out as multiples of 1/8, fine enough to balance a
	// 16-path set without blowing up the move space.
	DefaultQuanta = 8
	// restarts is the number of perturbed restarts after the first
	// descent.
	restarts = 3
	// eps separates "strictly better" from float noise on utilizations,
	// which are O(1) values.
	eps = 1e-9
)

// Solver runs Link-Guided Local Search over a Problem. All working
// memory is allocated by NewSolver; Solve itself allocates nothing, so
// re-solving after a demand or capacity refresh is garbage-free.
//
// The search is deterministic: greedy construction in demand order,
// first-improvement descent scanning quanta in index order with the
// most-utilized link as the guide, and restart perturbations drawn from
// a private splitmix64 stream seeded by the constructor. Equal inputs
// and seed reproduce the exact placement.
type Solver struct {
	prob  *Problem
	state *State

	seed uint64
	rng  uint64

	assign  []uint16 // quantum index -> path index within its demand
	best    []uint16
	bestMax float64
	rate    []float64 // per-demand quantum rate in bps
	moveCap int
}

// NewSolver validates the problem and allocates all solver state. It
// panics on malformed input (a demand without paths, or a path index
// out of range): placement problems are built by construction code, so
// bugs should be loud.
func NewSolver(p *Problem, seed int64) *Solver {
	for di, d := range p.Demands {
		if len(d.Paths) == 0 {
			panic(fmt.Sprintf("te: demand %d (%s) has no candidate paths", di, d.Name))
		}
		if len(d.Paths) > 1<<16 {
			panic(fmt.Sprintf("te: demand %d (%s) has too many paths", di, d.Name))
		}
		for _, path := range d.Paths {
			for _, li := range path {
				if li < 0 || li >= len(p.Links) {
					panic(fmt.Sprintf("te: demand %d (%s) references link %d of %d", di, d.Name, li, len(p.Links)))
				}
			}
		}
	}
	n := len(p.Demands) * DefaultQuanta
	s := &Solver{
		prob:    p,
		state:   NewState(p.Links),
		seed:    uint64(seed),
		assign:  make([]uint16, n),
		best:    make([]uint16, n),
		rate:    make([]float64, len(p.Demands)),
		moveCap: 64*n + 1024,
	}
	for di, d := range p.Demands {
		s.rate[di] = d.RateBps / DefaultQuanta
	}
	return s
}

// next advances the private splitmix64 stream.
func (s *Solver) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Solve runs the full search from scratch and returns the best maximum
// utilization found. The final assignment (read through Counts or
// Weights) is the one achieving that value. Demand rates and link
// capacities are re-read from the problem on every call, so a caller
// may mutate them in place between solves. Zero allocations.
func (s *Solver) Solve() float64 {
	s.rng = s.seed
	for di := range s.prob.Demands {
		s.rate[di] = s.prob.Demands[di].RateBps / DefaultQuanta
	}
	for i := range s.prob.Links {
		if c := s.prob.Links[i].CapacityBps; c > 0 {
			s.state.invCap[i] = 1 / c
		} else {
			s.state.invCap[i] = 0
		}
	}
	s.state.Reset()
	s.greedyInit()
	s.descend()
	s.bestMax, _ = s.state.MaxUtil()
	copy(s.best, s.assign)

	for r := 0; r < restarts; r++ {
		s.kick()
		s.descend()
		if m, _ := s.state.MaxUtil(); m < s.bestMax-eps {
			s.bestMax = m
			copy(s.best, s.assign)
		}
	}

	// Leave the state holding the best placement.
	s.state.Reset()
	copy(s.assign, s.best)
	for q, pi := range s.assign {
		d := q / DefaultQuanta
		s.state.Add(s.prob.Demands[d].Paths[pi], s.rate[d])
	}
	return s.bestMax
}

// greedyInit places quanta one at a time, each on the candidate path
// whose worst link stays lowest after the placement — a capacity-aware
// generalization of shortest-path herding. Ties break to the lowest
// path index, so construction is deterministic.
func (s *Solver) greedyInit() {
	st := s.state
	for q := range s.assign {
		d := q / DefaultQuanta
		dem := &s.prob.Demands[d]
		bps := s.rate[d]
		bestPath, bestCost := 0, 0.0
		for pi, path := range dem.Paths {
			cost := 0.0
			for _, li := range path {
				if u := (st.load[li] + bps) * st.invCap[li]; u > cost {
					cost = u
				}
			}
			if pi == 0 || cost < bestCost-eps {
				bestPath, bestCost = pi, cost
			}
		}
		s.assign[q] = uint16(bestPath)
		st.Add(dem.Paths[bestPath], bps)
	}
}

// descend runs first-improvement local search to a local optimum: find
// the most utilized link, scan quanta routed over it, and accept the
// first move that strictly unloads it without pushing any gaining link
// to the current ceiling. Each accepted move drains load from the
// maximal plateau without admitting new members, so the descent
// terminates; moveCap bounds it defensively. The scan resumes where the
// last accepted move left off (round-robin) so one pass over the quanta
// is amortized across many accepted moves; a full fruitless cycle still
// proves the local optimum.
func (s *Solver) descend() {
	n := len(s.assign)
	if n == 0 {
		return
	}
	moves, start := 0, 0
	for moves < s.moveCap {
		oldMax, ml := s.state.MaxUtil()
		if oldMax <= eps {
			return
		}
		improved := false
		for k := 0; k < n; k++ {
			q := start + k
			if q >= n {
				q -= n
			}
			d := q / DefaultQuanta
			dem := &s.prob.Demands[d]
			cur := dem.Paths[s.assign[q]]
			if !pathHas(cur, ml) {
				continue
			}
			bps := s.rate[d]
			for alt, altPath := range dem.Paths {
				if alt == int(s.assign[q]) {
					continue
				}
				if s.admissible(cur, altPath, bps, oldMax, ml) {
					s.state.ApplyMove(cur, altPath, bps)
					s.assign[q] = uint16(alt)
					improved = true
					moves++
					start = q + 1
					if start == n {
						start = 0
					}
					break
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			return
		}
	}
}

// admissible reports whether moving bps from one path to the other is
// an accepted step: the guided link ml must strictly lose load (it sits
// on from and not on to), and every link that gains load must end
// strictly below the current maximum. Links that only lose load need no
// check — they cannot raise the ceiling.
func (s *Solver) admissible(from, to []int, bps, oldMax float64, ml int) bool {
	if pathHas(to, ml) {
		return false
	}
	st := s.state
	for _, li := range to {
		if pathHas(from, li) {
			continue // net unchanged
		}
		if u := (st.load[li] + bps) * st.invCap[li]; u >= oldMax-eps {
			return false
		}
	}
	return true
}

// kick perturbs the current placement before a restart: a seeded
// fraction of quanta jump to a random candidate path. The descent that
// follows repairs the damage from a different basin.
func (s *Solver) kick() {
	n := 1 + len(s.assign)/16
	for i := 0; i < n; i++ {
		q := int(s.next() % uint64(len(s.assign)))
		d := q / DefaultQuanta
		dem := &s.prob.Demands[d]
		pi := int(s.next() % uint64(len(dem.Paths)))
		if pi == int(s.assign[q]) {
			continue
		}
		s.state.ApplyMove(dem.Paths[s.assign[q]], dem.Paths[pi], s.rate[d])
		s.assign[q] = uint16(pi)
	}
}

func pathHas(p []int, li int) bool {
	for _, x := range p {
		if x == li {
			return true
		}
	}
	return false
}

// Counts writes the number of quanta demand d currently places on each
// of its candidate paths into out, which must have room for the
// demand's path count, and returns it. Zero allocations when out has
// capacity.
func (s *Solver) Counts(d int, out []int) []int {
	np := len(s.prob.Demands[d].Paths)
	out = out[:0]
	for i := 0; i < np; i++ {
		out = append(out, 0)
	}
	for q := d * DefaultQuanta; q < (d+1)*DefaultQuanta; q++ {
		out[s.assign[q]]++
	}
	return out
}

// Weights returns demand d's placement as fractions per candidate path
// (they sum to 1). Convenience form of Counts; allocates its result.
func (s *Solver) Weights(d int) []float64 {
	counts := s.Counts(d, make([]int, 0, len(s.prob.Demands[d].Paths)))
	w := make([]float64, len(counts))
	for i, c := range counts {
		w[i] = float64(c) / DefaultQuanta
	}
	return w
}
