// Package te implements capacity-aware traffic engineering over the
// discovered path sets of a Tango mesh. It models the wide area as a
// set of capacitated links, a demand as a steerable traffic aggregate
// (one site pair and flow class) with a candidate path set, and solves
// for a placement of demand quanta onto paths that minimizes the
// maximum link utilization — the classic MinMaxLinkUtil objective.
//
// The performance core is State: a flat per-link load array with a
// lazily maintained max-utilization tracker. Applying or undoing a
// move (shifting one quantum of demand from one path to another)
// touches only the links on the two paths and allocates nothing, so a
// local-search solver can evaluate millions of candidate moves per
// second. The Solver on top is a seeded Link-Guided Local Search:
// deterministic greedy construction, first-improvement descent guided
// by the most-utilized link, and bounded random restarts — a pure
// function of (topology, demand, seed).
package te

// Link is one capacitated unidirectional resource (in the mesh: one
// direction of a provider trunk). CapacityBps of 0 means uncapacitated:
// the link never contributes to utilization.
type Link struct {
	CapacityBps float64
}

// Demand is one steerable traffic aggregate: RateBps of load that must
// be placed across the candidate Paths, each path a set of link indices
// into the problem's link table. The solver splits the rate into equal
// quanta and assigns each quantum to exactly one path, so the resulting
// per-path weights are multiples of 1/DefaultQuanta.
type Demand struct {
	Name    string
	RateBps float64
	Paths   [][]int
}

// Problem is a full placement instance: the capacitated links and the
// demands with their candidate paths.
type Problem struct {
	Links   []Link
	Demands []Demand
}

// State is the incremental utilization tracker: per-link load, inverse
// capacities, and a cached maximum. The cache is maintained eagerly on
// load increases (a new load at or above the cached ceiling is the new
// maximum) and lazily on decreases (removing load from the argmax link
// only marks the cache dirty; the next MaxUtil call rescans). That
// makes ApplyMove/UndoMove O(links on the two paths) with zero
// allocations, while MaxUtil amortizes its rare O(links) rescans over
// the accepted moves that caused them.
type State struct {
	load   []float64
	invCap []float64
	// maxUtil is an upper bound on the true maximum utilization; it is
	// exact (and maxLink its argmax) whenever dirty is false.
	maxUtil float64
	maxLink int
	dirty   bool
}

// NewState builds a zero-load state over the given links.
func NewState(links []Link) *State {
	s := &State{
		load:   make([]float64, len(links)),
		invCap: make([]float64, len(links)),
	}
	for i, l := range links {
		if l.CapacityBps > 0 {
			s.invCap[i] = 1 / l.CapacityBps
		}
	}
	return s
}

// Reset zeroes all load.
func (s *State) Reset() {
	for i := range s.load {
		s.load[i] = 0
	}
	s.maxUtil, s.maxLink, s.dirty = 0, 0, false
}

// Add places bps of load on every link of path. O(len(path)), no
// allocations.
func (s *State) Add(path []int, bps float64) {
	for _, li := range path {
		s.load[li] += bps
		// The cached maximum is an upper bound even when dirty, so any
		// utilization reaching it is the new exact maximum.
		if u := s.load[li] * s.invCap[li]; u >= s.maxUtil {
			s.maxUtil, s.maxLink, s.dirty = u, li, false
		}
	}
}

// Remove takes bps of load off every link of path. O(len(path)), no
// allocations.
func (s *State) Remove(path []int, bps float64) {
	for _, li := range path {
		s.load[li] -= bps
		if li == s.maxLink {
			// The argmax shrank; the cached value stays an upper bound
			// but may no longer be attained.
			s.dirty = true
		}
	}
}

// ApplyMove shifts bps of load from one path to another — the solver's
// elementary step. Cost is O(len(from)+len(to)) with zero allocations;
// links on both paths net out to no change.
func (s *State) ApplyMove(from, to []int, bps float64) {
	s.Remove(from, bps)
	s.Add(to, bps)
}

// UndoMove reverses a previous ApplyMove with the same arguments.
func (s *State) UndoMove(from, to []int, bps float64) {
	s.ApplyMove(to, from, bps)
}

// MaxUtil returns the maximum link utilization and its link index
// (lowest index on exact ties found by a rescan), repairing the lazy
// cache if a removal invalidated it.
func (s *State) MaxUtil() (float64, int) {
	if s.dirty {
		s.rescan()
	}
	return s.maxUtil, s.maxLink
}

func (s *State) rescan() {
	m, ml := 0.0, 0
	for i := range s.load {
		if u := s.load[i] * s.invCap[i]; u > m {
			m, ml = u, i
		}
	}
	s.maxUtil, s.maxLink, s.dirty = m, ml, false
}
