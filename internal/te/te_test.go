package te

import (
	"math"
	"testing"
)

// brute recomputes max utilization from scratch — the oracle the
// incremental tracker is checked against.
func brute(s *State) (float64, int) {
	m, ml := 0.0, 0
	for i := 0; i < s.NumLinks(); i++ {
		if u := s.Util(i); u > m {
			m, ml = u, i
		}
	}
	return m, ml
}

func fourLinks() []Link {
	return []Link{
		{CapacityBps: 100},
		{CapacityBps: 200},
		{CapacityBps: 50},
		{CapacityBps: 400},
	}
}

func TestStateAddRemoveTracksMax(t *testing.T) {
	s := NewState(fourLinks())
	s.Add([]int{0, 1}, 60)
	if m, ml := s.MaxUtil(); m != 0.6 || ml != 0 {
		t.Fatalf("after add: max %v at %d, want 0.6 at 0", m, ml)
	}
	s.Add([]int{2}, 40)
	if m, ml := s.MaxUtil(); m != 0.8 || ml != 2 {
		t.Fatalf("after second add: max %v at %d, want 0.8 at 2", m, ml)
	}
	// Removing from the argmax marks the cache dirty; MaxUtil must
	// rescan and find the runner-up.
	s.Remove([]int{2}, 40)
	if m, ml := s.MaxUtil(); m != 0.6 || ml != 0 {
		t.Fatalf("after remove: max %v at %d, want 0.6 at 0", m, ml)
	}
	s.Remove([]int{0, 1}, 60)
	if m, _ := s.MaxUtil(); m != 0 {
		t.Fatalf("after removing all: max %v, want 0", m)
	}
}

func TestStateUncapacitatedLinkNeverCounts(t *testing.T) {
	s := NewState([]Link{{CapacityBps: 0}, {CapacityBps: 100}})
	s.Add([]int{0}, 1e12)
	s.Add([]int{1}, 50)
	if m, ml := s.MaxUtil(); m != 0.5 || ml != 1 {
		t.Fatalf("max %v at %d, want 0.5 at 1 (link 0 is uncapacitated)", m, ml)
	}
}

func TestStateApplyUndoRoundTrip(t *testing.T) {
	s := NewState(fourLinks())
	s.Add([]int{0, 1}, 30)
	s.Add([]int{2, 3}, 20)
	wantMax, wantLink := s.MaxUtil()
	loads := make([]float64, s.NumLinks())
	for i := range loads {
		loads[i] = s.load[i]
	}
	from, to := []int{0, 1}, []int{1, 3} // overlap on link 1 must net out
	s.ApplyMove(from, to, 30)
	if s.load[0] != 0 || s.load[1] != 30 || s.load[3] != 50 {
		t.Fatalf("after move: loads %v %v %v", s.load[0], s.load[1], s.load[3])
	}
	if m, ml := s.MaxUtil(); math.Abs(m-0.4) > 1e-12 || ml != 2 {
		t.Fatalf("after move: max %v at %d, want 0.4 at 2", m, ml)
	}
	s.UndoMove(from, to, 30)
	for i := range loads {
		if math.Abs(s.load[i]-loads[i]) > 1e-9 {
			t.Fatalf("undo did not restore link %d: %v != %v", i, s.load[i], loads[i])
		}
	}
	if m, ml := s.MaxUtil(); math.Abs(m-wantMax) > 1e-12 || ml != wantLink {
		t.Fatalf("undo did not restore max: %v at %d, want %v at %d", m, ml, wantMax, wantLink)
	}
}

// TestStateMatchesOracle drives the incremental tracker through a long
// deterministic move sequence and cross-checks the cached maximum
// against a from-scratch recomputation at every step.
func TestStateMatchesOracle(t *testing.T) {
	links := make([]Link, 12)
	for i := range links {
		links[i] = Link{CapacityBps: float64(50 + 13*i)}
	}
	paths := [][]int{{0, 3, 7}, {1, 4}, {2, 5, 8}, {6, 9, 11}, {10, 0}, {4, 8, 10}}
	s := NewState(links)
	rng := uint64(42)
	next := func(n int) int {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}
	for i := 0; i < 2000; i++ {
		from, to := paths[next(len(paths))], paths[next(len(paths))]
		bps := float64(1 + next(40))
		switch next(3) {
		case 0:
			s.Add(to, bps)
		case 1:
			s.ApplyMove(from, to, bps)
		default:
			s.UndoMove(from, to, bps)
		}
		gotM, _ := s.MaxUtil()
		wantM, _ := brute(s)
		if math.Abs(gotM-wantM) > 1e-9 {
			t.Fatalf("step %d: tracker max %v, oracle %v", i, gotM, wantM)
		}
	}
}

// NumLinks returns the number of links tracked.
func (s *State) NumLinks() int { return len(s.load) }

// Util returns link i's utilization (load over capacity; 0 when
// uncapacitated).
func (s *State) Util(i int) float64 { return s.load[i] * s.invCap[i] }
