package measure

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordAgainstDirect(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 10000; i++ {
		v := r.NormFloat64()*3 + 10
		xs = append(xs, v)
		w.Add(v)
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	var m2 float64
	mn, mx := xs[0], xs[0]
	for _, v := range xs {
		m2 += (v - mean) * (v - mean)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if !almostEq(w.Mean(), mean, 1e-9) {
		t.Fatalf("mean %v vs %v", w.Mean(), mean)
	}
	if !almostEq(w.Var(), m2/float64(len(xs)), 1e-6) {
		t.Fatalf("var %v vs %v", w.Var(), m2/float64(len(xs)))
	}
	if w.Min() != mn || w.max != mx {
		t.Fatal("min/max wrong")
	}
	if w.N() != 10000 {
		t.Fatal("count wrong")
	}
	if !strings.Contains(w.String(), "n=10000") {
		t.Fatalf("String = %q", w.String())
	}
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Std() != 0 || w.Var() != 0 {
		t.Fatal("empty stats nonzero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Std() != 0 || w.Min() != 5 || w.max != 5 {
		t.Fatal("single-sample stats wrong")
	}
}

// Property: Welford matches two-pass computation for arbitrary inputs.
func TestWelfordProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			m2 += (float64(v) - mean) * (float64(v) - mean)
		}
		return almostEq(w.Mean(), mean, 1e-6) && almostEq(w.Var(), m2/float64(len(raw)), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRollingStdConstantSignal(t *testing.T) {
	r := NewRollingStd(time.Second)
	for i := 0; i < 5000; i++ {
		r.Add(time.Duration(i)*10*time.Millisecond, 28.0)
	}
	if r.MeanStd() != 0 {
		t.Fatalf("constant signal jitter = %v", r.MeanStd())
	}
	if r.Windows() < 48 {
		t.Fatalf("windows = %d", r.Windows())
	}
}

func TestRollingStdKnownValue(t *testing.T) {
	// Alternating 0/2 has population std 1 in every window.
	r := NewRollingStd(time.Second)
	for i := 0; i < 10000; i++ {
		v := float64((i % 2) * 2)
		r.Add(time.Duration(i)*10*time.Millisecond, v)
	}
	if !almostEq(r.MeanStd(), 1.0, 1e-9) {
		t.Fatalf("MeanStd = %v, want 1", r.MeanStd())
	}
}

func TestRollingStdDistinguishesJitter(t *testing.T) {
	// The paper's E3: a 0.01 ms-jitter path vs a 0.33 ms-jitter path.
	rg := rand.New(rand.NewSource(42))
	quiet := NewRollingStd(time.Second)
	noisy := NewRollingStd(time.Second)
	for i := 0; i < 100000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		quiet.Add(at, 28.0+rg.NormFloat64()*0.01)
		noisy.Add(at, 31.0+rg.NormFloat64()*0.33)
	}
	q, n := quiet.MeanStd(), noisy.MeanStd()
	if !almostEq(q, 0.01, 0.002) {
		t.Fatalf("quiet jitter = %v, want ~0.01", q)
	}
	if !almostEq(n, 0.33, 0.02) {
		t.Fatalf("noisy jitter = %v, want ~0.33", n)
	}
	if n/q < 20 {
		t.Fatalf("jitter ratio %v too small to distinguish paths", n/q)
	}
}

func TestRollingStdSparseWindows(t *testing.T) {
	r := NewRollingStd(time.Second)
	// One sample per window: no window has >= 2 samples.
	for i := 0; i < 10; i++ {
		r.Add(time.Duration(i)*time.Second+time.Millisecond, float64(i))
	}
	if r.MeanStd() != 0 || r.Windows() != 0 {
		t.Fatalf("sparse windows contributed: %v / %d", r.MeanStd(), r.Windows())
	}
}

func TestRollingStdPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRollingStd(0)
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Valid() {
		t.Fatal("valid before samples")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatal("first sample not adopted")
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA = %v", e.Value())
	}
	// Converges toward a steady input.
	for i := 0; i < 100; i++ {
		e.Add(30)
	}
	if !almostEq(e.Value(), 30, 1e-6) {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() { recover() }()
			NewEWMA(bad)
			t.Fatalf("alpha %v accepted", bad)
		}()
	}
}

func TestSeqTrackerInOrder(t *testing.T) {
	var s SeqTracker
	for i := uint32(100); i < 200; i++ {
		if s.Add(i) != "ok" {
			t.Fatal("in-order flagged")
		}
	}
	if s.Lost != 0 || s.Reordered != 0 || s.Dup != 0 || s.Received != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LossRate() != 0 {
		t.Fatal("loss rate nonzero")
	}
}

func TestSeqTrackerLoss(t *testing.T) {
	var s SeqTracker
	s.Add(1)
	s.Add(2)
	s.Add(5) // 3,4 lost
	if s.Lost != 2 {
		t.Fatalf("Lost = %d", s.Lost)
	}
	if !almostEq(s.LossRate(), 2.0/5.0, 1e-9) {
		t.Fatalf("LossRate = %v", s.LossRate())
	}
}

func TestSeqTrackerReorderConvertsLoss(t *testing.T) {
	var s SeqTracker
	s.Add(1)
	s.Add(3) // 2 provisionally lost
	if s.Lost != 1 {
		t.Fatalf("Lost = %d", s.Lost)
	}
	if s.Add(2) != "reorder" {
		t.Fatal("late arrival not flagged as reorder")
	}
	if s.Lost != 0 || s.Reordered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSeqTrackerDup(t *testing.T) {
	var s SeqTracker
	s.Add(1)
	s.Add(2)
	if s.Add(2) != "dup" {
		t.Fatal("duplicate not flagged")
	}
	if s.Dup != 1 {
		t.Fatalf("Dup = %d", s.Dup)
	}
}

func TestSeqTrackerWraparound(t *testing.T) {
	var s SeqTracker
	s.Add(0xfffffffe)
	s.Add(0xffffffff)
	if s.Add(0) != "ok" {
		t.Fatal("wraparound broke ordering")
	}
	s.Add(1)
	if s.Lost != 0 || s.Reordered != 0 {
		t.Fatalf("wraparound stats = %+v", s)
	}
}

// Property: for any delivery order of a contiguous block with some
// dropped, received + lost accounts for the whole span once all
// deliveries settle.
func TestSeqTrackerConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rg := rand.New(rand.NewSource(seed))
		const n = 200
		dropped := map[int]bool{}
		for i := 0; i < 20; i++ {
			dropped[rg.Intn(n)] = true
		}
		// Deliver slightly shuffled: swap adjacent delivered pairs with
		// probability 1/2, but never the first element (a late arrival
		// from before the tracker's start is indistinguishable from a
		// duplicate by design).
		seq := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !dropped[i] {
				seq = append(seq, i)
			}
		}
		swaps := 0
		for i := 1; i+1 < len(seq); i += 2 {
			if rg.Intn(2) == 0 {
				seq[i], seq[i+1] = seq[i+1], seq[i]
				swaps++
			}
		}
		var s SeqTracker
		maxSeen := 0
		for _, v := range seq {
			s.Add(uint32(v + 1000))
			if v > maxSeen {
				maxSeen = v
			}
		}
		// Drops before the tracker's first packet or after its last are
		// invisible to sequence-gap accounting.
		droppedBelowMax := uint64(0)
		for d := range dropped {
			if d > seq[0] && d < maxSeen {
				droppedBelowMax++
			}
		}
		return s.Received == uint64(len(seq)) &&
			s.Dup == 0 &&
			s.Lost == droppedBelowMax &&
			s.Reordered == uint64(swaps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqTrackerLossAcrossWrap(t *testing.T) {
	var s SeqTracker
	s.Add(0xfffffffe)
	s.Add(2) // 0xffffffff, 0, 1 lost across the wrap point
	if s.Lost != 3 {
		t.Fatalf("Lost = %d, want 3", s.Lost)
	}
	if s.Add(3) != "ok" {
		t.Fatal("post-wrap in-order flagged")
	}
}

func TestSeqTrackerReorderAcrossWrap(t *testing.T) {
	var s SeqTracker
	s.Add(0xfffffffd)
	s.Add(0xffffffff) // 0xfffffffe provisionally lost
	s.Add(1)          // 0 provisionally lost
	if s.Lost != 2 {
		t.Fatalf("Lost = %d, want 2", s.Lost)
	}
	// Both stragglers arrive late, one from each side of the wrap.
	if s.Add(0xfffffffe) != "reorder" {
		t.Fatal("pre-wrap straggler not a reorder")
	}
	if s.Add(0) != "reorder" {
		t.Fatal("post-wrap straggler not a reorder")
	}
	if s.Lost != 0 || s.Reordered != 2 || s.Dup != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSeqTrackerDeepReorderBurst(t *testing.T) {
	// A whole flight arrives behind a later packet: every late packet
	// converts its provisional loss, then normal progress resumes.
	var s SeqTracker
	s.Add(0)
	s.Add(10)
	if s.Lost != 9 {
		t.Fatalf("Lost = %d, want 9", s.Lost)
	}
	for i := uint32(1); i < 10; i++ {
		if got := s.Add(i); got != "reorder" {
			t.Fatalf("Add(%d) = %q, want reorder", i, got)
		}
	}
	if s.Lost != 0 || s.Reordered != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Add(11) != "ok" {
		t.Fatal("in-order after burst flagged")
	}
	if s.LossRate() != 0 {
		t.Fatalf("LossRate = %v", s.LossRate())
	}
}

func TestSeqTrackerLateThenDuplicate(t *testing.T) {
	// A late arrival fills its gap exactly once; a second copy is a dup.
	var s SeqTracker
	s.Add(1)
	s.Add(3)
	if s.Add(2) != "reorder" {
		t.Fatal("first late copy not a reorder")
	}
	if s.Add(2) != "dup" {
		t.Fatal("second late copy not a dup")
	}
	if s.Lost != 0 || s.Reordered != 1 || s.Dup != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSeqTrackerGapTrackingBounded(t *testing.T) {
	// A huge gap counts fully as loss, but late-arrival tracking is
	// bounded to the most recent sequence numbers: a straggler from
	// before the window registers as a dup rather than growing state
	// without limit.
	var s SeqTracker
	s.Add(0)
	s.Add(10000)
	if s.Lost != 9999 {
		t.Fatalf("Lost = %d, want 9999", s.Lost)
	}
	if s.Add(9000) != "reorder" {
		t.Fatal("straggler inside tracked window not a reorder")
	}
	if s.Add(100) != "dup" {
		t.Fatal("straggler beyond tracked window should degrade to dup")
	}
	if s.Reordered != 1 || s.Dup != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSeqTrackerTracksAfterManyLosses(t *testing.T) {
	// Losses that never recover leave the window as the path moves on,
	// so tracking never fills up: after 5 000 of them a packet three
	// places late is still a reorder.
	var s SeqTracker
	var seq uint32
	for i := 0; i < 5000; i++ {
		s.Add(seq)
		seq += 2
	}
	s.Add(seq + 1)
	s.Add(seq + 2)
	s.Add(seq + 3)
	if got := s.Add(seq); got != "reorder" {
		t.Fatalf("packet three places late after 5000 losses = %q, want reorder", got)
	}
	if s.Lost != 5000 || s.Reordered != 1 || s.Dup != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
