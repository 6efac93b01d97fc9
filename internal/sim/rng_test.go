package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestStreamsReproducible(t *testing.T) {
	a := NewStreams(7).Stream("jitter")
	b := NewStreams(7).Stream("jitter")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, name) produced different sequences")
		}
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	s := NewStreams(7)
	a := s.Stream("jitter")
	b := s.Stream("loss")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams jitter and loss agree on %d/100 draws; not independent", same)
	}
}

func TestStreamsIndependentBySeed(t *testing.T) {
	a := NewStreams(1).Stream("x")
	b := NewStreams(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 draws", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewStreams(1).Stream("b")
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(negative) returned true")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewStreams(3).Stream("b")
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) empirical rate %.4f", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewStreams(5).Stream("n")
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("Normal(10,2): mean=%.3f std=%.3f", mean, std)
	}
}

func TestExpMean(t *testing.T) {
	r := NewStreams(5).Stream("e")
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Exp(3): mean=%.3f", mean)
	}
}

// Property: stream derivation is a pure function of (seed, name).
func TestStreamDerivationProperty(t *testing.T) {
	f := func(seed int64, name string) bool {
		x := NewStreams(seed).Stream(name).Uint64()
		y := NewStreams(seed).Stream(name).Uint64()
		return x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyStreamMatchesEager: a stream seeds its generator on its first
// draw, and draws what a generator seeded eagerly from the same (seed,
// name) draws, whichever methods draw.
func TestLazyStreamMatchesEager(t *testing.T) {
	f := func(seed int64, name string, ops []uint8) bool {
		lazy := NewStreams(seed).Stream(name)
		if lazy.Seeded() {
			return false
		}
		eager := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ fnv64(name)))))
		for _, op := range append(ops, 0) {
			var a, b uint64
			switch op % 6 {
			case 0:
				a, b = lazy.Uint64(), eager.Uint64()
			case 1:
				a, b = uint64(lazy.Int63()), uint64(eager.Int63())
			case 2:
				a, b = math.Float64bits(lazy.Float64()), math.Float64bits(eager.Float64())
			case 3:
				a, b = math.Float64bits(lazy.NormFloat64()), math.Float64bits(eager.NormFloat64())
			case 4:
				a, b = math.Float64bits(lazy.ExpFloat64()), math.Float64bits(eager.ExpFloat64())
			case 5:
				a, b = uint64(lazy.Intn(1000)), uint64(eager.Intn(1000))
			}
			if a != b {
				return false
			}
		}
		return lazy.Seeded()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Edge probabilities draw nothing, so they leave a stream unseeded.
	r := NewStreams(1).Stream("edges")
	r.Bernoulli(0)
	r.Bernoulli(1)
	if r.Seeded() {
		t.Fatal("Bernoulli(0) and Bernoulli(1) seeded the stream")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := NewTicker(e, 10*time.Millisecond, func(now Time) {
		ticks = append(ticks, now)
	})
	e.Run(55 * time.Millisecond)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %d, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop()
	e.Run(time.Second)
	if len(ticks) != 5 {
		t.Fatalf("ticker fired after Stop: %d ticks", len(ticks))
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, time.Millisecond, func(Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run(time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

// Stop inside the callback must not touch the tick that just fired: the
// engine recycled its Event before the callback ran, so the first event
// the callback schedules may reuse it, and that event must still fire.
func TestTickerStopInCallbackKeepsItsEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	var tk *Ticker
	tk = NewTicker(e, time.Millisecond, func(Time) {
		e.Schedule(time.Millisecond, func() { fired = true })
		tk.Stop()
	})
	e.RunAll()
	if !fired {
		t.Fatal("the event scheduled before Stop in the tick callback never fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the drain", e.Pending())
	}
}

// A tick reschedules the ticker itself, not a fresh closure, so a warm
// ticker allocates nothing per tick.
func TestTickerTickAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ticks := 0
	NewTicker(e, time.Millisecond, func(Time) { ticks++ })
	e.Step()
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Fatalf("a tick allocates %v times, want 0", allocs)
	}
	if ticks != 102 {
		t.Fatalf("ticks = %d, want 102", ticks)
	}
}

func TestClockOffset(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 5*time.Second)
	if c.Now() != int64(5*time.Second) {
		t.Fatalf("clock at epoch = %d", c.Now())
	}
	e.Run(time.Second)
	if c.Now() != int64(6*time.Second) {
		t.Fatalf("clock after 1s = %d", c.Now())
	}
	if c.Offset() != 5*time.Second {
		t.Fatalf("Offset = %v", c.Offset())
	}
}

// Property: the difference between two constant-offset clocks is constant —
// the foundation of Tango's relative one-way-delay argument.
func TestClockOffsetInvariantProperty(t *testing.T) {
	f := func(offA, offB int32, steps uint8) bool {
		e := NewEngine()
		a := NewClock(e, time.Duration(offA)*time.Microsecond)
		b := NewClock(e, time.Duration(offB)*time.Microsecond)
		first := a.Now() - b.Now()
		for i := 0; i < int(steps); i++ {
			e.Run(e.Now() + time.Millisecond)
			if a.Now()-b.Now() != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
