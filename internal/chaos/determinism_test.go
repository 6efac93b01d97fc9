package chaos

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// stormRun builds a three-node chain carrying periodic traffic, unleashes
// a seeded random storm on every line, and returns a byte-exact
// fingerprint of the run: the chaos event log plus all line and node
// counters. It is the replay guarantee the seeded-RNG discipline in
// internal/sim/rng.go promises, end to end.
func stormRun(seed int64) string {
	w := simnet.New(seed)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	c := w.AddNode("c", 0)
	gauss := func(mean time.Duration) simnet.DelayModel {
		return simnet.GaussianDelay{
			Floor: mean - time.Millisecond, Mean: mean, Std: 300 * time.Microsecond}
	}
	ab := w.Connect(a, b, gauss(5*time.Millisecond), gauss(5*time.Millisecond))
	bc := w.Connect(b, c, gauss(8*time.Millisecond), gauss(8*time.Millisecond))

	dst := netip.MustParseAddr("2001:db8::c")
	c.AddAddr(dst)
	c.SetHandler(func([]byte) {})
	pfx := addr.MustParsePrefix("2001:db8::/32")
	a.SetRoute(pfx, a.Ports()[0])
	b.SetRoute(pfx, b.Ports()[1])

	var pkt []byte
	{
		var t fakeT
		pkt = mkPkt(&t, "2001:db8::a", "2001:db8::c")
		if t.failed {
			panic("mkPkt failed")
		}
	}
	sim.NewTicker(w.Eng, 2*time.Millisecond, func(sim.Time) { a.Inject(pkt) })

	ch := New(w.Eng)
	ch.AddLine("ab", ab.LineAB())
	ch.AddLine("ba", ab.LineBA())
	ch.AddLine("bc", bc.LineAB())
	ch.AddLine("cb", bc.LineBA())
	reg := obs.NewRegistry()
	journal := obs.NewJournal(4096)
	ch.Instrument(reg, journal)
	ch.Watch(Conservation("chain", w))
	ch.Watch(BufferBalance("chain", w))
	ch.StartChecks(50 * time.Millisecond)
	ch.ScheduleStorm(w.Streams.Stream("chaos"), StormConfig{
		Faults: 12,
		Start:  time.Second,
		Window: 20 * time.Second,
		MaxFor: 5 * time.Second,
	})
	w.Run(30 * time.Second)

	var sb strings.Builder
	sb.WriteString(ch.LogString())
	// The trace journal rides along in the fingerprint: seeded replays
	// must produce byte-identical /trace output, not just equal logs.
	if err := journal.WriteJSON(&sb, 0); err != nil {
		panic(err)
	}
	for _, lk := range w.Links() {
		for i, ln := range [2]*simnet.Line{lk.LineAB(), lk.LineBA()} {
			fmt.Fprintf(&sb, "%s[%d] %+v\n", lk.Name(), i, ln.Stats)
		}
	}
	for _, n := range w.Nodes() {
		fmt.Fprintf(&sb, "%s %+v\n", n.Name(), n.Stats)
	}
	fmt.Fprintf(&sb, "violations=%d\n", len(ch.Violations()))
	return sb.String()
}

// fakeT satisfies the minimal testing surface mkPkt needs so stormRun can
// reuse it outside a test callback.
type fakeT struct{ failed bool }

func (f *fakeT) Helper()      {}
func (f *fakeT) Fatal(...any) { f.failed = true }

func TestStormReplayIsByteIdentical(t *testing.T) {
	run1 := stormRun(7)
	run2 := stormRun(7)
	if run1 != run2 {
		t.Fatalf("same seed diverged:\n--- run1:\n%s\n--- run2:\n%s", run1, run2)
	}
	if !strings.Contains(run1, "apply ") {
		t.Fatalf("storm applied no faults:\n%s", run1)
	}
	if !strings.Contains(run1, "violations=0") {
		t.Fatalf("storm run violated invariants:\n%s", run1)
	}
	run3 := stormRun(8)
	if run1 == run3 {
		t.Fatal("different seeds produced byte-identical runs")
	}
}

// residueRun schedules a seeded mix of scripted incidents and storm
// faults on the two lines of one link (dense enough that windows of one
// kind interleave on a line), runs until the last window has closed, and
// returns the chaos log and each line's state at rest and at the end.
// parts 1 is a single engine; parts 2 puts the lines on two partitions.
func residueRun(seed int64, parts int) (log, rest, end string) {
	var w *simnet.Network
	if parts == 1 {
		w = simnet.New(seed)
	} else {
		w = simnet.NewSharded(seed, parts, 10*time.Millisecond, func(name string) int {
			if name == "b" {
				return 1
			}
			return 0
		})
	}
	lk := w.Connect(w.AddNode("a", 0), w.AddNode("b", 0),
		simnet.FixedDelay(10*time.Millisecond),
		simnet.FixedDelay(10*time.Millisecond))
	lk.LineAB().SetLoss(0.01)
	lines := map[string]*simnet.Line{"ab": lk.LineAB(), "ba": lk.LineBA()}
	state := func() string {
		var sb strings.Builder
		probe := sim.NewStreams(seed).Stream("probe")
		for _, name := range []string{"ab", "ba"} {
			ln := lines[name]
			lo, hi := delayRange(ln, probe, 200) // lo == hi == 10ms only with no overlay
			fmt.Fprintf(&sb, "%s loss=%g down=%v offset=%v delay=[%v,%v]\n",
				name, ln.Loss(), ln.Down(), ln.Shaper().Offset(), lo, hi)
		}
		return sb.String()
	}
	rest = state()

	ch := New(w.Eng)
	ch.AddLine("ab", lines["ab"])
	ch.AddLine("ba", lines["ba"])
	rng := sim.NewStreams(seed).Stream("mix")
	const window = time.Minute
	for i := 0; i < 4; i++ {
		target := []string{"ab", "ba"}[rng.Intn(2)]
		at := time.Second + sim.Time(rng.Int63n(int64(window)))
		dur := time.Duration(1 + rng.Int63n(int64(20*time.Second)))
		if i%2 == 0 {
			ch.Schedule(RouteShift(target, at, dur, 5*time.Millisecond, 5*time.Second)...)
		} else {
			ch.Schedule(Instability(target, at, dur,
				simnet.SpikeDelay{Prob: 0.1, Mean: 16 * time.Millisecond, Cap: 46 * time.Millisecond},
				time.Millisecond, time.Millisecond))
		}
	}
	ch.ScheduleStorm(rng, StormConfig{Faults: 24, Start: time.Second, Window: window, MaxFor: 20 * time.Second})

	if c := w.Coord(); c != nil {
		c.EnterParallel()
	}
	w.Run(2 * window)
	return ch.LogString(), rest, state()
}

// TestFaultsLeaveNoResidue: whatever mix of faults ran, once the last
// window closes every line is back at rest; the log replays byte for
// byte from the seed and does not depend on the partition count.
func TestFaultsLeaveNoResidue(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		log, rest, end := residueRun(seed, 1)
		if end != rest {
			t.Fatalf("seed %d: lines not at rest after the last window closed:\n%s--- want\n%s--- log\n%s", seed, end, rest, log)
		}
		if again, _, _ := residueRun(seed, 1); again != log {
			t.Fatalf("seed %d: same seed, different log:\n%s---\n%s", seed, log, again)
		}
		log2, _, end2 := residueRun(seed, 2)
		if log2 != log || end2 != rest {
			t.Fatalf("seed %d: two partitions diverged from one:\n%s%s--- one partition\n%s", seed, log2, end2, log)
		}
	}
}
