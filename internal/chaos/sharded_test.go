package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// shardedTriangle builds a two-partition network: a and c on partition 0,
// b on partition 1, with a cross link a<->b and a local link a<->c.
func shardedTriangle(seed int64) (*simnet.Network, *simnet.Link, *simnet.Link) {
	w := simnet.NewSharded(seed, 2, 10*time.Millisecond, func(name string) int {
		if name == "b" {
			return 1
		}
		return 0
	})
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	c := w.AddNode("c", 0)
	cross := w.Connect(a, b,
		simnet.FixedDelay(10*time.Millisecond),
		simnet.FixedDelay(10*time.Millisecond))
	local := w.Connect(a, c,
		simnet.FixedDelay(time.Millisecond),
		simnet.FixedDelay(time.Millisecond))
	return w, cross, local
}

func TestShardedFaultLogMergesAcrossPartitions(t *testing.T) {
	w, cross, local := shardedTriangle(1)
	ch := New(w.Eng)
	if ch.Sim() != w.Eng {
		t.Fatal("Sim accessor broken")
	}
	// ba's send-path state lives on partition 1, ac's on partition 0: the
	// two faults apply on different engines and their log entries stage
	// per partition until a barrier merges them.
	ch.AddLine("ba", cross.LineBA())
	ch.AddLine("ac", local.LineAB())
	if ch.Line("ba") != cross.LineBA() || ch.Line("missing") != nil {
		t.Fatal("Line accessor broken")
	}
	if ch.Speaker("missing") != nil {
		t.Fatal("Speaker accessor broken")
	}
	ch.Schedule(LinkDown("ba", 5*time.Millisecond, 20*time.Millisecond))
	ch.Schedule(LinkDown("ac", 5*time.Millisecond, 20*time.Millisecond))
	ch.Schedule(LossBurst("ba", 15*time.Millisecond, 10*time.Millisecond, 0.5))

	w.Coord().EnterParallel()
	w.Run(sim.Time(50 * time.Millisecond))

	// Ties at 5ms and 25ms order by partition index (ac on 0, ba on 1);
	// the merged log is byte-stable across worker counts.
	want := "t=5ms apply link-down ac\n" +
		"t=5ms apply link-down ba\n" +
		"t=15ms apply loss-burst ba p=0.5\n" +
		"t=25ms revert link-down ac\n" +
		"t=25ms revert link-down ba\n" +
		"t=25ms revert loss-burst ba p=0.5\n"
	if got := ch.LogString(); got != want {
		t.Fatalf("merged log:\n%q\nwant:\n%q", got, want)
	}
	if len(ch.Log()) != 6 {
		t.Fatalf("Log holds %d entries, want 6", len(ch.Log()))
	}
}

func TestShardedChecksRideBarriersAndStop(t *testing.T) {
	w, _, _ := shardedTriangle(2)
	ch := New(w.Eng)
	fails := 0
	ch.Watch(InvariantFunc("always-bad", func(now sim.Time) error {
		fails++
		return errors.New("synthetic failure")
	}))
	if ch.Invariants() != 1 {
		t.Fatalf("Invariants() = %d, want 1", ch.Invariants())
	}
	ch.StartChecks(5 * time.Millisecond)
	w.Coord().EnterParallel()
	w.Run(sim.Time(20 * time.Millisecond))

	// Barriers land every 10ms; the 5ms cadence fires nominal ticks 5,10
	// at the first barrier and 15,20 at the second.
	if fails != 4 {
		t.Fatalf("checks ran %d times, want 4", fails)
	}
	vs := ch.Violations()
	if len(vs) != 4 {
		t.Fatalf("%d violations, want 4", len(vs))
	}
	if s := vs[0].String(); !strings.Contains(s, "always-bad") || !strings.Contains(s, "synthetic failure") {
		t.Fatalf("violation renders as %q", s)
	}

	// StopChecks gates the barrier hook (hooks cannot be unregistered);
	// a second StartChecks re-arms without double-registering.
	ch.StopChecks()
	w.Run(sim.Time(40 * time.Millisecond))
	if fails != 4 {
		t.Fatalf("checks ran while stopped: %d", fails)
	}
	ch.StartChecks(5 * time.Millisecond)
	w.Run(sim.Time(50 * time.Millisecond))
	if fails != 6 {
		t.Fatalf("re-armed checks ran %d times, want 6", fails)
	}
}

func TestShardedJournalViewsMergeAtBarriers(t *testing.T) {
	w, cross, local := shardedTriangle(3)
	ch := New(w.Eng)
	ch.AddLine("ba", cross.LineBA())
	ch.AddLine("ac", local.LineAB())
	reg := obs.NewRegistry()
	j := obs.NewJournal(64)
	ch.Instrument(reg, j)
	ch.Schedule(LinkDown("ba", 5*time.Millisecond, 10*time.Millisecond))
	ch.Schedule(LinkDown("ac", 5*time.Millisecond, 10*time.Millisecond))

	w.Coord().EnterParallel()
	w.Run(sim.Time(30 * time.Millisecond))

	recs := j.Tail(0)
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4 (2 applies + 2 reverts)", len(recs))
	}
	// Same (time, partition) order as the log: ac (part 0) before ba.
	if recs[0].Target() != "link-down ac" || recs[1].Target() != "link-down ba" {
		t.Fatalf("journal merge order: %q then %q", recs[0].Target(), recs[1].Target())
	}
}
