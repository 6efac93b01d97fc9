package chaos

import (
	"errors"
	"fmt"
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

// shardedFaultTrace is the merged journal of runShardedFaults. Ties
// order by partition (ac before ba at 5 ms and 25 ms), and the three-way
// revert tie at 25 ms keeps ba's append order.
const shardedFaultTrace = "t=5ms fault_apply link-down ac\n" +
	"t=5ms fault_apply link-down ba\n" +
	"t=15ms fault_apply loss-burst ba p=0.5\n" +
	"t=25ms fault_revert link-down ac\n" +
	"t=25ms fault_revert link-down ba\n" +
	"t=25ms fault_revert loss-burst ba p=0.5\n"

// runShardedFaults schedules a link-down on ba and on ac and a loss burst
// on ba over shardedTriangle, runs it in parallel epochs and returns the
// journal. workers 0 keeps the coordinator's default worker count.
func runShardedFaults(t *testing.T, workers int) *obs.Journal {
	t.Helper()
	w, cross, local := shardedTriangle(1)
	if workers > 0 {
		w.Coord().SetWorkers(workers)
	}
	ch := New(w.Eng)
	ch.AddLine("ba", cross.LineBA())
	ch.AddLine("ac", local.LineAB())
	if ch.Line("ba") != cross.LineBA() || ch.Line("missing") != nil {
		t.Fatal("Line accessor broken")
	}
	j := obs.NewJournal(64)
	bind(ch, obs.NewRegistry(), j)
	ch.Schedule(
		LinkDown("ba", 5*time.Millisecond, 20*time.Millisecond),
		LinkDown("ac", 5*time.Millisecond, 20*time.Millisecond),
		LossBurst("ba", 15*time.Millisecond, 10*time.Millisecond, 0.5))

	w.Coord().EnterParallel()
	w.Run(sim.Time(50 * time.Millisecond))
	return j
}

// TestShardedFaultLogMergesAcrossPartitions: ba's send-path state lives
// on partition 1 and ac's on partition 0, so their faults apply on
// different engines; the journal, the engine's only fault record, holds
// them as one time-ordered log.
func TestShardedFaultLogMergesAcrossPartitions(t *testing.T) {
	if got := trace(runShardedFaults(t, 0)); got != shardedFaultTrace {
		t.Fatalf("merged journal:\n%q\nwant:\n%q", got, shardedFaultTrace)
	}
}

// TestShardedJournalViewsMergeAtBarriers: the faults of
// runShardedFaults journal into different partition views until the
// barrier merge, and the merged journal is the same at 1 and 2 workers,
// byte for byte in its /trace JSON.
func TestShardedJournalViewsMergeAtBarriers(t *testing.T) {
	var jsons []string
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			j := runShardedFaults(t, workers)
			if got := trace(j); got != shardedFaultTrace {
				t.Fatalf("merged journal:\n%q\nwant:\n%q", got, shardedFaultTrace)
			}
			var b strings.Builder
			if err := j.WriteJSON(&b, 0); err != nil {
				t.Fatal(err)
			}
			jsons = append(jsons, b.String())
		})
	}
	if len(jsons) == 2 && jsons[0] != jsons[1] {
		t.Fatalf("journal JSON differs by worker count:\n%s--- 2 workers\n%s", jsons[0], jsons[1])
	}
}

// TestViolationsFollowStagedRecordsInEitherHookOrder: the check cadence
// may be registered before the deployment's journal merge (Mesh.Chaos
// before Mesh.Instrument) or after it. Either way the journal is byte
// for byte the same, every violation follows every record at or before
// its instant, and a CheckNow violation between runs is in the journal
// when CheckNow returns.
func TestViolationsFollowStagedRecordsInEitherHookOrder(t *testing.T) {
	run := func(t *testing.T, bindFirst bool) string {
		w, cross, local := shardedTriangle(4)
		ch := New(w.Eng)
		ch.AddLine("ba", cross.LineBA())
		ch.AddLine("ac", local.LineAB())
		ch.Watch(InvariantFunc("always-bad", func(sim.Time) error { return errors.New("synthetic failure") }))
		j := obs.NewJournal(64)
		if bindFirst {
			bind(ch, obs.NewRegistry(), j)
			ch.StartChecks(10 * time.Millisecond)
		} else {
			ch.StartChecks(10 * time.Millisecond)
			bind(ch, obs.NewRegistry(), j)
		}
		ch.Schedule(
			LinkDown("ba", 5*time.Millisecond, 5*time.Millisecond),
			LinkDown("ac", 10*time.Millisecond, 10*time.Millisecond))
		w.Coord().EnterParallel()
		w.Run(sim.Time(30 * time.Millisecond))
		ch.CheckNow()

		recs := j.Tail(0)
		if last := recs[len(recs)-1]; last.Kind != obs.KindViolation || last.At != 30*time.Millisecond || len(recs) != 8 {
			t.Fatalf("journal does not end with CheckNow's violation:\n%s", trace(j))
		}
		for i, v := range recs {
			for _, r := range recs[i+1:] {
				if v.Kind == obs.KindViolation && r.Kind != obs.KindViolation && r.At <= v.At {
					t.Fatalf("t=%s %s journaled after the violation at %s:\n%s", r.At, r.Target(), v.At, trace(j))
				}
			}
		}
		var b strings.Builder
		if err := j.WriteJSON(&b, 0); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if first, after := run(t, true), run(t, false); first != after {
		t.Fatalf("hook order changed the journal:\n%s--- checks first\n%s", first, after)
	}
}
