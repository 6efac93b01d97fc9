package obs

import (
	"bytes"
	"testing"
	"time"

	"tango/internal/sim"
)

func TestJournalShardMergeOrder(t *testing.T) {
	j := NewJournal(16)
	s0 := j.Shard(0)
	s2 := j.Shard(2) // creating view 2 fills in view 1 too
	s1 := j.Shard(1)

	// Stage out of global order but in time order per view (events fire in
	// time order within a partition); include a tie at 2s to pin the
	// partition-index tiebreak.
	s1.Record(2*time.Second, KindFaultApply, 0, 0, 0, "p1-first")
	s1.Record(5*time.Second, KindFaultRevert, 0, 0, 0, "p1-second")
	s0.Record(2*time.Second, KindPathSwitch, 1, 2, 7, "p0-tie")
	s2.Record(time.Second, KindQueueDrop, 0, 0, 64, "p2-early")
	j.MergeShards()

	tail := j.Tail(0)
	want := []string{"p2-early", "p0-tie", "p1-first", "p1-second"}
	if len(tail) != len(want) {
		t.Fatalf("merged %d records, want %d", len(tail), len(want))
	}
	for i, r := range tail {
		if r.Target() != want[i] {
			t.Errorf("merge order [%d] = %q, want %q", i, r.Target(), want[i])
		}
		if r.Seq != uint64(i) {
			t.Errorf("merge seq [%d] = %d, want %d", i, r.Seq, i)
		}
	}

	// Views are cleared by the merge: an empty second merge adds nothing,
	// and reused views keep working.
	j.MergeShards()
	if j.Total() != 4 {
		t.Fatalf("idle merge appended records: total %d", j.Total())
	}
	s0.Record(6*time.Second, KindViolation, 0, 0, 0, "round2")
	j.MergeShards()
	if got := j.Tail(1)[0].Target(); got != "round2" {
		t.Fatalf("post-merge staging broken: tail %q", got)
	}
}

func TestJournalShardMatchesDirectWrites(t *testing.T) {
	// A sharded journal whose views saw the same records in the same global
	// order as a directly written journal must serialize byte-identically —
	// the property the shard-invariance differential leans on.
	direct := NewJournal(8)
	sharded := NewJournal(8)
	v0, v1 := sharded.Shard(0), sharded.Shard(1)

	direct.Record(time.Second, KindFaultApply, 0, 0, 5, "alpha")
	direct.Record(2*time.Second, KindPathSwitch, 1, 2, -3, "beta")
	direct.Record(3*time.Second, KindFaultRevert, 0, 0, 0, "gamma")
	v1.Record(time.Second, KindFaultApply, 0, 0, 5, "alpha")
	v0.Record(2*time.Second, KindPathSwitch, 1, 2, -3, "beta")
	v1.Record(3*time.Second, KindFaultRevert, 0, 0, 0, "gamma")
	sharded.MergeShards()

	var a, b bytes.Buffer
	if err := direct.WriteJSON(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := sharded.WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("sharded journal diverged from direct writes:\n%s\nvs\n%s", b.String(), a.String())
	}
}

func TestJournalShardGuards(t *testing.T) {
	var nilJ *Journal
	if nilJ.Shard(3) != nil {
		t.Fatal("Shard on a nil journal must return nil")
	}
	nilJ.MergeShards() // no-op, must not panic

	j := NewJournal(4)
	j.MergeShards() // no views yet: no-op
	view := j.Shard(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Shard of a shard view must panic")
		}
	}()
	view.Shard(0)
}

// stagedCoupledRun journals from three partitions of a coupled run cut
// into epochs by a 1 s hook, with ties across partitions on and between
// ticks. mergeEvery folds the views at every barrier; otherwise they are
// folded once after the run.
func stagedCoupledRun(t *testing.T, mergeEvery bool) string {
	t.Helper()
	c := sim.NewCoordinator(3, 4*time.Millisecond)
	j := NewJournal(64)
	if mergeEvery {
		c.AtBarrier(0, func(sim.Time) { j.MergeShards() })
	}
	c.AtBarrier(time.Second, func(sim.Time) {})
	for p := 0; p < 3; p++ {
		view, eng := j.Shard(p), c.Part(p)
		for i := 0; i < 8; i++ {
			at := time.Duration((i*(p+2))%7) * 500 * time.Millisecond
			eng.ScheduleAt(at, func() {
				view.Record(eng.Now(), KindPathSwitch, uint8(p), uint8(i), int64(at), "r")
			})
		}
	}
	c.Run(sim.Time(5 * time.Second))
	j.MergeShards()
	var b bytes.Buffer
	if err := j.WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The journal merge is invariant to barrier batching: every record at or
// before a barrier's instant is staged before that barrier runs, so
// merging at every coupled barrier equals merging once at the end.
func TestJournalMergeBatchInvariant(t *testing.T) {
	if every, once := stagedCoupledRun(t, true), stagedCoupledRun(t, false); every != once {
		t.Fatalf("merged at every barrier:\n%s\nmerged once:\n%s", every, once)
	}
}
