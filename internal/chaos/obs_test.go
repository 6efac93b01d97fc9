package chaos

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/obs"
	"tango/internal/simnet"
)

// TestChaosObsCountersAndJournal checks a fault window increments the
// applied/reverted counters and leaves fault_apply/fault_revert records
// in the journal, with withdrawals journaled under their own kind.
func TestChaosObsCountersAndJournal(t *testing.T) {
	w, lk := twoNodes(1)
	ch := New(w.Eng)
	ch.AddLine("ab", lk.LineAB())
	reg := obs.NewRegistry()
	j := obs.NewJournal(32)
	bind(ch, reg, j)

	ch.Schedule(LinkDown("ab", time.Second, 2*time.Second))
	w.Run(5 * time.Second)

	snap := reg.Snapshot()
	if got := snap["tango_chaos_faults_applied_total"]; got != 1 {
		t.Fatalf("applied counter = %v, want 1", got)
	}
	if got := snap["tango_chaos_faults_reverted_total"]; got != 1 {
		t.Fatalf("reverted counter = %v, want 1", got)
	}
	recs := j.Tail(0)
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want apply+revert: %+v", len(recs), recs)
	}
	if recs[0].Kind != obs.KindFaultApply || recs[0].Target() != "link-down ab" {
		t.Fatalf("apply record wrong: kind %v target %q", recs[0].Kind, recs[0].Target())
	}
	if recs[0].V != int64(2*time.Second) {
		t.Fatalf("apply record duration = %d, want %d", recs[0].V, int64(2*time.Second))
	}
	if recs[1].Kind != obs.KindFaultRevert || recs[1].At != 3*time.Second {
		t.Fatalf("revert record wrong: kind %v at %v", recs[1].Kind, recs[1].At)
	}
}

// TestChaosObsWithdrawalKind checks BGP withdrawals journal under the
// withdraw kind rather than the generic fault kind.
func TestChaosObsWithdrawalKind(t *testing.T) {
	w := simnet.New(1)
	eng := w.Eng // the chaos engine runs on a network partition
	pfx := addr.MustParsePrefix("2001:db8:100::/48")
	sp := bgp.NewSpeaker(eng, bgp.NewTable(pfx), "edge", 65000, 1)
	sp.Originate(pfx)

	ch := New(eng)
	ch.AddSpeaker("edge", sp)
	reg := obs.NewRegistry()
	j := obs.NewJournal(8)
	bind(ch, reg, j)
	ch.Schedule(Withdrawal{Speaker: "edge", Prefix: pfx, At: time.Second, For: time.Second})
	w.Run(3 * time.Second)

	recs := j.Tail(0)
	if len(recs) != 2 || recs[0].Kind != obs.KindWithdraw {
		t.Fatalf("withdrawal records wrong: %+v", recs)
	}
}

// TestChaosObsViolationCounter checks invariant violations increment the
// counter and journal a violation record naming the invariant.
func TestChaosObsViolationCounter(t *testing.T) {
	w, lk := twoNodes(1)
	ch := New(w.Eng)
	reg := obs.NewRegistry()
	j := obs.NewJournal(8)
	ch.Instrument(reg, j)
	ch.Watch(Conservation("w", w))

	ch.CheckNow()
	if got := reg.Snapshot()["tango_chaos_violations_total"]; got != 0 {
		t.Fatalf("violations counter = %v before any violation", got)
	}
	lk.PortA().Node().Stats.Sent++ // cook the books
	ch.CheckNow()
	if got := reg.Snapshot()["tango_chaos_violations_total"]; got != 1 {
		t.Fatalf("violations counter = %v, want 1", got)
	}
	recs := j.Tail(0)
	if len(recs) != 1 || recs[0].Kind != obs.KindViolation {
		t.Fatalf("violation records wrong: %+v", recs)
	}
}
