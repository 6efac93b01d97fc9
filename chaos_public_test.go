package tango

import (
	"math"
	"strings"
	"testing"
	"time"

	"tango/internal/obs"
)

// TestMeshChaosFaultCampaign drives the public chaos API end to end on
// the default three-site mesh: named targets resolve, faults apply and
// revert on schedule, a withdrawal round-trips through the edge speaker,
// and the always-on conservation invariants stay silent throughout.
func TestMeshChaosFaultCampaign(t *testing.T) {
	m := newMesh(t, MeshOptions{Seed: 1})
	ch := m.Chaos()
	if m.Chaos() != ch {
		t.Fatal("second Chaos() call built a new engine")
	}
	if len(ch.Targets()) == 0 {
		t.Fatal("no fault targets registered")
	}

	if err := ch.LinkDown("nowhere", "NTT", time.Second, time.Second); err == nil {
		t.Fatal("bogus trunk target accepted")
	}
	if err := ch.WithdrawPath("ny", "nowhere", 1, time.Second, time.Second); err == nil {
		t.Fatal("bogus withdrawal target accepted")
	}

	paths, err := m.Paths("ny", "chi")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected multiple ny->chi paths, got %d", len(paths))
	}
	prov := paths[0].Provider

	if err := ch.LinkDown("chi", prov, time.Second, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ch.LossBurst("chi", prov, 6*time.Second, time.Second, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ch.DelayShift("chi", prov, 8*time.Second, time.Second, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := ch.WithdrawPath("chi", "ny", 1, 2*time.Second, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	m.Run(12 * time.Second)
	ch.CheckNow()

	events := strings.Join(ch.Events(), "\n")
	for _, want := range []string{
		"apply link-down trunk/chi/" + prov,
		"revert link-down trunk/chi/" + prov,
		"apply loss-burst trunk/chi/" + prov,
		"apply delay-shift trunk/chi/" + prov,
		"apply withdraw edge/chi:ny",
		"revert withdraw edge/chi:ny",
	} {
		if !strings.Contains(events, want) {
			t.Fatalf("missing %q in event log:\n%s", want, events)
		}
	}
	if vs := ch.Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations during campaign: %v", vs)
	}
}

// TestLabChaosHandle pins that the two-site lab hands out the same
// Chaos type as the mesh, over the lab's own targets: a line fault
// lands on "trunk/<site the traffic flows into>/<provider>",
// a withdrawal resolves the pair's edge speaker, and the invariants
// watch the run.
func TestLabChaosHandle(t *testing.T) {
	l := newLab(t, Options{Seed: 3})
	ch := l.Chaos()
	if l.Chaos() != ch {
		t.Fatal("second Chaos() call built a new engine")
	}
	if err := ch.RouteShift("la", "GTT", time.Second, 30*time.Second, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := ch.Instability("ny", "Telia", time.Second, 10*time.Second, 0.1, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := ch.WithdrawPath("la", "ny", 1, 2*time.Second, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ch.WithdrawPath("la", "chi", 1, time.Second, time.Second); err == nil {
		t.Fatal("withdrawal for a pair the lab does not have accepted")
	}
	l.Run(2 * time.Minute)
	ch.CheckNow()

	events := strings.Join(ch.Events(), "\n")
	for _, want := range []string{
		"apply turbulence trunk/la/GTT",
		"apply delay-shift trunk/la/GTT +5ms",
		"revert delay-shift trunk/la/GTT +5ms",
		"revert instability trunk/ny/Telia",
		"apply withdraw edge/la:ny",
		"revert withdraw edge/la:ny",
	} {
		if !strings.Contains(events, want) {
			t.Fatalf("missing %q in event log:\n%s", want, events)
		}
	}
	if n := strings.Count(events, "turbulence trunk/la/GTT"); n != 4 {
		t.Fatalf("route shift logged %d turbulence transitions, want 4:\n%s", n, events)
	}
	if vs := ch.Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}

// TestChaosRejectsBadArguments: a fault that would start in the past,
// end before it starts, take delay away, or draw with a probability
// outside [0, 1] is an error naming the argument, and schedules nothing.
// A negative added delay used to be accepted, and the next Run panicked
// scheduling an arrival in the past.
func TestChaosRejectsBadArguments(t *testing.T) {
	l := newLab(t, Options{Seed: 1})
	ch := l.Chaos()
	const s, ms = time.Second, time.Millisecond
	storm := func(n int, in, window time.Duration) error {
		_, err := ch.Storm(n, in, window)
		return err
	}
	for _, tc := range []struct {
		name string
		err  error
		want string // what the error must name
	}{
		{"LinkDown in", ch.LinkDown("la", "GTT", -s, s), "offset"},
		{"LinkDown dur", ch.LinkDown("la", "GTT", s, -s), "duration"},
		{"LossBurst in", ch.LossBurst("la", "GTT", -s, s, 0.5), "offset"},
		{"LossBurst loss>1", ch.LossBurst("la", "GTT", s, s, 1.5), "loss"},
		{"LossBurst loss<0", ch.LossBurst("la", "GTT", s, s, -0.1), "loss"},
		{"LossBurst loss NaN", ch.LossBurst("la", "GTT", s, s, math.NaN()), "loss"},
		{"DelayShift in", ch.DelayShift("la", "GTT", -s, s, 5*ms), "offset"},
		{"DelayShift dur", ch.DelayShift("la", "GTT", s, -s, 5*ms), "duration"},
		{"DelayShift delta", ch.DelayShift("la", "GTT", s, 10*s, -5*ms), "delta -5ms"},
		{"RouteShift in", ch.RouteShift("la", "GTT", -s, 30*s, 5*ms), "offset"},
		{"RouteShift dur", ch.RouteShift("la", "GTT", s, -30*s, 5*ms), "duration"},
		{"RouteShift delta", ch.RouteShift("la", "GTT", s, 30*s, -5*ms), "delta -5ms"},
		{"Instability in", ch.Instability("ny", "Telia", -s, 10*s, 0.1, 40*ms), "offset"},
		{"Instability dur", ch.Instability("ny", "Telia", s, -10*s, 0.1, 40*ms), "duration"},
		{"Instability prob>1", ch.Instability("ny", "Telia", s, 10*s, 2, 40*ms), "spike probability"},
		{"Instability peakExtra", ch.Instability("ny", "Telia", s, 10*s, 0.1, -40*ms), "peakExtra -40ms"},
		{"WithdrawPath in", ch.WithdrawPath("la", "ny", 1, -s, s), "offset"},
		{"WithdrawPath dur", ch.WithdrawPath("la", "ny", 1, s, -s), "duration"},
		{"Storm in", storm(4, -s, 20*s), "storm"},
		{"Storm window", storm(4, s, -20*s), "storm"},
		{"Storm n", storm(-1, s, 20*s), "storm"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, tc.err, tc.want)
		}
	}
	l.Run(time.Minute)
	if evs := ch.Events(); len(evs) != 0 {
		t.Fatalf("rejected faults still fired:\n%s", strings.Join(evs, "\n"))
	}
}

// lineDrops returns the tango_line_drops_total series in reg by their
// line label.
func lineDrops(reg *obs.Registry) map[string]float64 {
	const prefix = `tango_line_drops_total{line="`
	out := map[string]float64{}
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, prefix) {
			out[strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)] = v
		}
	}
	return out
}

// TestOneLineOneDropCounter pins the one naming scheme: a trunk is
// "trunk/<site>/<provider>" as a fault target, as a metric label and in
// the journal, so instrumenting the deployment and its chaos handle — in
// either order, once or twice — leaves exactly one drop counter per trunk
// direction, and that counter counts.
func TestOneLineOneDropCounter(t *testing.T) {
	l := newLab(t, Options{Seed: 9})
	reg, j := obs.NewRegistry(), obs.NewJournal(4096)
	l.Instrument(reg, j)
	ch := l.Chaos()
	ch.Instrument(reg, j)
	if err := ch.LinkDown("la", "GTT", time.Second, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	l.Run(10 * time.Second)

	drops := lineDrops(reg)
	var trunks []string
	for _, target := range ch.Targets() {
		if strings.HasPrefix(target, "trunk/") {
			trunks = append(trunks, target)
		}
	}
	if len(drops) != len(trunks) {
		t.Fatalf("%d drop series for %d trunk directions: %v", len(drops), len(trunks), drops)
	}
	for _, name := range trunks {
		if _, ok := drops[name]; !ok {
			t.Fatalf("no drop series named %q: %v", name, drops)
		}
	}
	// 5 s of 10 ms probes offered to the downed trunk, all refused.
	if got := drops["trunk/la/GTT"]; got < 450 {
		t.Fatalf(`line="trunk/la/GTT" counted %v drops, want ~500`, got)
	}
}

// TestInstrumentAloneJournalsFaults: Lab.Instrument (and Mesh.Instrument)
// cover the fault injector too — a fault scheduled through the chaos
// handle shows up in /trace and the trunk drop counters exist without a
// second Instrument call.
func TestInstrumentAloneJournalsFaults(t *testing.T) {
	l := newLab(t, Options{Seed: 10})
	reg, j := obs.NewRegistry(), obs.NewJournal(4096)
	l.Instrument(reg, j)
	ch := l.Chaos()
	if err := ch.LossBurst("la", "GTT", time.Second, 2*time.Second, 0.5); err != nil {
		t.Fatal(err)
	}
	l.Run(5 * time.Second)
	var trace strings.Builder
	if err := j.WriteJSON(&trace, 0); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"fault_apply"`, `"fault_revert"`} {
		if !strings.Contains(trace.String(), kind) {
			t.Fatalf("no %s record in the trace after Lab.Instrument alone", kind)
		}
	}

	m := newMesh(t, MeshOptions{Seed: 10})
	reg = obs.NewRegistry()
	m.Instrument(reg, obs.NewJournal(64))
	if _, ok := lineDrops(reg)["trunk/chi/NTT"]; !ok {
		t.Fatalf("Mesh.Instrument registered no trunk drop counters: %v", lineDrops(reg))
	}
}

// TestLabStormReplaysFromSeed: Chaos.Storm draws from the deployment's
// seeded streams, so two labs of one seed schedule the same storm and log
// the same events, the invariants hold through it, and another seed draws
// another storm.
func TestLabStormReplaysFromSeed(t *testing.T) {
	storm := func(seed int64) (labels, events []string) {
		l := newLab(t, Options{Seed: seed})
		ch := l.Chaos()
		var err error
		if labels, err = ch.Storm(8, time.Second, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		l.Run(time.Minute)
		ch.CheckNow()
		if vs := ch.Violations(); len(vs) != 0 {
			t.Fatalf("seed %d: invariant violations during the storm: %v", seed, vs)
		}
		return labels, ch.Events()
	}
	labels, events := storm(11)
	if len(labels) != 8 || len(events) < 16 {
		t.Fatalf("storm of 8 scheduled %d faults and logged %d events:\n%s",
			len(labels), len(events), strings.Join(events, "\n"))
	}
	labels2, events2 := storm(11)
	if strings.Join(labels2, "\n") != strings.Join(labels, "\n") ||
		strings.Join(events2, "\n") != strings.Join(events, "\n") {
		t.Fatalf("equal seeds drew different storms:\n%s\n---\n%s",
			strings.Join(events, "\n"), strings.Join(events2, "\n"))
	}
	if other, _ := storm(12); strings.Join(other, "\n") == strings.Join(labels, "\n") {
		t.Fatalf("seeds 11 and 12 drew the same storm: %v", labels)
	}
}

// TestSecondStormDrawsAnew: every Storm used to draw from a freshly
// seeded copy of the storm stream, so a second storm on one handle
// replayed the first one's faults. The handle now holds one stream, and
// the second storm continues it.
func TestSecondStormDrawsAnew(t *testing.T) {
	l := newLab(t, Options{Seed: 1})
	ch := l.Chaos()
	first, err := ch.Storm(6, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(time.Minute)
	second, err := ch.Storm(6, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("storms of 6 scheduled %d and %d faults", len(first), len(second))
	}
	if strings.Join(first, "\n") == strings.Join(second, "\n") {
		t.Fatalf("second storm replayed the first: %v", first)
	}
}
