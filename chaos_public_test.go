package tango

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tango/internal/chaos"
	"tango/internal/obs"
)

// faultLog instruments m and returns a func rendering the faults
// journaled since, "apply <label>" or "revert <label>", one per line.
func faultLog(m *Mesh) func() string {
	j := obs.NewJournal(1 << 16)
	m.Instrument(obs.NewRegistry(), j)
	return func() string {
		var b strings.Builder
		for _, r := range j.Tail(0) {
			switch r.Kind {
			case obs.KindFaultApply:
				fmt.Fprintf(&b, "apply %s\n", r.Target())
			case obs.KindFaultRevert:
				fmt.Fprintf(&b, "revert %s\n", r.Target())
			}
		}
		return b.String()
	}
}

// TestMeshChaosFaultCampaign drives the public chaos API end to end on
// the default three-site mesh: named targets resolve, faults apply and
// revert on schedule, and the always-on conservation invariants stay
// silent throughout.
func TestMeshChaosFaultCampaign(t *testing.T) {
	m := newMesh(t, MeshOptions{Seed: 1})
	faults := faultLog(m)
	ch := m.Chaos()
	if m.Chaos() != ch {
		t.Fatal("second Chaos() call built a new engine")
	}
	if err := ch.LossBurst("nowhere", "NTT", time.Second, time.Second, 1); err == nil {
		t.Fatal("bogus trunk target accepted")
	}

	paths, err := m.Paths("ny", "chi")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected multiple ny->chi paths, got %d", len(paths))
	}
	prov := paths[0].Provider

	if err := ch.LossBurst("chi", prov, time.Second, 3*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.LossBurst("chi", prov, 6*time.Second, time.Second, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ch.RouteShift("chi", prov, 8*time.Second, time.Second, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Minute)
	m.d.Chaos.CheckNow()

	events := faults()
	for _, want := range []string{
		"apply loss-burst trunk/chi/" + prov + " p=1",
		"revert loss-burst trunk/chi/" + prov + " p=1",
		"apply loss-burst trunk/chi/" + prov + " p=0.5",
		"apply delay-shift trunk/chi/" + prov + " +5ms",
		"revert delay-shift trunk/chi/" + prov + " +5ms",
	} {
		if !strings.Contains(events, want) {
			t.Fatalf("missing %q in journal:\n%s", want, events)
		}
	}
	if vs := ch.Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations during campaign: %v", vs)
	}
}

// TestLabChaosHandle pins that the two-site lab hands out the same
// Chaos type as the mesh, over the lab's own targets: a line fault
// lands on "trunk/<site the traffic flows into>/<provider>", and the
// invariants watch the run.
func TestLabChaosHandle(t *testing.T) {
	l := newLab(t, Options{Seed: 3})
	faults := faultLog(l.Mesh)
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
	l.Run(2 * time.Minute)
	l.d.Chaos.CheckNow()

	events := faults()
	for _, want := range []string{
		"apply turbulence trunk/la/GTT",
		"apply delay-shift trunk/la/GTT +5ms",
		"revert delay-shift trunk/la/GTT +5ms",
		"revert instability trunk/ny/Telia",
	} {
		if !strings.Contains(events, want) {
			t.Fatalf("missing %q in journal:\n%s", want, events)
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
	faults := faultLog(l.Mesh)
	ch := l.Chaos()
	const s, ms = time.Second, time.Millisecond
	for _, tc := range []struct {
		name string
		err  error
		want string // what the error must name
	}{
		{"LossBurst in", ch.LossBurst("la", "GTT", -s, s, 0.5), "offset"},
		{"LossBurst dur", ch.LossBurst("la", "GTT", s, -s, 0.5), "duration"},
		{"LossBurst loss>1", ch.LossBurst("la", "GTT", s, s, 1.5), "loss"},
		{"LossBurst loss<0", ch.LossBurst("la", "GTT", s, s, -0.1), "loss"},
		{"LossBurst loss NaN", ch.LossBurst("la", "GTT", s, s, math.NaN()), "loss"},
		{"RouteShift in", ch.RouteShift("la", "GTT", -s, 30*s, 5*ms), "offset"},
		{"RouteShift dur", ch.RouteShift("la", "GTT", s, -30*s, 5*ms), "duration"},
		{"RouteShift delta", ch.RouteShift("la", "GTT", s, 30*s, -5*ms), "delta -5ms"},
		{"Instability in", ch.Instability("ny", "Telia", -s, 10*s, 0.1, 40*ms), "offset"},
		{"Instability dur", ch.Instability("ny", "Telia", s, -10*s, 0.1, 40*ms), "duration"},
		{"Instability prob>1", ch.Instability("ny", "Telia", s, 10*s, 2, 40*ms), "spike probability"},
		{"Instability peakExtra", ch.Instability("ny", "Telia", s, 10*s, 0.1, -40*ms), "peakExtra -40ms"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, tc.err, tc.want)
		}
	}
	l.Run(time.Minute)
	if evs := faults(); evs != "" {
		t.Fatalf("rejected faults still fired:\n%s", evs)
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
// the journal, so instrumenting the deployment leaves exactly one drop
// counter per trunk direction, and that counter counts.
func TestOneLineOneDropCounter(t *testing.T) {
	l := newLab(t, Options{Seed: 9})
	reg, j := obs.NewRegistry(), obs.NewJournal(4096)
	l.Instrument(reg, j)
	l.Chaos()
	l.d.Chaos.Schedule(chaos.LinkDown("trunk/la/GTT", l.Now()+time.Second, 5*time.Second))
	l.Run(10 * time.Second)

	drops := lineDrops(reg)
	trunks := l.d.Chaos.LineNames()
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
