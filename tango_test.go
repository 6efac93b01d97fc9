package tango

import (
	"math"
	"strings"
	"testing"
	"time"

	"tango/internal/core"
	"tango/internal/topo"
)

func newLab(t *testing.T, opts Options) *Lab {
	t.Helper()
	l, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newMesh(t *testing.T, opts MeshOptions) *Mesh {
	t.Helper()
	m, err := NewMesh(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// labErr returns NewLab's error alone.
func labErr(opts Options) error {
	_, err := NewLab(opts)
	return err
}

func TestLabEstablishAndPaths(t *testing.T) {
	l := newLab(t, Options{Seed: 1})
	l.Run(time.Minute)

	ny := l.NY()
	la := l.LA()
	if ny.Name() != "ny" || la.Name() != "la" {
		t.Fatalf("names: %s/%s", ny.Name(), la.Name())
	}
	ps := ny.Paths()
	if len(ps) != 4 {
		t.Fatalf("NY paths = %d", len(ps))
	}
	want := []string{"NTT", "Telia", "GTT", "Level3"}
	for i, p := range ps {
		if p.Provider != want[i] {
			t.Fatalf("paths = %+v", ps)
		}
		if p.Samples == 0 {
			t.Fatalf("path %s has no measurements", p.Provider)
		}
		if p.ASPath == "" {
			t.Fatal("empty AS path")
		}
	}
	laWant := []string{"NTT", "Telia", "GTT", "Cogent"}
	for i, p := range la.Paths() {
		if p.Provider != laWant[i] {
			t.Fatalf("LA paths = %+v", la.Paths())
		}
	}
	// Exactly one current path per site.
	cur := 0
	for _, p := range ps {
		if p.Current {
			cur++
		}
	}
	if cur != 1 {
		t.Fatalf("current paths = %d", cur)
	}
}

func TestLabControllerConverges(t *testing.T) {
	l := newLab(t, Options{Seed: 2})
	var moves []string
	l.NY().OnPathSwitch(func(at time.Duration, from, to string) {
		moves = append(moves, from+"->"+to)
	})
	l.Run(3 * time.Minute)
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("NY on %s, want GTT", l.NY().CurrentPath())
	}
	if l.NY().site.Controller.Stats.Switches == 0 || len(moves) == 0 {
		t.Fatal("no switches recorded")
	}
}

func TestLabStaticPolicyStaysOnDefault(t *testing.T) {
	l := newLab(t, Options{Seed: 3, PolicyNY: PolicyStaticDefault, PolicyLA: PolicyStaticDefault})
	l.Run(2 * time.Minute)
	if l.NY().CurrentPath() != "NTT" {
		t.Fatalf("static policy moved to %s", l.NY().CurrentPath())
	}
}

func TestLabSendReceive(t *testing.T) {
	l := newLab(t, Options{Seed: 4})
	var got []Delivery
	l.LA().OnReceive(9000, func(d Delivery) { got = append(got, d) })

	src := l.NY().HostAddr(1)
	dst := l.LA().HostAddr(1)
	if err := l.NY().Send(src, dst, 8000, 9000, []byte("hello LA")); err != nil {
		t.Fatal(err)
	}
	l.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	d := got[0]
	if string(d.Payload) != "hello LA" || d.SrcPort != 8000 || d.Src != src || d.Dst != dst {
		t.Fatalf("delivery = %+v", d)
	}
	if ny := l.NY().site; ny.Switch.Stats.Encapped == 0 || ny.Prober.Sent == 0 {
		t.Fatalf("encapped %d, probes sent %d", ny.Switch.Stats.Encapped, ny.Prober.Sent)
	}
}

func TestLabInjectRouteShiftMovesTraffic(t *testing.T) {
	l := newLab(t, Options{Seed: 5})
	l.Run(2 * time.Minute) // settle on GTT
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("pre-event path %s", l.NY().CurrentPath())
	}
	ch := l.Chaos()
	if err := ch.RouteShift("la", "GTT", time.Minute, 10*time.Minute, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l.Run(5 * time.Minute) // into the event
	if l.NY().CurrentPath() == "GTT" {
		t.Fatal("controller did not leave GTT during +5ms shift")
	}
	l.Run(12 * time.Minute) // event over
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("controller did not return to GTT: on %s", l.NY().CurrentPath())
	}
}

func TestLabInjectErrors(t *testing.T) {
	l := newLab(t, Options{Seed: 6})
	ch := l.Chaos()
	if err := ch.RouteShift("la", "Nonexistent", 0, time.Minute, time.Millisecond); err == nil {
		t.Fatal("unknown provider accepted")
	}
	if err := ch.Instability("ny", "GTT", 0, time.Minute, 0.1, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := ch.LossBurst("la", "Telia", 0, time.Minute, 0.2); err != nil {
		t.Fatal(err)
	}
}

// TestLabRefused: a lab whose options were refused is no lab — NewLab
// returns nil and an error naming the field.
func TestLabRefused(t *testing.T) {
	const why = "Options.PolicyNY"
	l, err := NewLab(Options{PolicyNY: Policy(99)})
	if err == nil || !strings.Contains(err.Error(), why) {
		t.Errorf("NewLab: %v, want an error naming %s", err, why)
	}
	if l != nil {
		t.Error("NewLab returned a lab with its error")
	}
}

func TestLabDeterminism(t *testing.T) {
	run := func() (string, float64) {
		l := newLab(t, Options{Seed: 77})
		l.Run(2 * time.Minute)
		ps := l.NY().Paths()
		return l.NY().CurrentPath(), ps[2].MeanOWDMs
	}
	p1, m1 := run()
	p2, m2 := run()
	if p1 != p2 || m1 != m2 {
		t.Fatalf("runs diverged: (%s, %v) vs (%s, %v)", p1, m1, p2, m2)
	}
}

func TestLabAuthenticatedTelemetry(t *testing.T) {
	l := newLab(t, Options{Seed: 8, AuthKey: []byte("pair-shared-key")})
	l.Run(2 * time.Minute)
	// Probes are signed and verified: measurements flow and the
	// controller still converges on GTT.
	ps := l.NY().Paths()
	for _, p := range ps {
		if p.Samples == 0 {
			t.Fatalf("no measurements on %s with auth enabled", p.Provider)
		}
	}
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("controller on %s with auth enabled", l.NY().CurrentPath())
	}
}

// TestMeshProvidersShareNoASN: two providers with one ASN used to build,
// the discovery labels kept whichever name came last, and BGP loop
// detection dropped every route through either. The deployment behind
// every Mesh now refuses it and names both.
func TestMeshProvidersShareNoASN(t *testing.T) {
	provs := []topo.RadialProvider{
		{Name: "Zayo", ASN: 6461, Scale: 1},
		{Name: "Lumen", ASN: 6461, Scale: 1.2},
	}
	sites := []topo.RadialSite{
		{Name: "a", Radius: 5 * time.Millisecond, Providers: []string{"Zayo", "Lumen"}},
		{Name: "b", Radius: 7 * time.Millisecond, Providers: []string{"Zayo", "Lumen"}},
	}
	m, err := deploy(topo.RadialMeshConfig(1, provs, sites, [][2]string{{"a", "b"}}),
		core.MeshConfig{ProbeInterval: probeInterval, DecideEvery: decideEvery})
	want := "topo: providers Zayo and Lumen share AS6461"
	if err == nil || err.Error() != want || m != nil {
		t.Fatalf("deploy: %v, want %q", err, want)
	}
}

// TestBadOptionsNameTheField: a Policy out of range used to run MinOWD.
// The constructor now names the field and the value.
func TestBadOptionsNameTheField(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"lab policy NY", labErr(Options{Seed: 1, PolicyNY: Policy(99)}),
			"tango: Options.PolicyNY is Policy(99); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault"},
		{"lab policy LA", labErr(Options{Seed: 1, PolicyLA: -1}),
			"tango: Options.PolicyLA is Policy(-1); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: constructor error %v, want %q", c.name, c.err, c.want)
		}
	}
}

// TestTrunkCapacityIsFinite: NaN passed the bps <= 0 check and +Inf is
// no capacity at all; both are refused like 0.
func TestTrunkCapacityIsFinite(t *testing.T) {
	m := newMesh(t, MeshOptions{Seed: 1})
	for _, bps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := m.SetTrunkCapacity("ny", "NTT", bps); err == nil || !strings.Contains(err.Error(), "positive and finite") {
			t.Errorf("SetTrunkCapacity(%g) = %v, want a refusal", bps, err)
		}
	}
	if err := m.SetTrunkCapacity("ny", "NTT", 1e9); err != nil {
		t.Errorf("SetTrunkCapacity(1e9) = %v", err)
	}
}

// TestMeshDeliveryAtIsReceiverClock: a Delivery is stamped with the
// receiving member's engine clock, the instant of the delivery event. An
// established mesh runs parallel epochs, in which partition 0's clock
// (Mesh.Now) sits elsewhere while another partition's events fire.
func TestMeshDeliveryAtIsReceiverClock(t *testing.T) {
	m := newMesh(t, MeshOptions{Seed: 1})
	const port = 9100
	sites := m.d.Mesh.Sites()
	delivered := 0
	for _, site := range sites {
		members := m.d.Mesh.MembersOf(site)
		eng := members[0].Eng()
		for _, mem := range members {
			if mem.Eng() != eng {
				t.Fatalf("site %s members span partitions", site)
			}
		}
		m.OnReceive(site, port, func(d Delivery) {
			delivered++
			if d.At != eng.Now() {
				t.Fatalf("delivery at %s stamped %v, receiving engine at %v", site, d.At, eng.Now())
			}
		})
	}
	for round := 0; round < 20; round++ {
		for _, src := range sites {
			for _, dst := range sites {
				for _, r := range m.Routes(src, dst) {
					if err := m.Send(r, port, port, []byte("tick")); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m.Run(50 * time.Millisecond)
	}
	if delivered == 0 {
		t.Fatal("no deliveries")
	}
}
