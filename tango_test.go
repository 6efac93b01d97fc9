package tango

import (
	"math"
	"strings"
	"testing"
	"time"

	"tango/internal/obs"
)

func newEstablishedLab(t *testing.T, opts Options) *Lab {
	t.Helper()
	l := NewLab(opts)
	if err := l.Establish(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLabEstablishAndPaths(t *testing.T) {
	l := newEstablishedLab(t, Options{Seed: 1})
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
	if ny.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLabControllerConverges(t *testing.T) {
	l := newEstablishedLab(t, Options{Seed: 2})
	var moves []string
	l.NY().OnPathSwitch(func(at time.Duration, from, to string) {
		moves = append(moves, from+"->"+to)
	})
	l.Run(3 * time.Minute)
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("NY on %s, want GTT", l.NY().CurrentPath())
	}
	if l.NY().Switches() == 0 || len(moves) == 0 {
		t.Fatal("no switches recorded")
	}
}

func TestLabStaticPolicyStaysOnDefault(t *testing.T) {
	l := newEstablishedLab(t, Options{Seed: 3, PolicyNY: PolicyStaticDefault, PolicyLA: PolicyStaticDefault})
	l.Run(2 * time.Minute)
	if l.NY().CurrentPath() != "NTT" {
		t.Fatalf("static policy moved to %s", l.NY().CurrentPath())
	}
}

func TestLabSendReceive(t *testing.T) {
	l := newEstablishedLab(t, Options{Seed: 4})
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
	st := l.NY().Stats()
	if st.Encapped == 0 || st.ProbesSent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLabInjectRouteShiftMovesTraffic(t *testing.T) {
	l := newEstablishedLab(t, Options{Seed: 5})
	l.Run(2 * time.Minute) // settle on GTT
	if l.NY().CurrentPath() != "GTT" {
		t.Fatalf("pre-event path %s", l.NY().CurrentPath())
	}
	ch, err := l.Chaos()
	if err != nil {
		t.Fatal(err)
	}
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
	l := newEstablishedLab(t, Options{Seed: 6})
	ch, err := l.Chaos()
	if err != nil {
		t.Fatal(err)
	}
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

// TestLabRefused: a lab whose options were refused says why from every
// method with an error result, and Run, Now and the site accessors stay
// safe to call.
func TestLabRefused(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked: %v", r)
		}
	}()
	l := NewLab(Options{ProbeInterval: -1})
	l.Run(time.Second)
	if now := l.Now(); now != 0 {
		t.Errorf("Now after Run(1s) = %v, want 0", now)
	}
	const why = "Options.ProbeInterval"
	if err := l.Establish(); err == nil || !strings.Contains(err.Error(), why) {
		t.Errorf("Establish: %v, want an error naming %s", err, why)
	}
	if err := l.Instrument(obs.NewRegistry(), obs.NewJournal(8)); err == nil {
		t.Error("Instrument accepted a refused lab")
	}
	if _, err := l.Chaos(); err == nil || !strings.Contains(err.Error(), why) {
		t.Errorf("Chaos: %v, want an error naming %s", err, why)
	}
	if l.NY() != nil || l.LA() != nil {
		t.Error("sites of a refused lab are not nil")
	}
}

func TestLabDeterminism(t *testing.T) {
	run := func() (string, float64) {
		l := newEstablishedLab(t, Options{Seed: 77})
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
	l := newEstablishedLab(t, Options{Seed: 8, AuthKey: []byte("pair-shared-key")})
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

// TestEstablishIdempotent: on both deployment shapes a second Establish
// returns nil, advances no virtual time and starts nothing — every path
// keeps sampling at the rate it had before the call.
func TestEstablishIdempotent(t *testing.T) {
	lab := NewLab(Options{Seed: 12})
	mesh := NewMesh(MeshOptions{Seed: 12})
	for _, shape := range []struct {
		name      string
		establish func() error
		now       func() time.Duration
		run       func(time.Duration)
		paths     func() []PathInfo
	}{
		{"lab", lab.Establish, lab.Now, lab.Run, func() []PathInfo {
			return append(lab.NY().Paths(), lab.LA().Paths()...)
		}},
		{"mesh", mesh.Establish, mesh.Now, mesh.Run, func() []PathInfo {
			var all []PathInfo
			for _, pair := range [][2]string{{"ny", "chi"}, {"chi", "ny"}, {"chi", "la"}, {"la", "chi"}, {"ny", "la"}, {"la", "ny"}} {
				ps, err := mesh.Paths(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, ps...)
			}
			return all
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			if err := shape.establish(); err != nil {
				t.Fatal(err)
			}
			shape.run(10 * time.Second)
			start := shape.paths()
			shape.run(10 * time.Second)
			before := shape.paths()

			at := shape.now()
			if err := shape.establish(); err != nil {
				t.Fatalf("second Establish: %v", err)
			}
			if shape.now() != at {
				t.Fatalf("second Establish advanced virtual time %v -> %v", at, shape.now())
			}
			shape.run(10 * time.Second)
			after := shape.paths()

			if len(after) != len(before) || len(before) == 0 {
				t.Fatalf("path count changed: %d -> %d", len(before), len(after))
			}
			for i := range before {
				was := before[i].Samples - start[i].Samples
				is := after[i].Samples - before[i].Samples
				// Jitter moves an arrival or two across a window edge; a
				// second set of probers would double the rate.
				if was == 0 || is+was/10 < was || is > was+was/10 {
					t.Fatalf("path %d (%s): %d samples in the 10 s before the second Establish, %d after",
						before[i].ID, before[i].Provider, was, is)
				}
			}
		})
	}
}

// TestNegativeCadenceIsAnError: a negative probe or decision cadence used
// to switch probing or the controllers off without a word; Establish now
// names the field and the value.
func TestNegativeCadenceIsAnError(t *testing.T) {
	for _, c := range []struct {
		name      string
		establish func() error
		want      string
	}{
		{"lab probe", NewLab(Options{Seed: 1, ProbeInterval: -time.Millisecond}).Establish, "Options.ProbeInterval is -1ms"},
		{"lab decide", NewLab(Options{Seed: 1, DecideEvery: -time.Second}).Establish, "Options.DecideEvery is -1s"},
		{"mesh probe", NewMesh(MeshOptions{Seed: 1, ProbeInterval: -time.Millisecond}).Establish, "MeshOptions.ProbeInterval is -1ms"},
		{"mesh decide", NewMesh(MeshOptions{Seed: 1, DecideEvery: -time.Second}).Establish, "MeshOptions.DecideEvery is -1s"},
	} {
		err := c.establish()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Establish() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestMeshBeforeEstablish: on a mesh whose options were refused and on a
// valid mesh before Establish, the public methods used to die with a nil
// dereference. Those with an error result now name Establish; the rest
// return their empty values.
func TestMeshBeforeEstablish(t *testing.T) {
	for _, m := range []struct {
		name    string
		mesh    *Mesh
		wantNow time.Duration // after Run(time.Second)
	}{
		{"refused", NewMesh(MeshOptions{ProbeInterval: -1}), 0},
		{"unestablished", NewMesh(MeshOptions{Seed: 1}), 5*time.Minute + time.Second},
	} {
		t.Run(m.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			m.mesh.OnReceive("la", 9, func(Delivery) {})
			m.mesh.Run(time.Second)
			if now := m.mesh.Now(); now != m.wantNow {
				t.Errorf("Now after Run(1s) = %v, want %v", now, m.wantNow)
			}
			if _, err := m.mesh.Paths("ny", "chi"); err == nil || !strings.Contains(err.Error(), "Establish") {
				t.Errorf("Paths: error %v, want one naming Establish", err)
			}
			if err := m.mesh.Send(Route{Src: "ny", Dst: "la"}, 9, 9, []byte("x")); err == nil || !strings.Contains(err.Error(), "Establish") {
				t.Errorf("Send: error %v, want one naming Establish", err)
			}
			if s := m.mesh.Sites(); s != nil {
				t.Errorf("Sites = %v, want nil", s)
			}
			if rs := m.mesh.Routes("ny", "la"); rs != nil {
				t.Errorf("Routes = %v, want nil", rs)
			}
			if r, ok := m.mesh.BestRoute("ny", "la"); ok || r.Src != "" {
				t.Errorf("BestRoute = %v, %v, want the zero route", r, ok)
			}
			if f, x := m.mesh.RelayStats("chi"); f != 0 || x != 0 {
				t.Errorf("RelayStats = %d, %d, want 0, 0", f, x)
			}
		})
	}
}

// radialOptions is a valid two-site custom mesh for edit to break.
func radialOptions(edit func(*MeshOptions)) MeshOptions {
	o := MeshOptions{
		Seed: 1,
		Providers: []MeshProvider{
			{Name: "Zayo", ASN: 6461, Scale: 1},
			{Name: "Lumen", ASN: 3356, Scale: 1.2},
		},
		Sites: []MeshSiteSpec{
			{Name: "a", Radius: 5 * time.Millisecond, Providers: []string{"Zayo", "Lumen"}},
			{Name: "b", Radius: 7 * time.Millisecond, Providers: []string{"Zayo", "Lumen"}},
		},
		Pairs: [][2]string{{"a", "b"}},
	}
	edit(&o)
	return o
}

// TestMeshProvidersShareNoASN: two providers with one ASN used to build,
// the discovery labels kept whichever name came last, and BGP loop
// detection dropped every route through either. Establish now names both.
func TestMeshProvidersShareNoASN(t *testing.T) {
	mesh := NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[1].ASN = 6461 }))
	want := "topo: providers Zayo and Lumen share AS6461"
	if err := mesh.Establish(); err == nil || err.Error() != want {
		t.Fatalf("Establish() = %v, want %q", err, want)
	}
}

// TestMeshProviderASNFitsSixteenBits: BGP here speaks 16-bit ASNs, and
// NewMesh used to truncate a provider's: ASN 70000 became AS4464 and the
// mesh established. Establish now names the provider, for 0 too.
func TestMeshProviderASNFitsSixteenBits(t *testing.T) {
	for _, c := range []struct {
		asn  uint32
		want string
	}{
		{70000, "tango: MeshOptions provider Zayo has ASN 70000; want 1-65535"},
		{0, "tango: MeshOptions provider Zayo has ASN 0; want 1-65535"},
	} {
		mesh := NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[0].ASN = c.asn }))
		if err := mesh.Establish(); err == nil || err.Error() != c.want {
			t.Errorf("ASN %d: Establish() = %v, want %q", c.asn, err, c.want)
		}
	}
}

// TestBadOptionsNameTheField: a negative Radius or Scale used to
// establish and then panic in the scheduler on the first Run, a NaN
// Scale left every route invalid, a negative JitterStd was accepted, and
// a Policy out of range ran MinOWD. Establish now names the field and
// the value.
func TestBadOptionsNameTheField(t *testing.T) {
	for _, c := range []struct {
		name      string
		establish func() error
		want      string
	}{
		{"negative radius", NewMesh(radialOptions(func(o *MeshOptions) { o.Sites[0].Radius = -time.Millisecond })).Establish,
			"tango: MeshOptions site a has Radius -1ms; want 0 or more"},
		{"negative scale", NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[1].Scale = -1 })).Establish,
			"tango: MeshOptions provider Lumen has Scale -1; want a finite value, 0 or more"},
		{"NaN scale", NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[0].Scale = math.NaN() })).Establish,
			"tango: MeshOptions provider Zayo has Scale NaN; want a finite value, 0 or more"},
		{"infinite scale", NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[0].Scale = math.Inf(1) })).Establish,
			"tango: MeshOptions provider Zayo has Scale +Inf; want a finite value, 0 or more"},
		{"negative jitter", NewMesh(radialOptions(func(o *MeshOptions) { o.Providers[0].JitterStd = -time.Microsecond })).Establish,
			"tango: MeshOptions provider Zayo has JitterStd -1µs; want 0 or more"},
		{"mesh policy", NewMesh(MeshOptions{Seed: 1, SitePolicy: Policy(99)}).Establish,
			"tango: MeshOptions.SitePolicy is Policy(99); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault"},
		{"lab policy NY", NewLab(Options{Seed: 1, PolicyNY: Policy(99)}).Establish,
			"tango: Options.PolicyNY is Policy(99); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault"},
		{"lab policy LA", NewLab(Options{Seed: 1, PolicyLA: -1}).Establish,
			"tango: Options.PolicyLA is Policy(-1); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault"},
	} {
		if err := c.establish(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Establish() = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestTrunkCapacityIsFinite: NaN passed the bps <= 0 check and +Inf is
// no capacity at all; both are refused like 0.
func TestTrunkCapacityIsFinite(t *testing.T) {
	m := NewMesh(MeshOptions{Seed: 1})
	for _, bps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := m.SetTrunkCapacity("ny", "NTT", bps); err == nil || !strings.Contains(err.Error(), "positive and finite") {
			t.Errorf("SetTrunkCapacity(%g) = %v, want a refusal", bps, err)
		}
	}
	if err := m.SetTrunkCapacity("ny", "NTT", 1e9); err != nil {
		t.Errorf("SetTrunkCapacity(1e9) = %v", err)
	}
}

// TestPairWithNoPathIsAnError: a Mesh whose deployed pair BGP exposed no
// path to used to establish, and Send then failed on undeployed links.
// Every deployment now refuses it in Establish and names the pair.
func TestPairWithNoPathIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*MeshOptions)
		want string
	}{
		{"no shared provider", func(o *MeshOptions) {
			o.Sites[0].Providers = []string{"Zayo"}
			o.Sites[1].Providers = []string{"Lumen"}
		}, "core: BGP exposed no path from a to b"},
		{"site with no provider", func(o *MeshOptions) { o.Sites[1].Providers = nil },
			"core: BGP exposed no path from a to b"},
	} {
		m := NewMesh(radialOptions(c.edit))
		for i := 0; i < 2; i++ { // a second call reports the same outcome
			if err := m.Establish(); err == nil || err.Error() != c.want {
				t.Errorf("%s: Establish() #%d = %v, want %q", c.name, i+1, err, c.want)
			}
		}
	}
}

// TestMeshDeliveryAtIsReceiverClock: a Delivery is stamped with the
// receiving member's engine clock, the instant of the delivery event. An
// established mesh runs parallel epochs, in which partition 0's clock
// (Mesh.Now) sits elsewhere while another partition's events fire.
func TestMeshDeliveryAtIsReceiverClock(t *testing.T) {
	m := NewMesh(MeshOptions{Seed: 1})
	if err := m.Establish(); err != nil {
		t.Fatal(err)
	}
	const port = 9100
	sites := m.Sites()
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
