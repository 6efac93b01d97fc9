package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tango/internal/control"
	"tango/internal/topo"
)

// TestLabIsTheOneLinkMesh is the differential that lets the benchmark's
// pair_stream (built on VultrPair) speak for tango.Lab (built on Deploy):
// equal seeds through both give the same discovered paths in both
// directions, the same number of engine events at ready and after a
// minute of probing, and the same per-path sample counts. It runs every
// seed twice: with core's nil-policy default, which pair_stream uses,
// and with the policy tango.Lab and tango.Mesh give every controller
// (tango.mkPolicy's default, which adds StaleAfter), on both sides.
func TestLabIsTheOneLinkMesh(t *testing.T) {
	shipped := func() control.Policy {
		return &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second, StaleAfter: 10 * time.Second}
	}
	for _, pol := range []struct {
		name string
		mk   func() control.Policy // nil: core's default
	}{{"core default", nil}, {"shipped", shipped}} {
		for _, seed := range []int64{1, 21, 77} {
			t.Run(fmt.Sprintf("%s/seed%d", pol.name, seed), func(t *testing.T) {
				labMatchesMesh(t, seed, pol.mk)
			})
		}
	}
}

// labMatchesMesh runs one seed of TestLabIsTheOneLinkMesh with policies from mk
// on both sides (nil: core's default).
func labMatchesMesh(t *testing.T, seed int64, mk func() control.Policy) {
	cfg := PairConfig{ProbeInterval: 10 * time.Millisecond, DecideEvery: time.Second}
	mcfg := MeshConfig{ProbeInterval: cfg.ProbeInterval, DecideEvery: cfg.DecideEvery}
	if mk != nil {
		cfg.PolicyA, cfg.PolicyB = mk(), mk()
		mcfg.NewPolicy = func(string, string) control.Policy { return mk() }
	}
	s, p := establish(t, seed, cfg)
	d, err := Deploy(topo.VultrConfig(topo.ScenarioConfig{Seed: seed}), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ny, la := d.Mesh.Member("ny", "la"), d.Mesh.Member("la", "ny")
	if !reflect.DeepEqual(p.A.OutPaths, ny.OutPaths) || !reflect.DeepEqual(p.B.OutPaths, la.OutPaths) {
		t.Fatalf("discovered paths differ:\npair %v / %v\nmesh %v / %v",
			p.A.OutPaths, p.B.OutPaths, ny.OutPaths, la.OutPaths)
	}
	fired := func() (pair, mesh uint64) {
		return s.B.Eng().Stats.Fired, d.Scenario.B.Eng().Stats.Fired
	}
	if pf, mf := fired(); pf != mf {
		t.Fatalf("at ready the pair fired %d events, the mesh %d", pf, mf)
	}
	s.Run(time.Minute)
	d.Scenario.Run(time.Minute)
	if pf, mf := fired(); pf != mf {
		t.Fatalf("after 60 s the pair fired %d events, the mesh %d", pf, mf)
	}
	for _, sides := range [][2]*Site{{p.A, ny}, {p.B, la}} {
		pair, mesh := sides[0].Monitor.Paths(), sides[1].Monitor.Paths()
		if len(pair) != len(mesh) || len(pair) == 0 {
			t.Fatalf("monitored paths %d vs %d", len(pair), len(mesh))
		}
		for i := range pair {
			if pair[i].Name != mesh[i].Name || pair[i].OWD.N() != mesh[i].OWD.N() || pair[i].OWD.N() == 0 {
				t.Fatalf("path %s has %d samples on the pair, %s %d on the mesh",
					pair[i].Name, pair[i].OWD.N(), mesh[i].Name, mesh[i].OWD.N())
			}
		}
	}
}

// TestPairWithNoPathIsAnError: a mesh whose deployed pair BGP exposed no
// path to used to establish, and Send then failed on undeployed links.
// Deploy now refuses it and names the pair.
func TestPairWithNoPathIsAnError(t *testing.T) {
	provs := []topo.RadialProvider{
		{Name: "Zayo", ASN: 6461, Scale: 1},
		{Name: "Lumen", ASN: 3356, Scale: 1.2},
	}
	for _, c := range []struct {
		name   string
		aProvs []string
		bProvs []string
	}{
		{"no shared provider", []string{"Zayo"}, []string{"Lumen"}},
		{"site with no provider", []string{"Zayo", "Lumen"}, nil},
	} {
		sites := []topo.RadialSite{
			{Name: "a", Radius: 5 * time.Millisecond, Providers: c.aProvs},
			{Name: "b", Radius: 7 * time.Millisecond, Providers: c.bProvs},
		}
		cfg := topo.RadialMeshConfig(1, provs, sites, [][2]string{{"a", "b"}})
		want := "core: BGP exposed no path from a to b"
		d, err := Deploy(cfg, MeshConfig{ProbeInterval: 10 * time.Millisecond, DecideEvery: time.Second})
		if err == nil || err.Error() != want || d != nil {
			t.Errorf("%s: Deploy: %v, want %q", c.name, err, want)
		}
	}
}
