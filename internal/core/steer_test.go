package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tango/internal/packet"
	"tango/internal/simnet"
	"tango/internal/te"
	"tango/internal/topo"
)

// steerFixture deploys Tango on the tri scenario.
func steerFixture(t *testing.T) *Deployment {
	t.Helper()
	d, err := Deploy(topo.TriConfig(5), MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// directedPairs lists every deployed pair in both directions.
func directedPairs(d *Deployment) [][2]string {
	var out [][2]string
	for _, pk := range d.Scenario.PairKeys {
		out = append(out, pk, [2]string{pk[1], pk[0]})
	}
	return out
}

func TestPathLinesResolveByASN(t *testing.T) {
	d := steerFixture(t)
	s := d.Scenario
	paths := 0
	for _, pk := range directedPairs(d) {
		site, peer := pk[0], pk[1]
		out := d.Mesh.Member(site, peer).OutPaths
		for i, dp := range out {
			prov := ""
			for name, as := range s.Providers {
				if as.ASN == dp.ProviderASN {
					prov = name
				}
			}
			if prov == "" || prov != dp.ProviderName {
				t.Fatalf("%s->%s path %d: label %q, provider %q: discovery must label with the scenario's names",
					site, peer, i+1, dp.ProviderName, prov)
			}
			// Resolution reads the ASN, never the label.
			out[i].ProviderName = "relabelled"
			pl, err := d.PathLines(site, peer, uint8(i+1))
			if err != nil {
				t.Fatalf("%s->%s path %d: %v", site, peer, i+1, err)
			}
			if pl.Provider != prov || pl.Down == nil || pl.Down != s.Trunk[peer][prov] || pl.Up != s.Uplink[site][prov] {
				t.Fatalf("%s->%s path %d via %s resolved to %+v", site, peer, i+1, prov, pl)
			}
			paths++
		}
	}
	if paths == 0 {
		t.Fatal("no discovered paths to resolve")
	}

	for name, tc := range map[string]struct {
		site, peer string
		id         uint8
		want       string
	}{
		"undeployed pair": {"ny", "nowhere", 1, "no deployed pair"},
		"path id 0":       {"ny", "chi", 0, "no path 0"},
		"path id too big": {"ny", "chi", 200, "no path 200"},
	} {
		if _, err := d.PathLines(tc.site, tc.peer, tc.id); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}

	// A tunnel delivered by an AS the scenario does not know is an error
	// for the resolver and for Steer — never a path that loads nothing.
	d.Mesh.Member("ny", "chi").OutPaths[0].ProviderASN = 65000
	if _, err := d.PathLines("ny", "chi", 1); err == nil || !strings.Contains(err.Error(), "not a scenario provider") {
		t.Fatalf("foreign ASN: err = %v", err)
	}
	if _, _, err := d.Steer(1, []SteerDemand{{Src: "ny", Dst: "chi", RateBps: 1e6}}); err == nil {
		t.Fatal("Steer placed a demand over a path it cannot resolve")
	}
	if len(d.steer) != 0 {
		t.Fatal("a refused Steer installed a selector")
	}
}

func TestSteerInstallsSolverCounts(t *testing.T) {
	d := steerFixture(t)
	sender := d.Mesh.Member("ny", "chi")
	if len(sender.OutPaths) != 2 {
		t.Fatalf("ny->chi exposes %d paths, want 2", len(sender.OutPaths))
	}
	var down [2]*simnet.Line
	for i := range down {
		pl, err := d.PathLines("ny", "chi", uint8(i+1))
		if err != nil {
			t.Fatal(err)
		}
		down[i] = pl.Down
	}
	src, _ := sender.HostAddr()
	dst, _ := d.Mesh.Member("chi", "ny").HostAddr()
	const class = 2
	// picks counts, over 256 flows of the class, how many the installed
	// selector sends down each tunnel.
	picks := func() (n [2]int) {
		cs := d.steer[[2]string{"ny", "chi"}]
		for port := 0; port < 256; port++ {
			inner := packet.InnerUDP{Src: src, Dst: dst, SrcPort: uint16(20000 + port), DstPort: 9, TrafficClass: class}.New(nil)
			n[cs.Select(inner).PathID-1]++
		}
		return n
	}
	demands := []SteerDemand{{Src: "ny", Dst: "chi", Class: class, RateBps: 8e6}}

	for _, tc := range []struct {
		name string
		caps [2]float64
		want []float64 // the split the capacities force
	}{
		{"second trunk roomy", [2]float64{1e6, 1e9}, []float64{0, 1}},
		{"first trunk roomy", [2]float64{1e9, 1e6}, []float64{1, 0}},
		{"equal trunks", [2]float64{16e6, 16e6}, []float64{0.5, 0.5}},
	} {
		for i, c := range tc.caps {
			down[i].SetCapacity(c)
		}
		before := d.steer[[2]string{"ny", "chi"}]
		maxUtil, weights, err := d.Steer(3, demands)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if before != nil && d.steer[[2]string{"ny", "chi"}] != before {
			t.Fatalf("%s: Steer replaced the installed selector", tc.name)
		}
		if len(weights) != 1 || fmt.Sprint(weights[0]) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: weights %v, want %v", tc.name, weights, tc.want)
		}
		if maxUtil <= 0 || maxUtil > 0.5 {
			t.Fatalf("%s: predicted max utilization %v", tc.name, maxUtil)
		}
		// What the selector does is what the solver counted: a path with
		// no quanta carries no flow, and a split carries both.
		n := picks()
		for i, w := range tc.want {
			quanta := int(w * te.DefaultQuanta)
			if (quanta == 0) != (n[i] == 0) || n[0]+n[1] != 256 {
				t.Fatalf("%s: %d quanta on path %d but the selector sent it %d of 256 flows", tc.name, quanta, i+1, n[i])
			}
		}
	}
	if len(d.steer) != 1 {
		t.Fatalf("%d selectors installed for one directed pair", len(d.steer))
	}

	if _, _, err := d.Steer(3, []SteerDemand{{Src: "ny", Dst: "chi", Class: SteerClasses, RateBps: 1}}); err == nil {
		t.Fatal("class out of range accepted")
	}
	if _, _, err := d.Steer(3, []SteerDemand{{Src: "ny", Dst: "nowhere", RateBps: 1}}); err == nil {
		t.Fatal("undeployed pair accepted")
	}
}

// TestSteerBetweenParallelRuns: on two workers, Steer between runs after
// parallel epochs have begun installs weights that later traffic follows.
func TestSteerBetweenParallelRuns(t *testing.T) {
	tc := topo.TriConfig(5)
	tc.Shards = 2
	d, err := Deploy(tc, MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord := d.Scenario.B.W.Coord()
	if !coord.Parallel() {
		t.Fatal("an established tri deployment still runs coupled")
	}
	d.Scenario.Run(time.Second)

	sender := d.Mesh.Member("ny", "chi")
	var down [2]*simnet.Line
	for i := range down {
		pl, err := d.PathLines("ny", "chi", uint8(i+1))
		if err != nil {
			t.Fatal(err)
		}
		down[i] = pl.Down
	}
	src, _ := sender.HostAddr()
	dst, _ := d.Mesh.Member("chi", "ny").HostAddr()
	const class, flows = 2, 256
	// carried sends one packet on each of the class's flows and returns
	// how many packets each tunnel's trunk carried in the next second,
	// probes included (both tunnels probe alike).
	carried := func() [2]int64 {
		var before [2]uint64
		for i, l := range down {
			before[i] = l.Stats.Tx
		}
		for port := 0; port < flows; port++ {
			sender.Send(packet.InnerUDP{Src: src, Dst: dst, SrcPort: uint16(20000 + port), DstPort: 9, TrafficClass: class}.New(nil))
		}
		d.Scenario.Run(time.Second)
		var n [2]int64
		for i, l := range down {
			n[i] = int64(l.Stats.Tx - before[i])
		}
		return n
	}
	demands := []SteerDemand{{Src: "ny", Dst: "chi", Class: class, RateBps: 8e6}}
	for _, want := range []int{0, 1, 0} {
		// The roomy trunk is the one the solver must pick.
		down[want].SetCapacity(1e9)
		down[1-want].SetCapacity(1e6)
		if _, _, err := d.Steer(3, demands); err != nil {
			t.Fatal(err)
		}
		epochs := coord.Stats.Epochs
		n := carried()
		if extra := n[want] - n[1-want]; extra < flows-8 || extra > flows+8 {
			t.Fatalf("steered onto path %d, which carried %d packets to the other's %d; want %d±8 more",
				want+1, n[want], n[1-want], flows)
		}
		if coord.Stats.Epochs == epochs || !coord.Parallel() {
			t.Fatal("the run after Steer left parallel epochs")
		}
	}
}
