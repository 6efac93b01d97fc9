package control

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/topo"
)

func mustVultr(t *testing.T, seed int64) *topo.Scenario {
	t.Helper()
	s, err := topo.NewVultrScenario(topo.ScenarioConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdjacentProvider(t *testing.T) {
	pop := bgp.ASVultr
	cases := []struct {
		path bgp.Path
		want bgp.ASN
		ok   bool
	}{
		{bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr}, bgp.ASNTT, true},
		{bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASCogent, bgp.ASVultr}, bgp.ASCogent, true},
		{bgp.Path{bgp.ASNTT, bgp.ASVultr}, bgp.ASNTT, true},
		// Prepending at the POP.
		{bgp.Path{bgp.ASGTT, bgp.ASVultr, bgp.ASVultr, bgp.ASVultr}, bgp.ASGTT, true},
		// Observer directly attached to the provider chain, POP absent.
		{bgp.Path{bgp.ASNTT, bgp.ASTelia}, bgp.ASTelia, true},
		{bgp.Path{bgp.ASVultr}, 0, false},
		{bgp.Path{}, 0, false},
	}
	for _, c := range cases {
		got, ok := AdjacentProvider(c.path, pop)
		if got != c.want || ok != c.ok {
			t.Fatalf("AdjacentProvider(%v) = %d,%v want %d,%v", c.path, got, ok, c.want, c.ok)
		}
	}
}

// TestDiscoveryJournalsNoProviderExit: when the observed path has no
// provider hop into the POP (here the observer hears the probe straight
// from the POP), the loop ends like any other ending: one OnRound(n, nil)
// and then done, with nothing found.
func TestDiscoveryJournalsNoProviderExit(t *testing.T) {
	probe := addr.MustParsePrefix("2001:db8:100::/48")
	b := topo.NewBuilder(1, topo.Partition{}, []addr.Prefix{probe})
	pop := b.AddAS("pop", 64500, 1, 0)
	obs := b.AddAS("obs", 64501, 2, 0)
	b.Wire(obs, pop, topo.WireOpts{RelAB: bgp.RelPeer})
	b.Eng().Run(time.Minute)

	var rounds []string
	d := &Discoverer{
		Announcer: pop.Speaker,
		Observer:  obs.Speaker,
		Probe:     probe,
		POPAS:     pop.ASN,
		RoundWait: time.Minute,
		OnRound: func(n int, f *DiscoveredPath) {
			rounds = append(rounds, fmt.Sprintf("%d %v", n, f))
		},
	}
	var found []DiscoveredPath
	done := false
	d.Run(func(paths []DiscoveredPath) {
		found, done = paths, true
		rounds = append(rounds, "done")
	})
	b.Eng().Run(b.Eng().Now() + 10*time.Minute)
	if !done || len(found) != 0 {
		t.Fatalf("done = %v, found %v; want done with nothing found", done, found)
	}
	if want := []string{"0 <nil>", "done"}; !slices.Equal(rounds, want) {
		t.Fatalf("rounds %q, want %q", rounds, want)
	}
}

// TestDiscoveryVultrLAtoNY runs the paper's algorithm end-to-end on the
// simulated deployment: traffic LA->NY must expose NTT, Telia, GTT, then
// the NTT+Cogent path, in that order (§4.1, Figure 3).
func TestDiscoveryVultrLAtoNY(t *testing.T) {
	s := mustVultr(t, 10)
	s.Run(5 * time.Minute) // establish + host prefixes

	d := &Discoverer{
		Announcer: s.Edges["ny:la"].Speaker, // destination announces
		Observer:  s.Edges["la:ny"].Speaker, // source observes
		Probe:     addr.MustParsePrefix("2001:db8:100::/48"),
		POPAS:     bgp.ASVultr,
		NameFor:   s.ProviderName,
		RoundWait: 2 * time.Minute,
	}
	var got []DiscoveredPath
	done := false
	d.Run(func(paths []DiscoveredPath) { got = paths; done = true })
	s.Run(30 * time.Minute)

	if !done {
		t.Fatal("discovery did not terminate")
	}
	want := []string{"NTT", "Telia", "GTT", "Cogent"}
	if len(got) != len(want) {
		t.Fatalf("discovered %d paths (%v), want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].ProviderName != w {
			t.Fatalf("path %d via %s, want %s (all: %v)", i, got[i].ProviderName, w, got)
		}
		if got[i].Index != i {
			t.Fatalf("path %d has index %d", i, got[i].Index)
		}
		if len(got[i].SuppressedWhenSeen) != i {
			t.Fatalf("path %d seen with %d suppressions, want %d", i, len(got[i].SuppressedWhenSeen), i)
		}
	}
	// Probe prefix cleaned up after discovery.
	if _, ok := s.Edges["la:ny"].Speaker.Best(d.Probe); ok {
		s.Run(5 * time.Minute)
		if _, ok := s.Edges["la:ny"].Speaker.Best(d.Probe); ok {
			t.Fatal("probe prefix still announced after discovery")
		}
	}
}

// TestDiscoveryVultrNYtoLA checks the reverse direction: NTT, Telia, GTT,
// Level3.
func TestDiscoveryVultrNYtoLA(t *testing.T) {
	s := mustVultr(t, 11)
	s.Run(5 * time.Minute)

	d := &Discoverer{
		Announcer: s.Edges["la:ny"].Speaker,
		Observer:  s.Edges["ny:la"].Speaker,
		Probe:     addr.MustParsePrefix("2001:db8:200::/48"),
		POPAS:     bgp.ASVultr,
		NameFor:   s.ProviderName,
		RoundWait: 2 * time.Minute,
	}
	var got []DiscoveredPath
	rounds := 0
	d.OnRound = func(round int, found *DiscoveredPath) { rounds++ }
	d.Run(func(paths []DiscoveredPath) { got = paths })
	s.Run(30 * time.Minute)

	want := []string{"NTT", "Telia", "GTT", "Level3"}
	if len(got) != len(want) {
		t.Fatalf("discovered %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].ProviderName != w {
			t.Fatalf("path %d via %s, want %s", i, got[i].ProviderName, w)
		}
	}
	if rounds != 5 { // 4 found + 1 terminating round
		t.Fatalf("rounds = %d", rounds)
	}
	for _, dp := range got {
		if dp.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestPinCommunities(t *testing.T) {
	paths := []DiscoveredPath{
		{Index: 0, ProviderASN: bgp.ASNTT},
		{Index: 1, ProviderASN: bgp.ASTelia},
		{Index: 2, ProviderASN: bgp.ASGTT},
		{Index: 3, ProviderASN: bgp.ASCogent},
	}
	pin := PinCommunities(paths, 1) // pin Telia
	if len(pin) != 3 {
		t.Fatalf("pin set = %v", pin)
	}
	for _, c := range pin {
		if c == bgp.NoExportTo(bgp.ASTelia) {
			t.Fatal("pinned provider suppressed")
		}
	}
	want := map[bgp.Community]bool{
		bgp.NoExportTo(bgp.ASNTT): true, bgp.NoExportTo(bgp.ASGTT): true, bgp.NoExportTo(bgp.ASCogent): true,
	}
	for _, c := range pin {
		if !want[c] {
			t.Fatalf("unexpected pin community %v", c)
		}
	}
}

// TestPinnedPrefixesRouteViaDistinctProviders is the payoff of E1: after
// discovery, four pinned prefixes each propagate over exactly their
// provider.
func TestPinnedPrefixesRouteViaDistinctProviders(t *testing.T) {
	s := mustVultr(t, 12)
	s.Run(5 * time.Minute)

	paths := []DiscoveredPath{
		{Index: 0, ProviderASN: bgp.ASNTT, ProviderName: "NTT"},
		{Index: 1, ProviderASN: bgp.ASTelia, ProviderName: "Telia"},
		{Index: 2, ProviderASN: bgp.ASGTT, ProviderName: "GTT"},
		{Index: 3, ProviderASN: bgp.ASCogent, ProviderName: "Cogent"},
	}
	base := addr.MustParsePrefix("2001:db8:100::/44")
	for i := range paths {
		pfx, err := base.Subnet(48, i)
		if err != nil {
			t.Fatal(err)
		}
		s.Edges["ny:la"].Speaker.Originate(pfx, PinCommunities(paths, i)...)
	}
	s.Run(5 * time.Minute)

	for i, want := range []string{"NTT", "Telia", "GTT", "Cogent"} {
		pfx, _ := base.Subnet(48, i)
		best, ok := s.Edges["la:ny"].Speaker.Best(pfx)
		if !ok {
			t.Fatalf("pinned prefix %d unreachable", i)
		}
		via, _ := AdjacentProvider(best.Path, bgp.ASVultr)
		if got := s.ProviderName(via); got != want {
			t.Fatalf("pinned prefix %d routes via %s (%v), want %s", i, got, best.Path, want)
		}
	}
}
