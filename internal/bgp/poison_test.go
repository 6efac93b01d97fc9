package bgp

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// TestPoisonBlocksVictim: a prefix originated with a poisoned AS path is
// rejected by the victim's loop prevention, everywhere.
func TestPoisonBlocksVictim(t *testing.T) {
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, "edge", 64512, 1)
	vultr := NewSpeaker(eng, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, "ntt", ASNTT, 3)
	telia := NewSpeaker(eng, "telia", ASTelia, 4)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:12::1", "2001:db8:12::2")
	Connect(vultr, telia, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.OriginateWithPath(pfx, Path{ASNTT})
	eng.Run(10 * time.Second)

	if ntt.Best(pfx) != nil {
		t.Fatal("poisoned AS accepted the route")
	}
	best := telia.Best(pfx)
	if best == nil {
		t.Fatal("unpoisoned provider did not learn the route")
	}
	// The poison rides the path: [1299's view: 20473 64512 2914].
	if !best.Path.Contains(ASNTT) {
		t.Fatalf("poison missing from path %v", best.Path)
	}
}

// TestPoisonBlocksTransitPaths: unlike an action community, poisoning an
// AS also kills longer paths that merely transit it.
func TestPoisonBlocksTransitPaths(t *testing.T) {
	// edge -> vultr -> {ntt, cogent}; ntt <-> cogent peer; observer is
	// NTT's customer "obs". Route poisoned with Cogent: obs can still
	// hear via NTT directly, but if we poison NTT, even the
	// Cogent->NTT->obs path dies and obs hears nothing.
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, "edge", 64512, 1)
	vultr := NewSpeaker(eng, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, "ntt", ASNTT, 3)
	cogent := NewSpeaker(eng, "cogent", ASCogent, 4)
	obs := NewSpeaker(eng, "obs", 64513, 5)

	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	// The provider scrubs its action communities on export to the core,
	// as Vultr does; otherwise other ASes would honor 64600:* too.
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	cA.ScrubActionCommunities = true
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:12::1", "2001:db8:12::2")
	cA.ScrubActionCommunities = true
	Connect(vultr, cogent, cA, cB)
	cA, cB = pairCfg(RelPeer, "2001:db8:13::1", "2001:db8:13::2")
	Connect(ntt, cogent, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:14::1", "2001:db8:14::2")
	Connect(ntt, obs, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	advance := func(d time.Duration) { eng.Run(eng.Now() + d) }

	// Community suppression of NTT: obs still hears via Cogent->NTT.
	edge.Originate(pfx, NoExportTo(ASNTT))
	advance(30 * time.Second)
	best := obs.Best(pfx)
	if best == nil {
		t.Fatal("community suppression killed the transit path too")
	}
	if !best.Path.Contains(ASCogent) {
		t.Fatalf("expected the Cogent transit path, got %v", best.Path)
	}

	// Poisoning NTT: everything through NTT dies; obs is single-homed
	// behind NTT, so it loses the prefix entirely.
	edge.OriginateWithPath(pfx, Path{ASNTT})
	advance(3 * time.Minute)
	if obs.Best(pfx) != nil {
		t.Fatalf("poisoning left a path through the victim: %v", obs.Best(pfx).Path)
	}

	// Clearing the poison restores reachability.
	edge.Originate(pfx)
	advance(3 * time.Minute)
	if obs.Best(pfx) == nil {
		t.Fatal("clearing the poison did not restore the route")
	}
}

func TestPoisonedPathOnWire(t *testing.T) {
	// The poisoned ASN must cross a session like any other path element.
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(a, b, cA, cB)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.OriginateWithPath(pfx, Path{300, 400})
	eng.Run(10 * time.Second)
	best := b.Best(pfx)
	if best == nil {
		t.Fatal("no route")
	}
	if !best.Path.Equal(Path{100, 300, 400}) {
		t.Fatalf("path = %v, want [100 300 400]", best.Path)
	}
}
