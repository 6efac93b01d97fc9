package control

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
)

// TestDiscoveryPoisoningFindsFewerPaths contrasts the two suppression
// knobs on the Vultr scenario. Community-based suppression only stops the
// POP's direct export to one provider, so the NTT+Cogent path survives
// round 4 — the paper's result. AS-path poisoning makes the victim reject
// the route *everywhere*, so once NTT is poisoned the Cogent path (which
// transits NTT) can never appear: only 3 paths are exposed. Communities
// are the sharper knob; poisoning needs no provider support.
func TestDiscoveryPoisoningFindsFewerPaths(t *testing.T) {
	s := mustVultr(t, 15)
	s.Run(5 * time.Minute)

	d := &Discoverer{
		Announcer:    s.Edges["ny:la"].Speaker,
		Observer:     s.Edges["la:ny"].Speaker,
		Probe:        addr.MustParsePrefix("2001:db8:100::/48"),
		POPAS:        bgp.ASVultr,
		NameFor:      s.ProviderName,
		RoundWait:    2 * time.Minute,
		UsePoisoning: true,
	}
	var got []DiscoveredPath
	d.Run(func(paths []DiscoveredPath) { got = paths })
	s.Run(30 * time.Minute)

	want := []string{"NTT", "Telia", "GTT"}
	if len(got) != len(want) {
		t.Fatalf("poison discovery found %d paths (%v), want %d — the NTT-transiting Cogent path must vanish",
			len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].ProviderName != w {
			t.Fatalf("poison discovery path %d via %s, want %s", i, got[i].ProviderName, w)
		}
	}
}
