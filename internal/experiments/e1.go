package experiments

import (
	"fmt"

	"tango/internal/bgp"
	"tango/internal/control"
)

// E1PathDiscovery reproduces §4.1 / Figure 3: the iterative community-
// suppression algorithm run in both directions between the Vultr NY and
// LA datacenters. It reads the discovery the lab's establishment ran and
// the prefixes it pinned, so E1 reports what every other experiment on
// the lab deploys over. The paper finds (in the destination POP's
// preference order) LA->NY: NTT, Telia, GTT, NTT+Cogent; NY->LA: NTT,
// Telia, GTT, Level3.
func E1PathDiscovery(cfg Config) *Result {
	r := newResult("E1", "Path diversity through cooperative discovery (Fig. 3, §4.1)")
	l := newLab(labOpts{seed: cfg.Seed})
	// Paths for LA->NY traffic leave LA; paths for NY->LA leave NY.
	laToNY, nyToLA := l.Pair.B.OutPaths, l.Pair.A.OutPaths

	r.Rows = append(r.Rows, []string{"direction", "round", "provider", "AS path", "communities attached"})
	add := func(dir string, paths []control.DiscoveredPath) {
		for _, p := range paths {
			comms := "(none)"
			if len(p.SuppressedWhenSeen) > 0 {
				comms = ""
				for i, c := range p.SuppressedWhenSeen {
					if i > 0 {
						comms += " "
					}
					comms += c.String()
				}
			}
			r.Rows = append(r.Rows, []string{
				dir, fmt.Sprintf("%d", p.Index), p.ProviderName,
				p.Path.String(), comms,
			})
		}
	}
	add("LA->NY", laToNY)
	add("NY->LA", nyToLA)

	names := func(paths []control.DiscoveredPath) []string {
		out := make([]string, len(paths))
		for i, p := range paths {
			out[i] = p.ProviderName
		}
		return out
	}
	gotLA, gotNY := names(laToNY), names(nyToLA)
	wantLA := []string{"NTT", "Telia", "GTT", "Cogent"}
	wantNY := []string{"NTT", "Telia", "GTT", "Level3"}
	eq := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	r.check("LA->NY path count", ">= 4 paths", len(gotLA) >= 4, "%d paths", len(gotLA))
	r.check("NY->LA path count", ">= 4 paths", len(gotNY) >= 4, "%d paths", len(gotNY))
	r.check("LA->NY providers in preference order", "NTT, Telia, GTT, NTT+Cogent", eq(gotLA, wantLA), "%v", gotLA)
	r.check("NY->LA providers in preference order", "NTT, Telia, GTT, Level3", eq(gotNY, wantNY), "%v", gotNY)

	// Verify pinning: NY originated one /48 per LA->NY path, and LA's
	// edge routes each via exactly its provider.
	pinOK := true
	for i, want := range gotLA {
		pfx, err := l.Pair.A.PinnedPrefix(uint8(i + 1))
		best, ok := l.Pair.B.Spec.Edge.Speaker.Best(pfx)
		if err != nil || !ok {
			pinOK = false
		} else if via, _ := control.AdjacentProvider(best.Path, bgp.ASVultr); l.S.ProviderName(via) != want {
			pinOK = false
		}
	}
	r.check("pinned prefixes route via distinct providers", "one prefix per route (§3)", pinOK, "%v", pinOK)

	r.VirtualTime = l.S.B.W.Now()
	return r
}
