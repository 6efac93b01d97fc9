package experiments

import (
	"fmt"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/topo"
)

// E1PathDiscovery reproduces §4.1 / Figure 3: the iterative community-
// suppression algorithm run in both directions between the Vultr NY and
// LA datacenters. The paper finds (in the destination POP's preference
// order) LA->NY: NTT, Telia, GTT, NTT+Cogent; NY->LA: NTT, Telia, GTT,
// Level3.
func E1PathDiscovery(cfg Config) *Result {
	r := newResult("E1", "Path diversity through cooperative discovery (Fig. 3, §4.1)")
	s, err := topo.NewVultrScenario(topo.ScenarioConfig{Seed: cfg.Seed})
	if err != nil {
		panic(err) // fixed config; cannot fail
	}
	s.Run(5 * time.Minute)

	runDir := func(label string, ann, obs *topo.AS, probe string) []control.DiscoveredPath {
		d := &control.Discoverer{
			Announcer: ann.Speaker,
			Observer:  obs.Speaker,
			Probe:     addr.MustParsePrefix(probe),
			POPAS:     bgp.ASVultr,
			NameFor:   s.ProviderName,
			RoundWait: 2 * time.Minute,
		}
		var got []control.DiscoveredPath
		d.Run(func(paths []control.DiscoveredPath) { got = paths })
		s.Run(20 * time.Minute)
		return got
	}

	// Paths for LA->NY traffic: NY announces, LA observes.
	laToNY := runDir("LA->NY", s.EdgeNY, s.EdgeLA, "2001:db8:100::/48")
	// Paths for NY->LA traffic: LA announces, NY observes.
	nyToLA := runDir("NY->LA", s.EdgeLA, s.EdgeNY, "2001:db8:200::/48")

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

	// Verify pinning: one prefix per path, each routed via exactly its
	// provider.
	pinOK := true
	for i := range laToNY {
		pfx, err := s.Block["ny:la"].Subnet(48, i)
		if err != nil {
			pinOK = false
			break
		}
		s.EdgeNY.Speaker.Originate(pfx, control.PinCommunities(laToNY, i)...)
	}
	s.Run(5 * time.Minute)
	for i, want := range gotLA {
		pfx, _ := s.Block["ny:la"].Subnet(48, i)
		best := s.EdgeLA.Speaker.Best(pfx)
		if best == nil {
			pinOK = false
		} else if via, _ := control.AdjacentProvider(best.Path, bgp.ASVultr); s.ProviderName(via) != want {
			pinOK = false
		}
	}
	r.check("pinned prefixes route via distinct providers", "one prefix per route (§3)", pinOK, "%v", pinOK)

	r.VirtualTime = s.B.W.Now()
	return r
}
