// Command tango-pathdisc narrates the paper's §4.1 iterative path
// discovery algorithm round by round: announce the probe prefix, observe
// the AS path at the other edge, attach one more "do not export to <AS>"
// community, wait for BGP to reconverge, repeat until unreachable.
//
// Usage:
//
//	tango-pathdisc [-seed N] [-direction la-ny|ny-la] [-round-wait 2m]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/topo"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "random seed")
		direction = flag.String("direction", "la-ny", "traffic direction to discover paths for (la-ny or ny-la)")
		roundWait = flag.Duration("round-wait", 2*time.Minute, "virtual-time convergence wait per round")
	)
	flag.Parse()

	s, err := topo.NewVultrScenario(topo.ScenarioConfig{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("establishing BGP sessions and base routes (5 min virtual)...")
	s.Run(5 * time.Minute)

	var announcer, observer *topo.AS
	var probe addr.Prefix
	switch *direction {
	case "la-ny":
		// Paths for LA->NY traffic: the NY edge announces, LA observes.
		announcer, observer = s.EdgeNY, s.EdgeLA
		probe = addr.MustParsePrefix("2001:db8:100::/48")
	case "ny-la":
		announcer, observer = s.EdgeLA, s.EdgeNY
		probe = addr.MustParsePrefix("2001:db8:200::/48")
	default:
		fmt.Fprintf(os.Stderr, "unknown direction %q\n", *direction)
		os.Exit(2)
	}
	fmt.Printf("discovering %s paths: %s announces %v, %s observes\n\n",
		*direction, announcer.Name, probe, observer.Name)

	d := &control.Discoverer{
		Announcer: announcer.Speaker,
		Observer:  observer.Speaker,
		Probe:     probe,
		POPAS:     bgp.ASVultr,
		NameFor:   s.ProviderName,
		RoundWait: *roundWait,
	}
	d.OnRound = func(round int, found *control.DiscoveredPath) {
		if found == nil {
			fmt.Printf("round %d: prefix unreachable — discovery complete\n", round)
			return
		}
		fmt.Printf("round %d: observed AS path [%v] -> delivered by %s\n",
			round, found.Path, found.ProviderName)
		fmt.Printf("         next: attach %v and re-announce\n",
			bgp.NoExportTo(found.ProviderASN))
	}
	var result []control.DiscoveredPath
	d.Run(func(paths []control.DiscoveredPath) { result = paths })
	s.Run(time.Duration(d.MaxRoundsOrDefault()+2) * *roundWait)

	fmt.Printf("\nexposed %d wide-area paths:\n", len(result))
	for i, p := range result {
		pin := control.PinCommunities(result, i)
		fmt.Printf("  path %d via %-7s pin with %v\n", i+1, p.ProviderName, pin)
	}
}
