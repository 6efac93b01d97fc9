// Package control implements Tango's control logic: the iterative
// BGP-community path-discovery algorithm of §4.1, the per-path
// measurement monitor, and the performance-driven path-selection
// controller with pluggable policies.
package control

import (
	"fmt"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
)

// DiscoveredPath is one wide-area path exposed by the discovery loop.
type DiscoveredPath struct {
	// Index is the discovery round (0 = the BGP default path).
	Index int
	// Path is the AS path observed at the source edge.
	Path bgp.Path
	// ProviderASN is the transit AS that delivers traffic into the
	// destination POP — the AS the next round suppresses.
	ProviderASN bgp.ASN
	// ProviderName is a human label for the provider.
	ProviderName string
	// SuppressedWhenSeen are the action communities that were attached
	// to the announcement when this path was observed.
	SuppressedWhenSeen []bgp.Community
}

func (d DiscoveredPath) String() string {
	return fmt.Sprintf("#%d via %s: [%v] (suppressing %v)", d.Index, d.ProviderName, d.Path, d.SuppressedWhenSeen)
}

// Discoverer runs the paper's three-step iterative algorithm for one
// traffic direction src->dst: the destination edge announces a probe
// prefix, the source edge observes the AS path it hears, the destination
// attaches one more "do not export to <that provider>" community, and the
// loop repeats until the prefix becomes unreachable at the source.
type Discoverer struct {
	// Announcer is the destination edge's speaker (it originates the
	// probe prefix — paths are discovered for traffic flowing TOWARD
	// the announcer).
	Announcer *bgp.Speaker
	// Observer is the source edge's speaker.
	Observer *bgp.Speaker
	// Probe is the prefix used for discovery.
	Probe addr.Prefix
	// POPAS identifies the destination's provider-facing AS (the Vultr
	// POP): the provider to suppress next is the AS adjacent to the
	// last occurrence of POPAS on the observed path.
	POPAS bgp.ASN
	// NameFor labels a provider ASN (optional; defaults to "AS<n>").
	NameFor func(bgp.ASN) string
	// RoundWait is the per-round convergence wait (the paper "waited
	// for BGP to propagate"); default 120 s of virtual time.
	RoundWait time.Duration
	// MaxRounds bounds the loop against runaway topologies; default 8.
	MaxRounds int
	// UsePoisoning suppresses observed providers by AS-path poisoning
	// instead of action communities (§3/§6's "more knobs"). Poisoning
	// needs no provider support, but it is a blunter instrument: a
	// poisoned AS rejects the route everywhere, so multi-provider paths
	// that merely *transit* a previously observed AS disappear too —
	// typically exposing fewer paths than the community-based loop.
	UsePoisoning bool

	// OnRound, when set, fires after each observation round; the round
	// that ends the loop, whatever ended it, passes nil, once, before
	// done runs.
	OnRound func(round int, found *DiscoveredPath)
}

// AdjacentProvider returns the ASN that hands traffic into the POP: the
// element immediately before the last occurrence of popAS in path (or the
// last element if popAS never appears — the observer is directly attached
// to the provider).
func AdjacentProvider(path bgp.Path, popAS bgp.ASN) (bgp.ASN, bool) {
	last := -1
	for i, a := range path {
		if a == popAS {
			last = i
		}
	}
	switch {
	case last > 0:
		// Skip consecutive POP ASNs (prepending).
		for i := last - 1; i >= 0; i-- {
			if path[i] != popAS {
				return path[i], true
			}
		}
		return 0, false
	case last == 0:
		return 0, false // the POP originates directly; no provider hop
	default:
		if len(path) == 0 {
			return 0, false
		}
		return path[len(path)-1], true
	}
}

// maxRounds returns the configured round bound (default 8).
func (d *Discoverer) maxRounds() int {
	if d.MaxRounds == 0 {
		return 8
	}
	return d.MaxRounds
}

// Run executes the discovery loop on the announcer's engine and invokes
// done with every exposed path once the loop terminates. Run returns
// immediately; the caller drives the engine.
func (d *Discoverer) Run(done func([]DiscoveredPath)) {
	eng := d.Announcer.Engine()
	wait := d.RoundWait
	if wait == 0 {
		wait = 120 * time.Second
	}
	maxRounds := d.maxRounds()
	nameFor := d.NameFor
	if nameFor == nil {
		nameFor = func(a bgp.ASN) string { return fmt.Sprintf("AS%d", a) }
	}

	var found []DiscoveredPath
	var suppressed []bgp.Community
	var poison bgp.Path
	var round func()
	announce := func() { d.Announcer.OriginateWithPath(d.Probe, poison, suppressed...) }
	round = func() {
		n := len(found)
		best := d.Observer.Best(d.Probe)
		var prov bgp.ASN
		ok := best != nil && n < maxRounds
		if ok {
			prov, ok = AdjacentProvider(best.Path, d.POPAS)
		}
		if !ok { // unreachable, out of rounds, or no provider hop into the POP
			if d.OnRound != nil {
				d.OnRound(n, nil)
			}
			d.Announcer.Withdraw(d.Probe)
			done(found)
			return
		}
		dp := DiscoveredPath{
			Index:              n,
			Path:               best.Path.Clone(),
			ProviderASN:        prov,
			ProviderName:       nameFor(prov),
			SuppressedWhenSeen: append([]bgp.Community(nil), suppressed...),
		}
		found = append(found, dp)
		if d.OnRound != nil {
			d.OnRound(n, &dp)
		}
		if d.UsePoisoning {
			poison = append(poison, prov)
		} else {
			suppressed = append(suppressed, bgp.NoExportTo(prov))
		}
		announce()
		eng.Schedule(wait, round)
	}
	announce()
	eng.Schedule(wait, round)
}

// PinCommunities returns the community set that pins a tunnel prefix to
// paths[idx]: every *other* discovered provider is suppressed, so the
// prefix propagates only over the chosen provider.
func PinCommunities(paths []DiscoveredPath, idx int) []bgp.Community {
	var out []bgp.Community
	for i, p := range paths {
		if i == idx {
			continue
		}
		c := bgp.NoExportTo(p.ProviderASN)
		dup := false
		for _, x := range out {
			if x == c {
				dup = true
				break
			}
		}
		if !dup && p.ProviderASN != paths[idx].ProviderASN {
			out = append(out, c)
		}
	}
	return out
}
