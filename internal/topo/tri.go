package topo

import (
	"fmt"
	"time"

	"tango/internal/bgp"
)

// TriConfig returns the MeshConfig of the three-site deployment (the
// paper's §6 "From Tango of 2 to Tango of N"): NY, CHI, LA, whose POPs
// attach to *different* subsets of three transit providers:
//
//	ny:  NTT, Telia
//	chi: NTT, Telia, GTT
//	la:  NTT, GTT
//
// NY and LA share only NTT, so the direct NY<->LA pair exposes exactly
// one wide-area path — the situation §2 motivates, where a pair alone has
// nothing to optimize over. CHI shares a fast provider with each: a
// RON-like overlay composed of pairwise Tango instances (NY<->CHI,
// CHI<->LA) gains path diversity no single pair has, and routes around
// NTT incidents that the direct pair must simply suffer.
//
// Provider delays use the radial model (see RadialMeshConfig): NTT is the
// slowest backbone, GTT the fastest. All three pairs are deployed.
func TriConfig(seed int64) MeshConfig {
	provs := []RadialProvider{
		{"NTT", bgp.ASNTT, 1.30, 100 * time.Microsecond},
		{"Telia", bgp.ASTelia, 1.11, 330 * time.Microsecond},
		{"GTT", bgp.ASGTT, 1.0, 10 * time.Microsecond},
	}
	sites := []RadialSite{
		{"ny", 14 * time.Millisecond, 1700 * time.Millisecond, []string{"NTT", "Telia"}},
		{"chi", 6 * time.Millisecond, -400 * time.Millisecond, []string{"NTT", "Telia", "GTT"}},
		{"la", 14100 * time.Microsecond, -900 * time.Millisecond, []string{"NTT", "GTT"}},
	}
	pairs := [][2]string{{"ny", "la"}, {"ny", "chi"}, {"chi", "la"}}
	return RadialMeshConfig(seed, provs, sites, pairs)
}

// TriProviderName labels providers for the tri scenario's POP ASNs.
func TriProviderName(asn bgp.ASN) string {
	switch asn {
	case bgp.ASNTT:
		return "NTT"
	case bgp.ASTelia:
		return "Telia"
	case bgp.ASGTT:
		return "GTT"
	}
	return fmt.Sprintf("AS%d", asn)
}
