package topo

import (
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/simnet"
)

// ProviderProfile calibrates one transit provider's trunk behaviour. The
// numbers are fit to what the paper reports for the NY/LA pair (§5 and
// Figure 4): GTT has a 28 ms floor with almost no jitter, the NTT default
// runs ~30% above GTT's mean, Telia sits in between with 0.33 ms rolling
// jitter, and the fourth path in each direction is a little slower still.
type ProviderProfile struct {
	Name  string
	ASN   bgp.ASN
	Floor time.Duration
	Mean  time.Duration
	Std   time.Duration
}

// Trunk returns the provider's one-way trunk delay model.
func (p ProviderProfile) Trunk() simnet.DelayModel {
	return simnet.GaussianDelay{Floor: p.Floor, Mean: p.Mean, Std: p.Std}
}

// Default provider calibration (see DESIGN.md, experiments E2/E3).
var (
	ProfileNTT    = ProviderProfile{Name: "NTT", ASN: bgp.ASNTT, Floor: 36200 * time.Microsecond, Mean: 36600 * time.Microsecond, Std: 100 * time.Microsecond}
	ProfileTelia  = ProviderProfile{Name: "Telia", ASN: bgp.ASTelia, Floor: 30800 * time.Microsecond, Mean: 31300 * time.Microsecond, Std: 330 * time.Microsecond}
	ProfileGTT    = ProviderProfile{Name: "GTT", ASN: bgp.ASGTT, Floor: 28 * time.Millisecond, Mean: 28150 * time.Microsecond, Std: 10 * time.Microsecond}
	ProfileCogent = ProviderProfile{Name: "Cogent", ASN: bgp.ASCogent, Floor: 35200 * time.Microsecond, Mean: 35700 * time.Microsecond, Std: 200 * time.Microsecond}
	ProfileLevel3 = ProviderProfile{Name: "Level3", ASN: bgp.ASLevel3, Floor: 29200 * time.Microsecond, Mean: 29600 * time.Microsecond, Std: 150 * time.Microsecond}
)

// Scenario is the paper's deployment: two Vultr datacenters (NY and LA),
// a server with a private-ASN BIRD session in each, and the five transit
// providers observed in §4.1, with an NTT–Cogent peering supplying the
// fourth LA→NY path. It is the two-site special case of the mesh, whose
// maps hold everything else: POPs["ny"], Providers["GTT"],
// Trunk["la"]["GTT"] (the line carrying GTT's NY->LA traffic),
// Block/HostPrefix/Probe["ny:la"], and Edges["ny:la"] and Edges["la:ny"],
// the Tango servers (private ASNs).
type Scenario struct {
	*MeshScenario
}

// ScenarioConfig tweaks the Vultr scenario.
type ScenarioConfig struct {
	Seed int64
	// ClockOffsetNY/LA model the unsynchronised server clocks. The
	// defaults are deliberately large and asymmetric.
	ClockOffsetNY, ClockOffsetLA time.Duration
}

// edge ASNs (RFC 6996 private, stripped by Vultr on export).
const (
	ASEdgeNY bgp.ASN = 65001
	ASEdgeLA bgp.ASN = 65002
)

// VultrConfig returns the Vultr deployment's MeshConfig. Its 50 µs
// access links glue every node into one partition, so the deployment
// runs on one engine whatever the worker count.
func VultrConfig(cfg ScenarioConfig) MeshConfig {
	if cfg.ClockOffsetNY == 0 && cfg.ClockOffsetLA == 0 {
		cfg.ClockOffsetNY = 1700 * time.Millisecond
		cfg.ClockOffsetLA = -900 * time.Millisecond
	}
	profs := []ProviderProfile{ProfileNTT, ProfileTelia, ProfileGTT, ProfileCogent, ProfileLevel3}
	byName := map[string]ProviderProfile{}
	var providers []MeshProvider
	for _, p := range profs {
		byName[p.Name] = p
		providers = append(providers, MeshProvider{
			Name:     p.Name,
			NodeName: strLower(p.Name),
			ASN:      p.ASN,
		})
	}
	// The access direction (POP -> provider) is near-zero; the trunk
	// direction (provider -> POP) carries the cross-country profile.
	access := simnet.FixedDelay(50 * time.Microsecond)
	attach := func(names ...string) []MeshAttachment {
		var out []MeshAttachment
		for _, n := range names {
			out = append(out, MeshAttachment{Provider: n, Access: access, Trunk: byName[n].Trunk()})
		}
		return out
	}
	return MeshConfig{
		Seed: cfg.Seed,
		Sites: []MeshSite{
			{
				Name: "ny", ClockOffset: cfg.ClockOffsetNY,
				POPName: "vultr-ny", POPASN: bgp.ASVultr,
				Attach: attach("NTT", "Telia", "GTT", "Cogent"),
			},
			{
				Name: "la", ClockOffset: cfg.ClockOffsetLA,
				POPName: "vultr-la", POPASN: bgp.ASVultr,
				Attach: attach("NTT", "Telia", "GTT", "Level3"),
			},
		},
		Providers: providers,
		Pairs: []MeshPair{{
			A: "ny", B: "la",
			SideA: MeshPairSide{
				EdgeName: "edge-ny", EdgeASN: ASEdgeNY, RouterID: 101,
				Block: addr.MustParsePrefix("2001:db8:100::/44"),
				Host:  addr.MustParsePrefix("2001:db8:a00::/48"),
				Probe: addr.MustParsePrefix("2001:db8:1f0::/48"),
			},
			SideB: MeshPairSide{
				EdgeName: "edge-la", EdgeASN: ASEdgeLA, RouterID: 102,
				Block: addr.MustParsePrefix("2001:db8:200::/44"),
				Host:  addr.MustParsePrefix("2001:db8:b00::/48"),
				Probe: addr.MustParsePrefix("2001:db8:2f0::/48"),
			},
		}},
		Peerings: []MeshPeering{
			// NTT <-> Cogent settlement-free peering: supplies the LA->NY
			// "NTT and Cogent" path the paper observed once NY's
			// announcements to NTT, Telia, and GTT are suppressed.
			{A: "NTT", B: "Cogent"},
			// NTT <-> Level3: the mirror-image hop for NY->LA, whose
			// fourth path enters LA through Level3.
			{A: "NTT", B: "Level3"},
		},
	}
}

// NewVultrScenario builds the deployment.
func NewVultrScenario(cfg ScenarioConfig) (*Scenario, error) {
	m, err := NewMeshScenario(VultrConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Scenario{MeshScenario: m}, nil
}

// strLower lowercases ASCII letters (provider node names).
func strLower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
