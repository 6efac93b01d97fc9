// Package tango is a library implementation of "It Takes Two to Tango:
// Cooperative Edge-to-Edge Routing" (Birge-Lee, Apostolaki, Rexford,
// HotNets '22): pairs of edge networks cooperate to expose wide-area path
// diversity with BGP communities, measure one-way delay by piggybacking
// timestamps on data packets at their border switches, and steer traffic
// per packet over the best exposed path — no support needed from end
// hosts or the Internet core.
//
// Because the public Internet is not available to a library, tango ships
// a faithful substrate: a deterministic packet-level network simulator, a
// from-scratch BGP-4 control plane with operator action communities, and
// an eBPF-equivalent data plane operating on real packet bytes. The
// two-site entry point is the Lab: the paper's two-datacenter Vultr
// deployment, ready for discovery, measurement, traffic, and incident
// injection. NewLab and NewMesh return an established deployment — BGP
// converged, paths discovered and pinned, tunnels up, the measurement
// loop running — or an error saying why there is none.
//
//	lab, err := tango.NewLab(tango.Options{Seed: 1})
//	if err != nil { ... }
//	lab.Run(30 * time.Minute)
//	for _, p := range lab.NY().Paths() {
//		fmt.Printf("%s: %.2f ms\n", p.Provider, p.MeanOWDMs)
//	}
//
// NewMesh scales the same machinery to N sites (the paper's §6, "from
// Tango of 2 to Tango of N"): Tango deploys pairwise between adjacent
// sites and an overlay relay layer composes the pairs into end-to-end
// routes, so traffic can detour through an intermediate site when every
// direct wide-area path degrades.
//
//	mesh, err := tango.NewMesh(tango.MeshOptions{Seed: 1})
//	if err != nil { ... }
//	mesh.Run(2 * time.Minute)
//	best, _ := mesh.BestRoute("ny", "la") // direct, or relayed via chi
package tango

import (
	"fmt"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/topo"
)

// Policy selects the controller's path-selection strategy.
type Policy int

// Policies.
const (
	// PolicyMinDelay tracks the lowest one-way delay with hysteresis
	// (the default).
	PolicyMinDelay Policy = iota
	// PolicyMinJitter prefers the calmest path within a small delay
	// budget — for interactive traffic.
	PolicyMinJitter
	// PolicyStaticDefault pins traffic to the BGP default path (the
	// "no Tango" baseline).
	PolicyStaticDefault
)

// Options configures a Lab. Every site probes each path every 10 ms,
// the paper's cadence, and its controller decides once a second; the
// two servers' clocks are skewed +1.7 s (NY) and -0.9 s (LA), so the
// deployment measures across unsynchronised clocks.
type Options struct {
	// Seed drives every random process; runs with equal seeds are
	// bit-for-bit reproducible.
	Seed int64
	// PolicyNY / PolicyLA select each site's strategy (NewLab refuses a
	// value that is none of the Policy constants).
	PolicyNY, PolicyLA Policy
	// AuthKey, when non-empty, enables authenticated telemetry: both
	// border switches sign Tango datagrams and drop unverified ones.
	AuthKey []byte
}

// The cadences of every deployment: the paper's 10 ms probing and a
// controller decision every second.
const (
	probeInterval = 10 * time.Millisecond
	decideEvery   = time.Second
)

// Lab is the paper's deployment: two cooperating edge servers in Vultr's
// NY and LA datacenters connected across five transit providers. It is
// the one-link Mesh, with its two sites at hand.
type Lab struct {
	*Mesh
	ny, la *Site
}

// NewLab builds the simulated deployment and establishes Tango on it in
// virtual time: BGP converges, iterative path discovery runs in both
// directions, one pinned prefix is announced per exposed path, tunnels
// are provisioned, and probing and the measurement feedback loop start.
// It returns an error for a refused option, an establishment that does
// not complete, or a direction BGP exposed no path in.
func NewLab(opts Options) (*Lab, error) {
	err := checkPolicy("Options.PolicyNY", opts.PolicyNY)
	if err == nil {
		err = checkPolicy("Options.PolicyLA", opts.PolicyLA)
	}
	if err != nil {
		return nil, err
	}
	m, err := deploy(
		topo.VultrConfig(topo.ScenarioConfig{Seed: opts.Seed}),
		core.MeshConfig{
			ProbeInterval: probeInterval,
			DecideEvery:   decideEvery,
			NewPolicy: func(site, peer string) control.Policy {
				if site == "ny" {
					return mkPolicy(opts.PolicyNY)
				}
				return mkPolicy(opts.PolicyLA)
			},
			AuthKey: opts.AuthKey,
		})
	if err != nil {
		return nil, err
	}
	return &Lab{
		Mesh: m,
		ny:   &Site{name: "ny", site: m.d.Mesh.Member("ny", "la")},
		la:   &Site{name: "la", site: m.d.Mesh.Member("la", "ny")},
	}, nil
}

// checkPolicy refuses a Policy value that names no policy (field names
// it in the error).
func checkPolicy(field string, p Policy) error {
	if p < PolicyMinDelay || p > PolicyStaticDefault {
		return fmt.Errorf("tango: %s is Policy(%d); want PolicyMinDelay, PolicyMinJitter or PolicyStaticDefault", field, p)
	}
	return nil
}

func mkPolicy(p Policy) control.Policy {
	switch p {
	case PolicyMinJitter:
		return &control.MinJitter{MaxOWDPenaltyMs: 2}
	case PolicyStaticDefault:
		return &control.Static{ID: 1}
	default:
		return &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second, StaleAfter: 10 * time.Second}
	}
}

// NY returns the New York site.
func (l *Lab) NY() *Site { return l.ny }

// LA returns the Los Angeles site.
func (l *Lab) LA() *Site { return l.la }
