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
// injection.
//
//	lab := tango.NewLab(tango.Options{Seed: 1})
//	if err := lab.Establish(); err != nil { ... }
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
//	mesh := tango.NewMesh(tango.MeshOptions{Seed: 1})
//	if err := mesh.Establish(); err != nil { ... }
//	mesh.Run(2 * time.Minute)
//	best, _ := mesh.BestRoute("ny", "la") // direct, or relayed via chi
package tango

import (
	"fmt"
	"time"

	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
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

// Options configures a Lab.
type Options struct {
	// Seed drives every random process; runs with equal seeds are
	// bit-for-bit reproducible.
	Seed int64
	// ProbeInterval is the per-path measurement cadence (0 = the paper's
	// 10 ms; Establish refuses a negative value).
	ProbeInterval time.Duration
	// DecideEvery is the controller cadence (0 = 1 s; Establish refuses a
	// negative value). PolicyStaticDefault, not a cadence, is how to keep
	// traffic on the BGP default path.
	DecideEvery time.Duration
	// PolicyNY / PolicyLA select each site's strategy.
	PolicyNY, PolicyLA Policy
	// RecordBucket, when positive, records per-path OWD time series at
	// this aggregation for later export.
	RecordBucket time.Duration
	// ClockOffsetNY / ClockOffsetLA skew the two servers' clocks
	// (defaults: +1.7 s and -0.9 s, deliberately unsynchronised).
	ClockOffsetNY, ClockOffsetLA time.Duration
	// AuthKey, when non-empty, enables authenticated telemetry: both
	// border switches sign Tango datagrams and drop unverified ones.
	AuthKey []byte
}

// deployment is what a Lab and a Mesh both are: one core.Deployment (the
// built topology, Tango on every deployed pair, the fault injector) or
// the error that kept it from being built.
type deployment struct {
	d        *core.Deployment
	buildErr error
	chaos    *Chaos
}

func newDeployment(tc topo.MeshConfig, mc core.MeshConfig) deployment {
	d, err := core.NewDeployment(tc, mc)
	return deployment{d: d, buildErr: err}
}

// cadences resolves the probe and decision cadences of an options struct
// (named opts in the error): 0 takes the default, 10 ms probing and a
// decision every second, and a negative value is an error.
func cadences(opts string, probe, decide time.Duration) (time.Duration, time.Duration, error) {
	if probe < 0 {
		return 0, 0, fmt.Errorf("tango: %s.ProbeInterval is %v; want a positive cadence, or 0 for 10ms", opts, probe)
	}
	if decide < 0 {
		return 0, 0, fmt.Errorf("tango: %s.DecideEvery is %v; want a positive cadence, or 0 for 1s", opts, decide)
	}
	if probe == 0 {
		probe = 10 * time.Millisecond
	}
	if decide == 0 {
		decide = time.Second
	}
	return probe, decide, nil
}

// Establish runs the paper's setup for every deployed pair concurrently
// in virtual time — iterative path discovery in both directions, one
// pinned prefix announced per exposed path, tunnels provisioned, probing
// and the measurement feedback loop started — then wires the overlay
// relay tables. It returns an error if the topology was invalid or
// establishment does not complete. A second call changes nothing.
func (p *deployment) Establish() error {
	if p.buildErr != nil {
		return p.buildErr
	}
	return p.d.Establish()
}

// Instrument registers the deployment's metrics in reg — every edge
// server's switch, monitor and controller (labelled by site on a Lab,
// "site->peer" on a Mesh), the fault counters, and one
// tango_line_drops_total series per provider trunk labelled
// line="trunk/<site>/<provider>" — and journals structured events (path
// switches, fault applies and reverts, queue drops) to j. Call after
// Establish; both are typically served with obs.Handler.
func (p *deployment) Instrument(reg *obs.Registry, j *obs.Journal) error {
	if !p.established() {
		return fmt.Errorf("tango: Instrument before Establish")
	}
	p.d.Instrument(reg, j)
	return nil
}

// established reports whether Establish has succeeded.
func (p *deployment) established() bool { return p.buildErr == nil && p.d.Mesh.Ready() }

// Run advances the deployment by d of virtual time. On a deployment that
// was refused (Establish returns why) there is nothing to run, and Run
// does nothing.
func (p *deployment) Run(d time.Duration) {
	if p.buildErr == nil {
		p.d.Scenario.Run(d)
	}
}

// Now returns the current virtual time; 0 on a refused deployment.
func (p *deployment) Now() time.Duration {
	if p.buildErr != nil {
		return 0
	}
	return p.d.Scenario.B.W.Now()
}

// Lab is the paper's deployment: two cooperating edge servers in Vultr's
// NY and LA datacenters connected across five transit providers. It is
// the one-link case of the machinery behind NewMesh.
type Lab struct {
	deployment
	ny, la *Site
}

// NewLab builds the simulated deployment (BGP sessions established, host
// prefixes announced) without running Tango discovery yet.
func NewLab(opts Options) *Lab {
	var err error
	opts.ProbeInterval, opts.DecideEvery, err = cadences("Options", opts.ProbeInterval, opts.DecideEvery)
	if err != nil {
		return &Lab{deployment: deployment{buildErr: err}}
	}
	return &Lab{deployment: newDeployment(
		topo.VultrConfig(topo.ScenarioConfig{
			Seed:          opts.Seed,
			ClockOffsetNY: opts.ClockOffsetNY,
			ClockOffsetLA: opts.ClockOffsetLA,
		}),
		core.MeshConfig{
			ProbeInterval: opts.ProbeInterval,
			DecideEvery:   opts.DecideEvery,
			NewPolicy: func(site, peer string) control.Policy {
				if site == "ny" {
					return mkPolicy(opts.PolicyNY)
				}
				return mkPolicy(opts.PolicyLA)
			},
			RecordBucket: opts.RecordBucket,
			AuthKey:      opts.AuthKey,
		})}
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

// Establish runs the paper's setup end to end in virtual time: iterative
// path discovery in both directions, one pinned prefix announced per
// exposed path, tunnels provisioned, probing and the measurement feedback
// loop started. It returns an error if establishment does not complete
// or BGP exposed no path. A second call changes nothing.
func (l *Lab) Establish() error {
	if err := l.deployment.Establish(); err != nil {
		return err
	}
	ny, la := l.d.Mesh.Member("ny", "la"), l.d.Mesh.Member("la", "ny")
	if len(ny.OutPaths) == 0 || len(la.OutPaths) == 0 {
		return fmt.Errorf("tango: no wide-area paths discovered")
	}
	if l.ny == nil {
		l.ny = &Site{name: "ny", site: ny}
		l.la = &Site{name: "la", site: la}
	}
	return nil
}

// NY returns the New York site. Establish must have succeeded.
func (l *Lab) NY() *Site { return l.ny }

// LA returns the Los Angeles site.
func (l *Lab) LA() *Site { return l.la }
