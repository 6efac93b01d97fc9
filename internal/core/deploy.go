package core

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/topo"
)

// Deployment is a topology with Tango running on it: the built scenario,
// the mesh of pairwise deployments over it, and the fault injector whose
// targets are the scenario's trunks and edge servers. The public Lab and
// Mesh, the experiments' fixtures and E10/E11 are all one of these; a lab
// is the deployment of topo.VultrConfig, whose mesh has one link.
type Deployment struct {
	Scenario *topo.MeshScenario
	Mesh     *Mesh
	// Chaos has every provider trunk registered as the line target
	// "trunk/<site>/<provider>" — the line carrying that provider's
	// traffic into the site — and watches packet conservation and buffer
	// balance over the whole network. Callers start the check cadence
	// (StartChecks); edge servers become withdrawal targets through
	// EdgeTarget.
	Chaos *chaos.Engine

	started bool
	// steer holds the class selectors Steer installed, per directed pair.
	steer map[[2]string]*dataplane.ClassSelector
}

// NewDeployment builds the scenario, lets BGP converge for five virtual
// minutes, and prepares (but does not establish) Tango on every pair.
func NewDeployment(tc topo.MeshConfig, mc MeshConfig) (*Deployment, error) {
	s, err := topo.NewMeshScenario(tc)
	if err != nil {
		return nil, err
	}
	s.Run(5 * time.Minute)
	m, err := MeshFromScenario(s, mc)
	if err != nil {
		return nil, err
	}
	ch := chaos.New(s.B.Eng())
	for _, site := range s.SiteNames {
		for prov, line := range s.Trunk[site] {
			ch.AddLine(TrunkTarget(site, prov), line)
		}
	}
	ch.Watch(chaos.Conservation("net", s.B.W))
	ch.Watch(chaos.BufferBalance("net", s.B.W))
	return &Deployment{Scenario: s, Mesh: m, Chaos: ch}, nil
}

// TrunkTarget names the line carrying provider's traffic into site as a
// fault target, metric label and journal target.
func TrunkTarget(site, provider string) string { return "trunk/" + site + "/" + provider }

// Deploy is NewDeployment followed by Establish.
func Deploy(tc topo.MeshConfig, mc MeshConfig) (*Deployment, error) {
	d, err := NewDeployment(tc, mc)
	if err != nil {
		return nil, err
	}
	return d, d.Establish()
}

// Establish runs every pair's establishment — discovery, pinned prefixes,
// tunnels, measurement loop, relay tables — to completion in virtual
// time, then switches the coordinator to parallel epochs: from here on
// no event calls across sites. Later calls change nothing and report the
// same outcome.
func (d *Deployment) Establish() error {
	if !d.started {
		d.started = true
		d.Mesh.Establish()
		d.Mesh.RunUntilReady(4 * time.Hour)
	}
	if !d.Mesh.Ready() {
		return fmt.Errorf("core: establishment did not complete")
	}
	d.Scenario.B.W.Coord().EnterParallel()
	return nil
}

// EdgeTarget returns the withdrawal target name of the edge server at
// site facing peer, "edge/<site>:<peer>", registering it with Chaos. A
// pair the scenario does not have stays unregistered, and a fault naming
// it fails at apply time like any unknown target.
func (d *Deployment) EdgeTarget(site, peer string) string {
	name := "edge/" + site + ":" + peer
	if e := d.Scenario.Edges[site+":"+peer]; e != nil {
		d.Chaos.AddSpeaker(name, e.Speaker)
	}
	return name
}

// InstrumentEdges registers every member's metrics in reg and journals
// path switches to j. It first registers j's shard merge at the epoch
// barriers, so every barrier hook registered later (invariant checks)
// observes a fully merged journal.
func (d *Deployment) InstrumentEdges(reg *obs.Registry, j *obs.Journal) {
	d.Scenario.B.W.Coord().AtBarrier(0, func(sim.Time) { j.MergeShards() })
	d.Mesh.Instrument(reg, j)
}

// Instrument is InstrumentEdges plus the fault injector: fault counters,
// one tango_line_drops_total series per trunk labelled with its target
// name, and fault applies, reverts, violations and queue drops in j.
func (d *Deployment) Instrument(reg *obs.Registry, j *obs.Journal) {
	d.InstrumentEdges(reg, j)
	d.Chaos.Instrument(reg, j)
}
