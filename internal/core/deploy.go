package core

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/dataplane"
	"tango/internal/obs"
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

	// steer holds the class selectors Steer installed, per directed pair.
	steer map[[2]string]*dataplane.ClassSelector
}

// TrunkTarget names the line carrying provider's traffic into site as a
// fault target, metric label and journal target.
func TrunkTarget(site, provider string) string { return "trunk/" + site + "/" + provider }

// Deploy builds the scenario, lets BGP converge for five virtual
// minutes, and runs every pair's establishment — discovery, pinned
// prefixes, tunnels, measurement loop, relay tables — to completion in
// virtual time, then switches the coordinator to parallel epochs: from
// here on no event calls across sites. A deployed pair that BGP exposed
// no path to, in either direction, is an error naming the pair.
func Deploy(tc topo.MeshConfig, mc MeshConfig) (*Deployment, error) {
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

	m.Establish()
	if !m.RunUntilReady(4 * time.Hour) {
		return nil, fmt.Errorf("core: establishment did not complete")
	}
	for _, pk := range s.PairKeys {
		for _, dir := range [2][2]string{pk, {pk[1], pk[0]}} {
			if len(m.Member(dir[0], dir[1]).OutPaths) == 0 {
				return nil, fmt.Errorf("core: BGP exposed no path from %s to %s", dir[0], dir[1])
			}
		}
	}
	s.B.W.Coord().EnterParallel()
	return &Deployment{Scenario: s, Mesh: m, Chaos: ch}, nil
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

// Instrument registers every member's metrics in reg and journals path
// switches to j (Mesh.Instrument), then instruments the fault injector:
// fault counters, one tango_line_drops_total series per trunk labelled
// with its target name, and fault applies, failed applies, reverts,
// violations and queue drops in j.
func (d *Deployment) Instrument(reg *obs.Registry, j *obs.Journal) {
	d.Mesh.Instrument(reg, j)
	d.Chaos.Instrument(reg, j)
}
