package experiments

import (
	"strings"

	"tango/internal/obs"
	"tango/internal/sim"
)

// Sharded-run plumbing shared by the experiments that honor Config.Shards.
//
// A sharded experiment follows one shape: build the scenario with
// cfg.Shards (the topo layer partitions the network and configures the
// worker count), establish in the coordinator's coupled mode exactly like
// a classic run, instrument the deployment (which registers the journal's
// barrier merge first), finish wiring (chaos checks, workloads,
// callbacks), then flip to parallel epochs with enterParallel for the
// measurement phase. Every helper here is a no-op on a classic
// single-engine network, so the same driver code serves both paths.

// enterParallel switches a sharded run to parallel epochs; call it once
// wiring and establishment are done (direct cross-partition calls are
// only legal in coupled mode). No-op on a classic engine, and on a
// single-partition layout the coordinator stays coupled by itself.
func enterParallel(eng *sim.Engine) {
	if c := eng.Coord(); c != nil {
		c.EnterParallel()
	}
}

// traceJSON renders the journal's full tail for byte-exact comparison.
func traceJSON(j *obs.Journal) string {
	var b strings.Builder
	if err := j.WriteJSON(&b, 0); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}
