package tango_test

import (
	"fmt"
	"sort"
	"time"

	"tango"
)

// Example_deployAndSteer brings up the paper's deployment, lets the
// measurement loop run, and shows the controller's choice. The run is
// fully deterministic, so the output is stable.
func Example_deployAndSteer() {
	lab, err := tango.NewLab(tango.Options{Seed: 42})
	if err != nil {
		panic(err)
	}
	lab.Run(5 * time.Minute)

	for _, p := range lab.NY().Paths() {
		fmt.Printf("path %d via %s\n", p.ID, p.Provider)
	}
	fmt.Printf("data traffic rides %s\n", lab.NY().CurrentPath())
	// Output:
	// path 1 via NTT
	// path 2 via Telia
	// path 3 via GTT
	// path 4 via Level3
	// data traffic rides GTT
}

// Example_weightedSteering declares trunk capacities on the default
// three-site mesh and lets the capacity-aware optimizer split a demand
// across the ny-chi pair's discovered paths, instead of the controller's
// winner-take-all choice. Everything is a pure function of the seeds, so
// the placement is stable.
func Example_weightedSteering() {
	mesh, err := tango.NewMesh(tango.MeshOptions{Seed: 11})
	if err != nil {
		panic(err)
	}
	// ny and chi share two providers; make NTT scarce at both ends so
	// the best split must lean on Telia.
	for _, site := range []string{"ny", "chi"} {
		if err := mesh.SetTrunkCapacity(site, "NTT", 4e6); err != nil {
			panic(err)
		}
		if err := mesh.SetTrunkCapacity(site, "Telia", 16e6); err != nil {
			panic(err)
		}
	}
	maxUtil, placed, err := mesh.OptimizeSteering(1, []tango.SteeringDemand{
		{Src: "ny", Dst: "chi", Class: 0, RateBps: 8e6},
		{Src: "chi", Dst: "ny", Class: 0, RateBps: 8e6},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("predicted max trunk utilization: %.3f\n", maxUtil)
	for _, p := range placed {
		names := make([]string, 0, len(p.Weights))
		for n := range p.Weights {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%s->%s:", p.Demand.Src, p.Demand.Dst)
		for _, n := range names {
			fmt.Printf(" %s %.3f", n, p.Weights[n])
		}
		fmt.Println()
	}
	// Output:
	// predicted max trunk utilization: 0.438
	// ny->chi: NTT 0.125 Telia 0.875
	// chi->ny: NTT 0.125 Telia 0.875
}

// Example_incident injects the paper's Figure 4 (middle) incident and
// watches the controller route around it using live one-way delays.
func Example_incident() {
	lab, err := tango.NewLab(tango.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	lab.Run(3 * time.Minute) // settle on the best path

	if err := lab.Chaos().RouteShift("la", "GTT", time.Minute, 10*time.Minute, 5*time.Millisecond); err != nil {
		panic(err)
	}
	before := lab.NY().CurrentPath()
	lab.Run(5 * time.Minute) // into the event
	during := lab.NY().CurrentPath()
	lab.Run(12 * time.Minute) // event over
	after := lab.NY().CurrentPath()
	fmt.Printf("before: %s, during: %s, after: %s\n", before, during, after)
	// Output:
	// before: GTT, during: Telia, after: GTT
}
