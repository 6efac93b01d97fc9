package tango

import (
	"fmt"
	"math"

	"tango/internal/core"
)

// SteeringClasses is the number of flow classes the weighted steering
// data plane distinguishes. A flow's class is the inner packet's IPv6
// traffic-class byte (IPv4 TOS), so applications choose a class by
// stamping 0..SteeringClasses-1 there.
const SteeringClasses = core.SteerClasses

// SteeringDemand declares one steerable traffic aggregate for
// OptimizeSteering: RateBps of class traffic offered from one deployed
// site toward another. The pair must have deployed Tango directly
// (relayed routes are not steerable aggregates).
type SteeringDemand struct {
	Src, Dst string
	Class    uint8
	RateBps  float64
}

// SteeringPlacement reports how OptimizeSteering split one demand:
// Weights maps provider name to the fraction of the demand steered over
// that provider's path (multiples of 1/8, summing to 1; providers with
// zero weight are omitted).
type SteeringPlacement struct {
	Demand  SteeringDemand
	Weights map[string]float64
}

// SetTrunkCapacity declares the capacity, in bits per virtual second
// (positive and finite), of both directions of the named provider's
// trunk serving a site. Declared capacities have two effects: the
// simulated lines model serialization delay (an oversubscribed trunk
// builds queueing delay, never loss), and OptimizeSteering's placement
// counts load against them. Undeclared trunks stay uncapacitated and
// free.
func (m *Mesh) SetTrunkCapacity(site, provider string, bps float64) error {
	if !(bps > 0) || math.IsInf(bps, 1) {
		return fmt.Errorf("tango: trunk capacity must be positive and finite, got %g", bps)
	}
	down := m.d.Scenario.Trunk[site][provider]
	up := m.d.Scenario.Uplink[site][provider]
	if down == nil || up == nil {
		return fmt.Errorf("tango: no %s trunk serving %s", provider, site)
	}
	down.SetCapacity(bps)
	up.SetCapacity(bps)
	return nil
}

// OptimizeSteering replaces the per-pair greedy path choice with a
// capacity-aware weighted placement: it solves for per-class path
// weights that minimize the maximum utilization of the declared trunk
// capacities (Link-Guided Local Search, a pure function of the demands
// and seed) and installs them on every demand's border switch. From
// then on, classified host traffic from those sites hashes flow-wise
// onto the weighted path set — each flow sticks to one path, the flow
// population spreads in the installed proportions — while unclassified
// traffic and classes without weights ride the pair's first path. It
// returns the placement's predicted maximum link utilization
// (a value above 1 means even the best split oversubscribes some trunk)
// together with the per-demand weights, in input order.
//
// Call again whenever demands change; repeated calls reuse the installed
// selectors and overwrite their weights.
func (m *Mesh) OptimizeSteering(seed int64, demands []SteeringDemand) (float64, []SteeringPlacement, error) {
	if len(demands) == 0 {
		return 0, nil, fmt.Errorf("tango: OptimizeSteering needs at least one demand")
	}
	cd := make([]core.SteerDemand, len(demands))
	for i, d := range demands {
		cd[i] = core.SteerDemand{Src: d.Src, Dst: d.Dst, Class: int(d.Class), RateBps: d.RateBps}
	}
	maxUtil, weights, err := m.d.Steer(seed, cd)
	if err != nil {
		return 0, nil, err
	}
	placements := make([]SteeringPlacement, len(demands))
	for di, d := range demands {
		sender := m.d.Mesh.Member(d.Src, d.Dst)
		ws := map[string]float64{}
		for i, w := range weights[di] {
			if w > 0 {
				ws[sender.PathName(uint8(i+1))] += w
			}
		}
		placements[di] = SteeringPlacement{Demand: d, Weights: ws}
	}
	return maxUtil, placements, nil
}
