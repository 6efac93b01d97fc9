package tango

import (
	"fmt"
	"sort"

	"tango/internal/dataplane"
	"tango/internal/te"
)

// SteeringClasses is the number of flow classes the weighted steering
// data plane distinguishes. A flow's class is the inner packet's IPv6
// traffic-class byte (IPv4 TOS), so applications choose a class by
// stamping 0..SteeringClasses-1 there.
const SteeringClasses = 8

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

// SetTrunkCapacity declares the capacity, in bits per virtual second, of
// both directions of the named provider's trunk serving a site. Declared
// capacities have two effects: the simulated lines model serialization
// delay (an oversubscribed trunk builds queueing delay, never loss), and
// OptimizeSteering's placement counts load against them. Undeclared
// trunks stay uncapacitated and free.
func (m *Mesh) SetTrunkCapacity(site, provider string, bps float64) error {
	if m.buildErr != nil {
		return m.buildErr
	}
	if bps <= 0 {
		return fmt.Errorf("tango: trunk capacity must be positive, got %g", bps)
	}
	down := m.d.Scenario.Trunk[site][provider]
	up := m.d.Scenario.Uplink[site][provider]
	if down == nil || up == nil {
		return fmt.Errorf("tango: no %s trunk serving %s", provider, site)
	}
	down.SetCapacity(bps)
	up.SetCapacity(bps)
	if m.trunkCap == nil {
		m.trunkCap = map[[2]string]float64{}
	}
	m.trunkCap[[2]string{site, provider}] = bps
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
// traffic and classes without weights keep the controller's single-path
// choice. It returns the placement's predicted maximum link utilization
// (a value above 1 means even the best split oversubscribes some trunk)
// together with the per-demand weights, in input order.
//
// Call after Establish, and again whenever demands change; repeated
// calls reuse the installed selectors and overwrite their weights.
func (m *Mesh) OptimizeSteering(seed int64, demands []SteeringDemand) (float64, []SteeringPlacement, error) {
	if !m.established() {
		return 0, nil, fmt.Errorf("tango: OptimizeSteering before Establish")
	}
	if len(demands) == 0 {
		return 0, nil, fmt.Errorf("tango: OptimizeSteering needs at least one demand")
	}

	// The link table covers every trunk direction of every site, in
	// deterministic (site, provider, direction) order; capacities come
	// from SetTrunkCapacity declarations, everything else is free.
	sites := m.d.Mesh.Sites()
	idx := map[[3]string]int{}
	var links []te.Link
	for _, site := range sites {
		provs := make([]string, 0, len(m.d.Scenario.Trunk[site]))
		for p := range m.d.Scenario.Trunk[site] {
			provs = append(provs, p)
		}
		sort.Strings(provs)
		for _, p := range provs {
			for _, dir := range [2]string{"up", "down"} {
				idx[[3]string{site, p, dir}] = len(links)
				links = append(links, te.Link{
					Name:        dir + "/" + site + "/" + p,
					CapacityBps: m.trunkCap[[2]string{site, p}],
				})
			}
		}
	}

	prob := &te.Problem{Links: links}
	for _, d := range demands {
		if d.Class >= SteeringClasses {
			return 0, nil, fmt.Errorf("tango: demand %s->%s class %d out of range [0,%d)", d.Src, d.Dst, d.Class, SteeringClasses)
		}
		sender := m.d.Mesh.Member(d.Src, d.Dst)
		if sender == nil {
			return 0, nil, fmt.Errorf("tango: no deployed pair %s:%s", d.Src, d.Dst)
		}
		if len(sender.OutPaths) == 0 {
			return 0, nil, fmt.Errorf("tango: pair %s:%s has no discovered paths", d.Src, d.Dst)
		}
		paths := make([][]int, len(sender.OutPaths))
		for i := range sender.OutPaths {
			prov := sender.PathName(uint8(i + 1))
			var p []int
			if li, ok := idx[[3]string{d.Src, prov, "up"}]; ok {
				p = append(p, li)
			}
			if li, ok := idx[[3]string{d.Dst, prov, "down"}]; ok {
				p = append(p, li)
			}
			paths[i] = p
		}
		prob.Demands = append(prob.Demands, te.Demand{
			Name:    fmt.Sprintf("%s:%s/%d", d.Src, d.Dst, d.Class),
			RateBps: d.RateBps,
			Paths:   paths,
		})
	}

	solver := te.NewSolver(prob, seed)
	maxUtil := solver.Solve()

	if m.steer == nil {
		m.steer = map[[2]string]*dataplane.ClassSelector{}
	}
	placements := make([]SteeringPlacement, len(demands))
	var counts []int
	for di, d := range demands {
		sender := m.d.Mesh.Member(d.Src, d.Dst)
		key := [2]string{d.Src, d.Dst}
		cs, ok := m.steer[key]
		if !ok {
			cs = dataplane.NewClassSelector(sender.Switch, SteeringClasses)
			sender.Switch.SetSelector(cs.Select)
			m.steer[key] = cs
		}
		ids := make([]uint8, len(sender.OutPaths))
		for i := range ids {
			ids[i] = uint8(i + 1)
		}
		counts = solver.Counts(di, counts)
		cs.SetWeights(int(d.Class), ids, counts)

		ws := map[string]float64{}
		for i, w := range solver.Weights(di) {
			if w > 0 {
				ws[sender.PathName(uint8(i+1))] += w
			}
		}
		placements[di] = SteeringPlacement{Demand: d, Weights: ws}
	}
	return maxUtil, placements, nil
}
