package core

import (
	"fmt"
	"sort"

	"tango/internal/dataplane"
	"tango/internal/simnet"
	"tango/internal/te"
)

// SteerClasses is the number of flow classes a steered switch
// distinguishes (the inner packet's traffic-class byte, 0..SteerClasses-1).
const SteerClasses = 8

// PathLines is what one tunnel is made of: the trunk lines its packets
// load on the way from the sending site to its peer.
type PathLines struct {
	// Provider is the delivering provider's scenario name: the key of
	// Scenario.Providers, Trunk and Uplink.
	Provider string
	// Up is the sender's uplink to the provider, nil when the sending
	// site does not attach to it (the packet then enters the provider
	// over a peering, on no trunk this deployment accounts for).
	Up *simnet.Line
	// Down is the provider's trunk into the peer site.
	Down *simnet.Line
}

// PathLines resolves tunnel id of the pair site→peer to its lines, by the
// delivering provider's ASN as discovery observed it. A path whose ASN is
// no provider of the scenario, or whose provider does not serve peer, is
// an error: the deployment cannot say which trunk that tunnel loads.
func (d *Deployment) PathLines(site, peer string, id uint8) (PathLines, error) {
	sender := d.Mesh.Member(site, peer)
	if sender == nil {
		return PathLines{}, fmt.Errorf("core: no deployed pair %s:%s", site, peer)
	}
	i := int(id) - 1
	if i < 0 || i >= len(sender.OutPaths) {
		return PathLines{}, fmt.Errorf("core: pair %s:%s has no path %d", site, peer, id)
	}
	asn := sender.OutPaths[i].ProviderASN
	prov := d.Scenario.ProviderName(asn)
	if p := d.Scenario.Providers[prov]; p == nil || p.ASN != asn {
		return PathLines{}, fmt.Errorf("core: path %d of %s:%s is delivered by AS%d, not a scenario provider", id, site, peer, asn)
	}
	down := d.Scenario.Trunk[peer][prov]
	if down == nil {
		return PathLines{}, fmt.Errorf("core: path %d of %s:%s is delivered by %s, which has no trunk into %s", id, site, peer, prov, peer)
	}
	return PathLines{Provider: prov, Up: d.Scenario.Uplink[site][prov], Down: down}, nil
}

// SteerDemand declares one steerable traffic aggregate: RateBps of Class
// traffic offered from Src toward the adjacent site Dst.
type SteerDemand struct {
	Src, Dst string
	Class    int
	RateBps  float64
}

// Steer solves for per-class path weights that minimize the maximum
// utilization of the capacitated trunk lines (Link-Guided Local Search, a
// pure function of the topology, the demands and seed) and installs them
// in a class selector on every demand's sending switch, replacing the
// controller's single-path choice for classified traffic there. Link
// capacities are read from the lines themselves (Line.Capacity; zero is
// uncapacitated and free). It returns the placement's predicted maximum
// link utilization and, per demand in input order, the fraction of the
// demand placed on each tunnel (index = path ID - 1, multiples of
// 1/te.DefaultQuanta).
//
// The installs write selectors owned by the senders' partitions, so Steer
// must run between runs, never while one is in progress. Repeated calls
// reuse the installed selectors and overwrite their weights.
func (d *Deployment) Steer(seed int64, demands []SteerDemand) (float64, [][]float64, error) {
	// The link table covers every trunk direction of every site, in
	// (sorted site, sorted provider, up then down) order — part of the
	// solver's input, so it must not vary from run to run.
	idx := map[*simnet.Line]int{}
	var links []te.Link
	add := func(line *simnet.Line) {
		idx[line] = len(links)
		links = append(links, te.Link{CapacityBps: line.Capacity()})
	}
	for _, site := range d.Mesh.Sites() {
		provs := make([]string, 0, len(d.Scenario.Trunk[site]))
		for p := range d.Scenario.Trunk[site] {
			provs = append(provs, p)
		}
		sort.Strings(provs)
		for _, p := range provs {
			add(d.Scenario.Uplink[site][p])
			add(d.Scenario.Trunk[site][p])
		}
	}

	prob := &te.Problem{Links: links}
	for _, dm := range demands {
		if dm.Class < 0 || dm.Class >= SteerClasses {
			return 0, nil, fmt.Errorf("core: demand %s->%s class %d out of range [0,%d)", dm.Src, dm.Dst, dm.Class, SteerClasses)
		}
		sender := d.Mesh.Member(dm.Src, dm.Dst)
		if sender == nil {
			return 0, nil, fmt.Errorf("core: no deployed pair %s:%s", dm.Src, dm.Dst)
		}
		if len(sender.OutPaths) == 0 {
			return 0, nil, fmt.Errorf("core: pair %s:%s has no discovered paths", dm.Src, dm.Dst)
		}
		paths := make([][]int, len(sender.OutPaths))
		for i := range paths {
			pl, err := d.PathLines(dm.Src, dm.Dst, uint8(i+1))
			if err != nil {
				return 0, nil, err
			}
			if pl.Up != nil {
				paths[i] = append(paths[i], idx[pl.Up])
			}
			paths[i] = append(paths[i], idx[pl.Down])
		}
		prob.Demands = append(prob.Demands, te.Demand{
			Name:    fmt.Sprintf("%s:%s/%d", dm.Src, dm.Dst, dm.Class),
			RateBps: dm.RateBps,
			Paths:   paths,
		})
	}

	solver := te.NewSolver(prob, seed)
	maxUtil := solver.Solve()

	if d.steer == nil {
		d.steer = map[[2]string]*dataplane.ClassSelector{}
	}
	weights := make([][]float64, len(demands))
	var ids []uint8
	var counts []int
	for di, dm := range demands {
		sender := d.Mesh.Member(dm.Src, dm.Dst)
		key := [2]string{dm.Src, dm.Dst}
		cs, ok := d.steer[key]
		if !ok {
			cs = dataplane.NewClassSelector(sender.Switch, SteerClasses)
			sender.Switch.SetSelector(cs.Select)
			d.steer[key] = cs
		}
		ids = ids[:0]
		for i := range sender.OutPaths {
			ids = append(ids, uint8(i+1))
		}
		counts = solver.Counts(di, counts)
		cs.SetWeights(dm.Class, ids, counts)
		weights[di] = solver.Weights(di)
	}
	return maxUtil, weights, nil
}
