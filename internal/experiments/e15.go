package experiments

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/simnet"
	"tango/internal/workload"
)

// e15TargetPPS bounds the aggregate flow emission rate, exactly like
// E13: class intervals stretch by one common factor until the offered
// packet rate lands near the budget. Demands and capacities are both
// derived from the stretched rates, so the utilization picture is
// invariant under the stretch.
const e15TargetPPS = 40_000

// e15Lead is the head start between flow start and the measurement
// window: staggered first emissions land and the baseline controllers
// take their first loaded decisions before utilization is scored.
const e15Lead = 2 * time.Second

// e15ScarceShare / e15Share set the capacity skew: the fastest provider
// (P00, the one every greedy min-OWD policy herds onto) gets the scarce
// share of a site's offered load, every other provider a comfortable
// share. Total capacity is 2.5x demand, so a spread placement fits at
// ~0.4 utilization while any single-provider herd oversubscribes.
const (
	e15ScarceShare = 0.10
	e15Share       = 0.16
)

// e15Flows returns the flow count for one (sender site, receiver site,
// class) demand — a deterministic skew in 4..16 so the matrix is far
// from uniform.
func e15Flows(si, sj, c int) int { return 4 * (1 + (si*5+sj*3+c)%4) }

// e15Demand is one row of the demand matrix: a directed pair, its index
// in directions order, and a class.
type e15Demand struct {
	from, to string
	dir      int
	class    workload.Class
	flows    int
	rateBps  float64 // offered wire rate after the interval stretch
}

// e15Stats is one sub-run's measured outcome.
type e15Stats struct {
	tunnels    int
	slowdown   int64
	peakUtil   float64
	solvedUtil float64 // TE run only: the solver's predicted max util
	classes    [workload.NumClasses]workload.FlowClassStats
	owdP99     [workload.NumClasses]int64
	combP99    int64
	virtual    time.Duration
	metrics    map[string]float64
	trace      string
}

// pinProviderRoutes pins the forwarding of every tunnel's remote /48 to
// the provider PathLines resolves it to: sender POP up the provider's
// trunk, provider hub down to the receiving POP, receiving POP to the
// owning edge. BGP does not get every pinned /48 there on its own: the
// wide mesh allocates each edge's /44 pin block and its /48 host and
// probe prefixes from one addr.Alloc, whose per-length counters overlap,
// so every host prefix is also some edge's pinned /48, and a POP's best
// route for that /48 may lead to the host prefix's origin instead.
// (Export policy is not the cause: Speaker.exportRoute is Gao–Rexford.)
// That is harmless when links are delay-only, but fatal to capacity
// accounting, where the TE model (and the experiment's utilization
// meters) must know exactly which trunk a tunnel loads. Both steering
// regimes get the same pinned forwarding, so the comparison stays
// apples-to-apples.
func pinProviderRoutes(d *core.Deployment) {
	s := d.Scenario
	portTo := func(n, peer *simnet.Node) *simnet.Port {
		for _, pt := range n.Ports() {
			if pt.Peer() == peer {
				return pt
			}
		}
		panic("experiments: node " + n.Name() + " has no port toward " + peer.Name())
	}
	for _, dir := range directions(s) {
		from, to := dir[0], dir[1]
		recv := d.Mesh.Member(to, from)
		pop, rpop, edge := s.POPs[from].Node, s.POPs[to].Node, recv.Spec.Edge.Node
		for i := range d.Mesh.Member(from, to).OutPaths {
			pfx, err := recv.PinnedPrefix(uint8(i + 1))
			if err != nil {
				panic(err)
			}
			pl, err := d.PathLines(from, to, uint8(i+1))
			if err != nil {
				panic(err)
			}
			hub := s.Providers[pl.Provider].Node
			pop.SetRoute(pfx, portTo(pop, hub))
			hub.SetRoute(pfx, portTo(hub, rpop))
			rpop.SetRoute(pfx, portTo(rpop, edge))
		}
	}
}

// e15Run builds the wide mesh once and measures one steering regime:
// optimize=false leaves the per-pair min-OWD controllers in charge
// (greedy best-path, the regime the paper's §5 motivation criticizes),
// optimize=true disables them and installs Link-Guided Local Search
// weights through per-class selectors instead. Both regimes see the
// identical topology, capacities, demand matrix, and probe plane.
func e15Run(cfg Config, sites int, optimize bool) *e15Stats {
	decideEvery := time.Second
	if optimize {
		decideEvery = 0
	}
	d, reg, journal := newWideMesh(cfg.Seed+15, sites, cfg.Shards, decideEvery)
	s, eng := d.Scenario, d.Scenario.B.Eng()
	pinProviderRoutes(d)

	// Provider order (P00 fastest) fixes which trunks are scarce.
	provNames := make([]string, 0, len(s.Providers))
	for name := range s.Providers {
		provNames = append(provNames, name)
	}
	sort.Strings(provNames)
	siteIdx := map[string]int{}
	for si, name := range s.SiteNames {
		siteIdx[name] = si
	}

	// The demand matrix, in deterministic pair order. The stretch factor
	// keeps the aggregate near the packet budget (concurrency and the
	// relative demand skew are untouched), so rates are computed after
	// it is known.
	base := workload.DefaultClasses()
	var demands []e15Demand
	totalPPS := 0.0
	for di, dir := range directions(s) {
		from, to := dir[0], dir[1]
		for c := 0; c < workload.NumClasses; c++ {
			nf := e15Flows(siteIdx[from], siteIdx[to], c)
			demands = append(demands, e15Demand{from: from, to: to, dir: di, class: workload.Class(c), flows: nf})
			totalPPS += float64(nf) * float64(time.Second) / float64(base[c].Interval)
		}
	}
	classes, slowdown := stretchedClasses(totalPPS, e15TargetPPS)
	// Wire rate per flow: inner (48B headers + payload) plus the outer
	// IPv6/UDP/Tango encapsulation (64B), at the stretched cadence.
	wireBps := func(c workload.Class) float64 {
		bits := float64(classes[c].Payload+48+64) * 8
		return bits / classes[c].Interval.Seconds()
	}
	dOut := make([]float64, len(s.SiteNames))
	dIn := make([]float64, len(s.SiteNames))
	for i := range demands {
		dm := &demands[i]
		dm.rateBps = float64(dm.flows) * wireBps(dm.class)
		dOut[siteIdx[dm.from]] += dm.rateBps
		dIn[siteIdx[dm.to]] += dm.rateBps
	}

	// Capacitate every trunk direction with the skewed shares; the lines
	// are where the steering optimizer reads capacities back. Capacities
	// go in after establishment so the (uncapacitated) BGP convergence
	// phase is identical either way.
	type meterLine struct {
		line  *simnet.Line
		gauge *obs.Gauge
	}
	var lines []meterLine
	capacitate := func(name string, ln *simnet.Line, bps float64) {
		ln.SetCapacity(bps)
		lines = append(lines, meterLine{line: ln, gauge: reg.Gauge("tango_link_utilization",
			"Peak windowed utilization of a capacitated trunk line.", obs.L("line", name))})
	}
	for si, site := range s.SiteNames {
		for pi, prov := range provNames {
			share := e15Share
			if pi == 0 {
				share = e15ScarceShare
			}
			capacitate("up/"+site+"/"+prov, s.Uplink[site][prov], share*dOut[si])
			capacitate("down/"+site+"/"+prov, s.Trunk[site][prov], share*dIn[si])
		}
	}

	// One flow table per site, sized to the site's outgoing demand.
	siteFlows := map[string]int{}
	for _, dm := range demands {
		siteFlows[dm.from] += dm.flows
	}
	tables, eps := flowFabric(d, reg, classes, func(site string) int { return siteFlows[site] })

	st := &e15Stats{tunnels: tunnelCount(d), slowdown: slowdown}

	if optimize {
		// Replace each member's controller selector with a per-class
		// weighted selector and install one solve of the shared problem.
		// On a sharded network the installs must land before parallel
		// epochs begin (they mutate selectors owned by other partitions),
		// so the placement is static.
		steer := make([]core.SteerDemand, len(demands))
		for i, dm := range demands {
			steer[i] = core.SteerDemand{Src: dm.from, Dst: dm.to, Class: int(dm.class), RateBps: dm.rateBps}
		}
		var err error
		if st.solvedUtil, _, err = d.Steer(cfg.Seed+15, steer); err != nil {
			panic(err) // every tunnel of the fixture rides a scenario provider
		}
	}

	// Start the standing flows, staggered across each class interval so
	// emissions spread evenly over the measurement windows.
	for _, dm := range demands {
		fe := eps[dm.dir]
		iv := classes[dm.class].Interval
		for k := 0; k < dm.flows; k++ {
			stagger := time.Duration(int64(k)) * iv / time.Duration(dm.flows)
			if fe.table.Start(fe.ep, dm.class, 1<<31, stagger) < 0 {
				panic("experiments: standing flow refused below capacity")
			}
		}
	}

	// Utilization meters: per line, on its owning engine, in distinct
	// slots — the parallel partitions never share state. The window at
	// e15Lead only resets the accounting (it covers pre-traffic time);
	// the scored windows follow at 1 s until the stop line.
	window := cfg.dur(10 * time.Second)
	stopAt := e15Lead + window
	peaks := make([]float64, len(lines))
	for i := range lines {
		i, ln, g := i, lines[i].line, lines[i].gauge
		ln.Eng().Schedule(e15Lead, func() { ln.TakeUtilization(ln.Eng().Now()) })
		for at := e15Lead + time.Second; at <= stopAt; at += time.Second {
			ln.Eng().Schedule(at, func() {
				if u := ln.TakeUtilization(ln.Eng().Now()); u > peaks[i] {
					peaks[i] = u
					g.Set(u)
				}
			})
		}
	}
	for _, site := range s.SiteNames {
		t := tables[site]
		t.Eng().Schedule(stopAt, t.Stop)
	}

	s.Run(stopAt + 5*time.Second) // stop line + drain for in-flight deliveries

	for _, p := range peaks {
		if p > st.peakUtil {
			st.peakUtil = p
		}
	}
	stats, owdH, _ := flowTotals(s.SiteNames, tables)
	st.classes = stats
	var allH []*obs.Histogram
	for c := range owdH {
		st.owdP99[c] = obs.Quantile(0.99, owdH[c]...)
		allH = append(allH, owdH[c]...)
	}
	st.combP99 = obs.Quantile(0.99, allH...)
	st.virtual = eng.Now()
	st.metrics = reg.Snapshot()
	st.trace = traceJSON(journal)
	return st
}

// E15TrafficEngineering is the Link-Guided Local Search payoff
// experiment: the E12 wide mesh gets capacitated provider trunks (the
// fastest provider deliberately scarce) and a skewed multi-class demand
// matrix, then runs twice from one seed — once under the per-pair
// greedy min-OWD controllers, once under solver-installed per-class
// path weights. Greedy herds every pair onto the fastest provider,
// oversubscribes it, and oscillates (the "two to tango" coordination
// failure at N sites); the optimizer spreads each demand across the
// pair's discovered path set and must beat greedy on both peak link
// utilization and p99 one-way delay. Both sub-runs honor cfg.Shards and
// are deterministic per seed, so the shard-invariance differential
// covers the whole comparison.
func E15TrafficEngineering(cfg Config) *Result {
	r := newResult("E15", "Capacity-aware weighted steering beats greedy best-path under load (§5, §6)")

	sites := cfg.wideSites()
	greedy := e15Run(cfg, sites, false)
	opt := e15Run(cfg, sites, true)

	ratio := func(st *e15Stats) float64 {
		var sent, delvd uint64
		for _, cs := range st.classes {
			sent += cs.Sent
			delvd += cs.Delivered
		}
		if sent == 0 {
			return 0
		}
		return float64(delvd) / float64(sent)
	}

	r.Rows = append(r.Rows, []string{"quantity", "greedy", "optimized"})
	for _, row := range [][3]string{
		{"sites", fmt.Sprint(sites), fmt.Sprint(sites)},
		{"tunnels", fmt.Sprint(greedy.tunnels), fmt.Sprint(opt.tunnels)},
		{"interval slowdown", fmt.Sprint(greedy.slowdown), fmt.Sprint(opt.slowdown)},
		{"peak link utilization", fmt.Sprintf("%.3f", greedy.peakUtil), fmt.Sprintf("%.3f", opt.peakUtil)},
		{"solver predicted max util", "-", fmt.Sprintf("%.3f", opt.solvedUtil)},
		{"p99 OWD (all classes)", time.Duration(greedy.combP99).String(), time.Duration(opt.combP99).String()},
		{"delivered ratio", fmt.Sprintf("%.3f", ratio(greedy)), fmt.Sprintf("%.3f", ratio(opt))},
	} {
		r.Rows = append(r.Rows, []string{row[0], row[1], row[2]})
	}
	for c := workload.Class(0); c < workload.NumClasses; c++ {
		r.Rows = append(r.Rows, []string{c.String() + " p99 OWD",
			time.Duration(greedy.owdP99[c]).String(), time.Duration(opt.owdP99[c]).String()})
	}

	r.check("greedy herding oversubscribes a trunk", "uncoordinated min-OWD converges on the fastest provider (§5)",
		greedy.peakUtil > 1.2, "peak utilization %.3f", greedy.peakUtil)
	r.check("optimized placement fits capacity", "weighted spreading keeps every trunk below saturation",
		opt.peakUtil < 1.0, "peak utilization %.3f", opt.peakUtil)
	r.check("solver placement feasible", "LGLS finds a sub-saturation assignment",
		opt.solvedUtil > 0 && opt.solvedUtil < 1.0, "predicted max util %.3f", opt.solvedUtil)
	r.check("optimizer beats greedy on max link utilization", "coordinated placement vs. herding",
		opt.peakUtil < greedy.peakUtil, "%.3f vs %.3f", opt.peakUtil, greedy.peakUtil)
	r.check("optimizer beats greedy on p99 OWD", "no queueing blowup under the same load",
		opt.combP99 > 0 && opt.combP99 < greedy.combP99,
		"%v vs %v", time.Duration(opt.combP99), time.Duration(greedy.combP99))
	r.check("optimized run delivers its load", "sub-saturation trunks drain every class",
		ratio(opt) >= 0.9, "delivered ratio %.3f", ratio(opt))
	r.check("both regimes saw the full tunnel fabric", "the comparison is over identical path sets",
		greedy.tunnels == opt.tunnels && greedy.tunnels == widePairs(sites)*2*16,
		"%d vs %d tunnels", greedy.tunnels, opt.tunnels)

	r.note("capacities derive from the demand matrix (scarce share %.2f on the fastest provider, "+
		"%.2f elsewhere; total 2.5x demand), so the comparison is scale-free: class cadence is "+
		"stretched %dx to stay near %d pps aggregate", e15ScarceShare, e15Share, greedy.slowdown, e15TargetPPS)
	r.VirtualTime = greedy.virtual + opt.virtual
	r.Metrics = opt.metrics
	// Both sub-runs' journals participate in the shard-invariance
	// comparison; the trace is consumed byte-wise, never parsed.
	r.Trace = greedy.trace + "\n" + opt.trace
	return r
}
