package experiments

import (
	"fmt"
	"time"

	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/workload"
)

// e13TargetPPS bounds the aggregate emission rate of the flow
// population. One million concurrent flows at real per-class rates
// would emit ~58M packets per virtual second — far beyond any event
// budget — so E13 stretches every class interval by one common factor
// until the aggregate lands near this budget. Concurrency (what the
// flyweight table is for) is unchanged: all flows stay live the whole
// window; only the per-flow cadence slows.
const e13TargetPPS = 50_000

// e13AvgPPSPerFlow is the mean per-flow packet rate of the default
// class mix at real cadence (VoIP 50/s, video 100/s, bulk 25/s,
// uniformly mixed).
const e13AvgPPSPerFlow = 58

// E13FlowStorm is the edge-scale workload experiment the flyweight flow
// table exists for (§4.2's scalability claim made measurable): one
// million concurrent flows — VoIP, video, and bulk classes, spread over
// every pair of the E12 wide mesh — ride out a path-failure storm while
// per-class SLOs are checked straight from the obs histograms. A
// flash-crowd arrival process churns extra short-lived flows through
// one site's table mid-storm. Each site owns one flow table on its own
// partition (sender-side emit on the owner engine, receiver-side
// accounting in the receiving partition's sink), so the run honors
// cfg.Shards and the shard-invariance differential covers it.
func E13FlowStorm(cfg Config) *Result {
	r := newResult("E13", "1M concurrent flows ride out a path-failure storm (§4.2 at edge scale)")

	sites := cfg.wideSites()
	flows := cfg.Flows
	if flows == 0 {
		flows = 1_000_000
	}
	// One endpoint per deployed direction, each carrying an equal share
	// of the standing population.
	endpoints := 2 * widePairs(sites)
	if endpoints == 0 || flows < endpoints {
		r.Err = fmt.Sprintf("E13 needs a flow per endpoint: %d flows over the %d endpoints of a %d-site mesh",
			flows, endpoints, sites)
		return r
	}
	perEp := flows / endpoints
	standing := perEp * endpoints
	d, reg, journal := newWideMesh(cfg.Seed+13, sites, cfg.Shards, time.Second)
	s, eng := d.Scenario, d.Scenario.B.Eng()

	// Stretch the class cadence so the whole population emits near the
	// packet budget, keeping concurrency (the thing under test) intact.
	classes, slowdown := stretchedClasses(float64(flows)*e13AvgPPSPerFlow, e13TargetPPS)

	window := cfg.dur(30 * time.Second)
	stopAt := stormLead + window

	// The flash site's table gets slack beyond the standing population
	// for the arrival churn (the fluid generator's exact integral bounds
	// it).
	flashSite := s.SiteNames[0]
	arrivalSlack := int(20*stopAt.Seconds()+40*window.Seconds()) + 64
	tables, eps := flowFabric(d, reg, classes, func(site string) int {
		capacity := perEp * len(d.Mesh.MembersOf(site))
		if site == flashSite {
			capacity += arrivalSlack
		}
		return capacity
	})

	// The standing population: perEp flows per endpoint, class mix
	// round-robin, start staggers arithmetically spread across each
	// class interval so wheel buckets fill evenly. Lifetimes are
	// effectively infinite — these flows stay concurrent all run.
	for _, fe := range eps {
		for k := 0; k < perEp; k++ {
			c := workload.Class(k % workload.NumClasses)
			iv := classes[c].Interval
			stagger := time.Duration(int64(k)) * iv / time.Duration(perEp)
			if fe.table.Start(fe.ep, c, 1<<31, stagger) < 0 {
				panic("experiments: standing flow refused below capacity")
			}
		}
	}
	active := 0
	for _, t := range tables {
		active += t.Active()
	}
	r.check("standing flow population live", "the table holds the whole population concurrently",
		active == standing, "%d concurrent flows across %d sites", active, len(tables))

	// Chaos over the whole deployment, exactly E12's storm shape.
	labels := storm(d, reg, journal, sim.NewStreams(cfg.Seed+13).Stream("e13/storm"), window)
	ch := d.Chaos

	// A flash crowd churns short-lived flows through the first site's
	// table while the storm runs: arrivals spike 5x mid-window.
	flashTable := tables[flashSite]
	arr := flashTable.StartArrivals(
		sim.NewStreams(cfg.Seed+13).Stream("e13/arrivals"),
		workload.ArrivalConfig{
			Rate:        20,
			Emits:       4,
			FlashAt:     eng.Now() + stormLead + window/4,
			FlashFor:    window / 2,
			FlashFactor: 5,
		})

	// Emission stops at the end of the storm window. Each stop runs on
	// its table's owner engine, and each capture writes a distinct slice
	// element, so the parallel partitions never touch shared state; the
	// remaining run time drains in-flight packets and lets chaos reverts
	// land.
	activeAtStop := make([]int, len(s.SiteNames))
	for i, site := range s.SiteNames {
		i, t := i, tables[site]
		t.Eng().Schedule(stopAt, func() {
			activeAtStop[i] = t.Active()
			t.Stop()
		})
	}
	flashTable.Eng().Schedule(stopAt, arr.Stop)

	s.Run(stopAt + 10*time.Second)
	ch.StopChecks()
	s.Run(2 * time.Second)

	// Aggregate per-class counters and histograms across every site.
	stats, owdH, inH := flowTotals(s.SiteNames, tables)
	var ratio [workload.NumClasses]float64
	for c, cs := range stats {
		if cs.Sent > 0 {
			ratio[c] = float64(cs.Delivered) / float64(cs.Sent)
		}
	}
	peak, stillActive := 0, 0
	for i, site := range s.SiteNames {
		peak += tables[site].Peak()
		stillActive += activeAtStop[i]
	}

	r.Rows = append(r.Rows, []string{"quantity", "value"})
	for _, row := range [][2]string{
		{"sites", fmt.Sprint(sites)},
		{"pairs", fmt.Sprint(len(s.PairKeys))},
		{"standing flows", fmt.Sprint(standing)},
		{"flash arrivals", fmt.Sprint(arr.Started)},
		{"peak concurrent", fmt.Sprint(peak)},
		{"interval slowdown", fmt.Sprint(slowdown)},
		{"storm faults", fmt.Sprint(len(labels))},
	} {
		r.Rows = append(r.Rows, []string{row[0], row[1]})
	}
	for c := workload.Class(0); c < workload.NumClasses; c++ {
		r.Rows = append(r.Rows, []string{c.String() + " sent/delivered",
			fmt.Sprintf("%d/%d (%.1f%%)", stats[c].Sent, stats[c].Delivered, ratio[c]*100)})
		r.Rows = append(r.Rows, []string{c.String() + " p99 OWD",
			time.Duration(obs.Quantile(0.99, owdH[c]...)).String()})
		r.Rows = append(r.Rows, []string{c.String() + " p99 in-order",
			time.Duration(obs.Quantile(0.99, inH[c]...)).String()})
	}

	r.check("population survived to the stop line", "flows stay concurrent through the storm",
		stillActive >= standing, "%d active at stop (standing %d)", stillActive, standing)
	r.check("flash crowd churned arrivals", "diurnal/flash generator drives extra flows",
		arr.Started > 0 && arr.Refused == 0, "%d started, %d refused", arr.Started, arr.Refused)

	// Per-class SLOs from the obs layer. The delivery bar mirrors E12's
	// storm criterion; the latency bars are generous 2x-bucket bounds on
	// healthy wide-mesh OWD (failover keeps the population off dead
	// paths for most of the window).
	voipP99 := obs.Quantile(0.99, owdH[workload.ClassVoIP]...)
	r.check("VoIP SLO: p99 OWD under 250ms", "jitter-sensitive class stays interactive (§5)",
		stats[workload.ClassVoIP].Delivered > 0 && voipP99 <= int64(250*time.Millisecond),
		"p99 %v over %d deliveries", time.Duration(voipP99), stats[workload.ClassVoIP].Delivered)
	videoP99 := obs.Quantile(0.99, inH[workload.ClassVideo]...)
	r.check("video SLO: p99 in-order under 1s", "HoL blocking stays bounded (§5)",
		stats[workload.ClassVideo].Delivered > 0 && videoP99 <= int64(time.Second),
		"p99 in-order %v", time.Duration(videoP99))
	for c := workload.Class(0); c < workload.NumClasses; c++ {
		r.check(c.String()+" SLO: delivery through the storm", "failover keeps each class delivering",
			stats[c].Sent > 0 && ratio[c] >= 0.5,
			"%d/%d delivered (%.0f%%)", stats[c].Delivered, stats[c].Sent, ratio[c]*100)
	}

	r.check("storm drew its full fault schedule", "seeded draw over every trunk",
		len(labels) == sites, "%d faults", len(labels))
	r.checkInvariants("conservation held through the storm", "no packet leaked or double-counted", ch)

	r.note("class cadence is stretched %dx so %d concurrent flows emit ~%d pps aggregate; "+
		"concurrency, arrival churn, and per-packet accounting run at full scale",
		slowdown, standing, e13TargetPPS)
	r.finish(eng, reg, journal)
	return r
}
