package experiments

import (
	"fmt"
	"math"
	"time"

	"tango/internal/chaos"
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

	sites, shards := cfg.wideScale()
	flows := cfg.Flows
	if flows == 0 {
		flows = 1_000_000
	}
	d, reg, journal := newWideMesh(cfg.Seed+13, sites, shards, time.Second)
	s, m, eng := d.Scenario, d.Mesh, d.Scenario.B.Eng()

	// Stretch the class cadence so the whole population emits near the
	// packet budget, keeping concurrency (the thing under test) intact.
	slowdown := int64(1)
	if sd := int64(math.Ceil(float64(flows) * e13AvgPPSPerFlow / e13TargetPPS)); sd > 1 {
		slowdown = sd
	}
	classes := workload.DefaultClasses()
	for c := range classes {
		classes[c].Interval *= time.Duration(slowdown)
	}

	window := cfg.dur(30 * time.Second)
	stopAt := 2*time.Second + window

	// One flow table per site, owned by that site's partition; one
	// endpoint per member pair, sending host-to-host like E12's app
	// stream; the sink lands on the receiving member's partition. The
	// flash site's table gets slack beyond the standing population for
	// the arrival churn (the fluid generator's exact integral bounds it).
	endpoints := 2 * len(s.PairKeys)
	perEp := flows / endpoints
	standing := perEp * endpoints
	flashSite := s.SiteNames[0]
	arrivalSlack := int(20*stopAt.Seconds()+40*window.Seconds()) + 64
	tables := make(map[string]*workload.FlowTable, len(s.SiteNames))
	for _, site := range s.SiteNames {
		members := m.MembersOf(site)
		capacity := perEp * len(members)
		if site == flashSite {
			capacity += arrivalSlack
		}
		t := workload.NewFlowTable(members[0].Eng(), classes, capacity)
		t.Instrument(reg, site)
		tables[site] = t
	}
	type boundEp struct {
		table *workload.FlowTable
		ep    int
	}
	var eps []boundEp
	wire := func(site, peer string) {
		sender := m.Member(site, peer)
		recv := m.Member(peer, site)
		if sender.Eng() != tables[site].Eng() {
			panic("experiments: site members span partitions; flow table ownership broken")
		}
		src, err := sender.HostAddr()
		if err != nil {
			panic(err)
		}
		dst, err := recv.HostAddr()
		if err != nil {
			panic(err)
		}
		ep := tables[site].AddEndpoint(sender.Switch, src, dst)
		recv.AddSink(tables[site].SinkFor(recv.Eng()))
		eps = append(eps, boundEp{tables[site], ep})
	}
	for _, pk := range s.PairKeys {
		wire(pk[0], pk[1])
		wire(pk[1], pk[0])
	}

	// The standing population: perEp flows per endpoint, class mix
	// round-robin, start staggers arithmetically spread across each
	// class interval so wheel buckets fill evenly. Lifetimes are
	// effectively infinite — these flows stay concurrent all run.
	for _, be := range eps {
		for k := 0; k < perEp; k++ {
			c := workload.Class(k % workload.NumClasses)
			iv := classes[c].Interval
			stagger := time.Duration(int64(k)) * iv / time.Duration(perEp)
			if be.table.Start(be.ep, c, 1<<31, stagger) < 0 {
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
	ch := d.Chaos
	ch.Instrument(reg, journal)
	ch.StartChecks(time.Second)

	rng := sim.NewStreams(cfg.Seed + 13).Stream("e13/storm")
	labels := ch.ScheduleStorm(rng, chaos.StormConfig{
		Faults: sites,
		Start:  eng.Now() + sim.Time(2*time.Second),
		Window: window,
		MaxFor: 10 * time.Second,
	})

	// A flash crowd churns short-lived flows through the first site's
	// table while the storm runs: arrivals spike 5x mid-window.
	flashTable := tables[flashSite]
	arr := flashTable.StartArrivals(
		sim.NewStreams(cfg.Seed+13).Stream("e13/arrivals"),
		workload.ArrivalConfig{
			Rate:        20,
			Emits:       4,
			FlashAt:     eng.Now() + sim.Time(2*time.Second) + sim.Time(window/4),
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

	enterParallel(eng)
	s.Run(stopAt + 10*time.Second)
	ch.StopChecks()
	s.Run(2 * time.Second)

	// Aggregate per-class counters and histograms across every site.
	var stats [workload.NumClasses]workload.FlowClassStats
	var owdH, inH [workload.NumClasses][]*obs.Histogram
	peak, stillActive := 0, 0
	for i, site := range s.SiteNames {
		t := tables[site]
		peak += t.Peak()
		stillActive += activeAtStop[i]
		for c := workload.Class(0); c < workload.NumClasses; c++ {
			cs := t.ClassStats(c)
			stats[c].Sent += cs.Sent
			stats[c].Delivered += cs.Delivered
			stats[c].Dups += cs.Dups
			stats[c].Gaps += cs.Gaps
			stats[c].Refused += cs.Refused
			owdH[c] = append(owdH[c], t.OWDHistogram(c))
			inH[c] = append(inH[c], t.InOrderHistogram(c))
		}
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
		ratio := 0.0
		if stats[c].Sent > 0 {
			ratio = float64(stats[c].Delivered) / float64(stats[c].Sent)
		}
		r.Rows = append(r.Rows, []string{c.String() + " sent/delivered",
			fmt.Sprintf("%d/%d (%.1f%%)", stats[c].Sent, stats[c].Delivered, ratio*100)})
		r.Rows = append(r.Rows, []string{c.String() + " p99 OWD",
			time.Duration(combinedQuantile(owdH[c], 0.99)).String()})
		r.Rows = append(r.Rows, []string{c.String() + " p99 in-order",
			time.Duration(combinedQuantile(inH[c], 0.99)).String()})
	}

	r.check("population survived to the stop line", "flows stay concurrent through the storm",
		stillActive >= standing, "%d active at stop (standing %d)", stillActive, standing)
	r.check("flash crowd churned arrivals", "diurnal/flash generator drives extra flows",
		arr.Started > 0 && arr.Refused == 0, "%d started, %d refused", arr.Started, arr.Refused)

	// Per-class SLOs from the obs layer. The delivery bar mirrors E12's
	// storm criterion; the latency bars are generous 2x-bucket bounds on
	// healthy wide-mesh OWD (failover keeps the population off dead
	// paths for most of the window).
	voipP99 := combinedQuantile(owdH[workload.ClassVoIP], 0.99)
	r.check("VoIP SLO: p99 OWD under 250ms", "jitter-sensitive class stays interactive (§5)",
		stats[workload.ClassVoIP].Delivered > 0 && voipP99 <= int64(250*time.Millisecond),
		"p99 %v over %d deliveries", time.Duration(voipP99), stats[workload.ClassVoIP].Delivered)
	videoP99 := combinedQuantile(inH[workload.ClassVideo], 0.99)
	r.check("video SLO: p99 in-order under 1s", "HoL blocking stays bounded (§5)",
		stats[workload.ClassVideo].Delivered > 0 && videoP99 <= int64(time.Second),
		"p99 in-order %v", time.Duration(videoP99))
	for c := workload.Class(0); c < workload.NumClasses; c++ {
		ratio := 0.0
		if stats[c].Sent > 0 {
			ratio = float64(stats[c].Delivered) / float64(stats[c].Sent)
		}
		r.check(c.String()+" SLO: delivery through the storm", "failover keeps each class delivering",
			stats[c].Sent > 0 && ratio >= 0.5,
			"%d/%d delivered (%.0f%%)", stats[c].Delivered, stats[c].Sent, ratio*100)
	}

	r.check("storm drew its full fault schedule", "seeded draw over every trunk",
		len(labels) == sites, "%d faults", len(labels))
	r.checkInvariants("conservation held through the storm", "no packet leaked or double-counted", ch)

	r.note("class cadence is stretched %dx so %d concurrent flows emit ~%d pps aggregate; "+
		"concurrency, arrival churn, and per-packet accounting run at full scale",
		slowdown, standing, e13TargetPPS)
	r.VirtualTime = time.Duration(eng.Now())
	r.Metrics = deterministicSnapshot(reg)
	r.Trace = traceJSON(journal)
	return r
}

// combinedQuantile computes the q-quantile upper bound over the union
// of several histograms (summing per-bucket counts, exactly Histogram.
// Quantile's rule over the merged distribution).
func combinedQuantile(hs []*obs.Histogram, q float64) int64 {
	var total uint64
	for _, h := range hs {
		total += h.Count()
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < obs.NumBuckets; i++ {
		for _, h := range hs {
			cum += h.Bucket(i)
		}
		if cum >= need {
			return obs.BucketUpperBound(i)
		}
	}
	return math.MaxInt64
}
