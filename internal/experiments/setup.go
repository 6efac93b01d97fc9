package experiments

import (
	"math"
	"strings"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/measure"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/topo"
	"tango/internal/workload"
)

// lab is a ready Tango deployment plus ground-truth bookkeeping the
// experiments use for reporting (the simulator knows the true clock
// offsets; the system under test does not).
type lab struct {
	S    *topo.MeshScenario
	Pair *core.Pair // the one NY (A) / LA (B) link
	// Reg/J observe the deployment for the whole run; snapshot folds the
	// final state into a Result for tango-lab to export.
	Reg *obs.Registry
	J   *obs.Journal
	// Chaos schedules the experiment's incidents on the trunks (targets
	// "trunk/la/<provider>" for NY->LA, "trunk/ny/<provider>" for the
	// reverse) and watches the network invariants throughout.
	Chaos *chaos.Engine
	// offNYtoLA is the constant added to raw OWDs measured at LA for
	// NY->LA traffic (receiver clock minus sender clock); offLAtoNY
	// the reverse.
	offNYtoLA time.Duration
	offLAtoNY time.Duration
	t0        time.Duration // virtual time when measurement started
}

type labOpts struct {
	seed          int64
	probeInterval time.Duration
	recordBucket  time.Duration
	decideEvery   time.Duration
	policyNY      control.Policy // LA keeps the pair default
	clockNY       time.Duration  // both zero: topo.VultrConfig's default skew
	clockLA       time.Duration
}

// The fixtures: every driver that stands up a deployment does it through
// deploy, and wiring that several drivers share is one helper below. A
// helper keeps the event order of the code it replaced; the digest pins
// depend on it.

// deploy stands Tango up on tc, panicking on error (every caller's
// config is fixed), and instruments every edge into a fresh registry and
// a journal holding journalCap records. Callers that also want the fault
// injector's metrics call d.Chaos.Instrument next, the order
// Deployment.Instrument uses.
func deploy(tc topo.MeshConfig, mc core.MeshConfig, journalCap int) (*core.Deployment, *obs.Registry, *obs.Journal) {
	d, err := core.Deploy(tc, mc)
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	j := obs.NewJournal(journalCap)
	d.Mesh.Instrument(reg, j)
	return d, reg, j
}

// newLab deploys Tango on the Vultr scenario (discovery, pinning,
// tunnels, measurement loop), instruments it, starts the invariant checks
// on a one-second cadence, and returns with probes flowing.
func newLab(o labOpts) *lab {
	d, reg, j := deploy(
		topo.VultrConfig(topo.ScenarioConfig{
			Seed:          o.seed,
			ClockOffsetNY: o.clockNY,
			ClockOffsetLA: o.clockLA,
		}),
		core.MeshConfig{
			ProbeInterval: o.probeInterval,
			RecordBucket:  o.recordBucket,
			DecideEvery:   o.decideEvery,
			NewPolicy: func(site, peer string) control.Policy {
				if site == "ny" {
					return o.policyNY
				}
				return nil
			},
		}, 1024)
	d.Chaos.Instrument(reg, j)
	d.Chaos.StartChecks(time.Second)
	p := d.Mesh.Pairs()[0]
	offNY, offLA := p.A.Spec.Edge.Node.Clock().Offset(), p.B.Spec.Edge.Node.Clock().Offset()
	return &lab{
		S:         d.Scenario,
		Pair:      p,
		Reg:       reg,
		J:         j,
		Chaos:     d.Chaos,
		offNYtoLA: offLA - offNY,
		offLAtoNY: offNY - offLA,
		t0:        d.Scenario.B.W.Now(),
	}
}

// snapshot folds the lab's final observability state into the result.
func (l *lab) snapshot(r *Result) { r.Metrics = l.Reg.Snapshot() }

// exportSeries adds the recorded NY->LA per-path OWD series to r, the
// data Figure 4 plots.
func (l *lab) exportSeries(r *Result) {
	for _, pm := range l.monLA().Paths() {
		if pm.Series != nil {
			r.Series["ny-la/"+pm.Name] = pm.Series
		}
	}
}

// trackCurrentOWD samples, every 100 ms from virtual time from on, the
// offset-corrected OWD estimate of whichever path NY's controller
// currently sends NY->LA traffic on.
func (l *lab) trackCurrentOWD(from time.Duration) *measure.Welford {
	acc := new(measure.Welford)
	ctl, mon := l.Pair.A.Controller, l.monLA()
	sim.NewTicker(l.S.B.Eng(), 100*time.Millisecond, func(sim.Time) {
		if l.S.B.W.Now() < from {
			return
		}
		if pm := mon.Path(ctl.Current()); pm != nil && pm.Est.Valid() {
			acc.Add(pm.Est.Value() - ms(l.offNYtoLA))
		}
	})
	return acc
}

// finish stamps r with the virtual time eng reached and the run's final
// metrics and trace.
func (r *Result) finish(eng *sim.Engine, reg *obs.Registry, j *obs.Journal) {
	r.VirtualTime = eng.Now()
	r.Metrics = reg.Snapshot()
	r.Trace = traceJSON(j)
}

// traceJSON renders the journal's full tail for byte-exact comparison.
func traceJSON(j *obs.Journal) string {
	var b strings.Builder
	if err := j.WriteJSON(&b, 0); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}

// mustHold is Result.invariantsHold for the ablations, which return bare
// numbers and have no Result to carry a check.
func (l *lab) mustHold() {
	l.Chaos.CheckNow()
	if vs := l.Chaos.Violations(); len(vs) > 0 {
		panic("experiments: invariant violated: " + vs[0].String())
	}
}

// run advances virtual time by d.
func (l *lab) run(d time.Duration) { l.S.Run(d) }

// now returns virtual time since measurement start.
func (l *lab) now() time.Duration { return l.S.B.W.Now() - l.t0 }

// monLA returns LA's monitor (NY->LA direction, the one Figure 4 plots).
func (l *lab) monLA() *control.Monitor { return l.Pair.B.Monitor }

// monNY returns NY's monitor (LA->NY direction).
func (l *lab) monNY() *control.Monitor { return l.Pair.A.Monitor }

// pathByName finds a monitored path by provider label.
func pathByName(m *control.Monitor, name string) *control.PathMonitor {
	for _, pm := range m.Paths() {
		if pm.Name == name {
			return pm
		}
	}
	return nil
}

// wideProbeInterval is the wide mesh's probe cadence: 10k tunnels probing
// at the paper's 10 ms would dominate the event budget, and the storm (or
// the data load), not the probe plane, is the load under test.
const wideProbeInterval = 100 * time.Millisecond

// wideSites resolves the scale E12, E13 and E15 share: the full 64-site
// mesh unless cfg.Sites says otherwise.
func (c Config) wideSites() int {
	if c.Sites == 0 {
		return 64
	}
	return c.Sites
}

// newWideMesh is the fixture E12, E13 and E15 run on: the wide-mesh
// scenario for seed (each experiment passes its own offset seed),
// converged, with every pair established under min-OWD controllers
// deciding at decideEvery (0 = never) and every edge instrumented into a
// fresh registry and journal. The fault injector is left to the caller:
// E12 and E13 instrument it and start its checks where their storm
// begins, E15 injects nothing and its metrics carry no chaos families.
func newWideMesh(seed int64, sites, shards int, decideEvery time.Duration) (
	*core.Deployment, *obs.Registry, *obs.Journal) {
	tc := topo.WideMeshConfig(seed, sites)
	tc.Shards = shards
	return deploy(tc, core.MeshConfig{
		ProbeInterval: wideProbeInterval,
		MaxRounds:     16, // discovery must walk all sixteen shared providers
		DecideEvery:   decideEvery,
		NewPolicy: func(site, peer string) control.Policy {
			return &control.MinOWD{HysteresisMs: 0.5, MinDwell: time.Second, StaleAfter: 2 * time.Second}
		},
	}, 4096)
}

// widePairs is how many pairs the wide mesh deploys at this many sites.
func widePairs(sites int) int { return len(topo.WideMeshConfig(0, sites).Pairs) }

// directions lists every deployed direction of s in pair order: each
// pair's (a, b), then its (b, a).
func directions(s *topo.MeshScenario) [][2]string {
	out := make([][2]string, 0, 2*len(s.PairKeys))
	for _, pk := range s.PairKeys {
		out = append(out, pk, [2]string{pk[1], pk[0]})
	}
	return out
}

// tunnelCount is how many tunnels d provisioned across every direction.
func tunnelCount(d *core.Deployment) int {
	n := 0
	for _, dir := range directions(d.Scenario) {
		n += len(d.Mesh.Member(dir[0], dir[1]).OutPaths)
	}
	return n
}

// appStream starts a 200 pkt/s stream of 64-byte packets from site's
// member facing peer to peer's member facing site. The generator ticks on
// the sender's engine and records fates on the receiver's — different
// partitions on a sharded network.
func appStream(m *core.Mesh, site, peer string) *workload.AppGen {
	sender, recv := m.Member(site, peer), m.Member(peer, site)
	src, err := sender.HostAddr()
	if err != nil {
		panic(err)
	}
	dst, err := recv.HostAddr()
	if err != nil {
		panic(err)
	}
	gen := workload.NewAppGen(sender.Eng(), sender.Switch, src, dst, 5*time.Millisecond, 64)
	recv.AddSink(gen.SinkFor(recv.Eng()))
	return gen
}

// stormLead is how long after wiring a storm's window opens.
const stormLead = 2 * time.Second

// storm instruments d's fault injector into reg and j, starts its checks
// on a one-second cadence, and draws one fault per site from rng over
// every registered target, opening stormLead from now and spread over
// window. It returns the faults' labels.
func storm(d *core.Deployment, reg *obs.Registry, j *obs.Journal, rng *sim.RNG, window time.Duration) []string {
	d.Chaos.Instrument(reg, j)
	d.Chaos.StartChecks(time.Second)
	return d.Chaos.ScheduleStorm(rng, chaos.StormConfig{
		Faults: len(d.Scenario.SiteNames),
		Start:  d.Scenario.B.Eng().Now() + stormLead,
		Window: window,
		MaxFor: 10 * time.Second,
	})
}

// flowEndpoint is one deployed direction of a flow fabric: the sending
// site's table and the endpoint it assigned.
type flowEndpoint struct {
	table *workload.FlowTable
	ep    int
}

// flowFabric gives each site one flow table of capacity(site) flows on
// its members' partition, instrumented into reg, and each deployed
// direction one endpoint, in directions order, sending host to host with
// receiver-side accounting on the receiving member's partition.
func flowFabric(d *core.Deployment, reg *obs.Registry, classes [workload.NumClasses]workload.ClassSpec,
	capacity func(site string) int) (map[string]*workload.FlowTable, []flowEndpoint) {
	s, m := d.Scenario, d.Mesh
	tables := make(map[string]*workload.FlowTable, len(s.SiteNames))
	for _, site := range s.SiteNames {
		t := workload.NewFlowTable(m.MembersOf(site)[0].Eng(), classes, capacity(site))
		t.Instrument(reg, site)
		tables[site] = t
	}
	var eps []flowEndpoint
	for _, dir := range directions(s) {
		sender, recv := m.Member(dir[0], dir[1]), m.Member(dir[1], dir[0])
		t := tables[dir[0]]
		if sender.Eng() != t.Eng() {
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
		eps = append(eps, flowEndpoint{t, t.AddEndpoint(sender.Switch, src, dst)})
		recv.AddSink(t.SinkFor(recv.Eng()))
	}
	return tables, eps
}

// stretchedClasses returns the default class mix with every interval
// slowed by the smallest whole factor, at least 1, that brings pps — the
// population's packet rate at real cadence — within budget, and the
// factor. Concurrency is untouched; only the per-flow cadence slows.
func stretchedClasses(pps, budget float64) ([workload.NumClasses]workload.ClassSpec, int64) {
	classes := workload.DefaultClasses()
	slowdown := max(1, int64(math.Ceil(pps/budget)))
	for c := range classes {
		classes[c].Interval *= time.Duration(slowdown)
	}
	return classes, slowdown
}

// flowTotals sums every site's per-class Sent and Delivered counters
// and gathers each class's OWD and in-order histograms, in site order.
func flowTotals(sites []string, tables map[string]*workload.FlowTable) (
	stats [workload.NumClasses]workload.FlowClassStats, owd, inOrder [workload.NumClasses][]*obs.Histogram) {
	for _, site := range sites {
		t := tables[site]
		for c := workload.Class(0); c < workload.NumClasses; c++ {
			cs := t.ClassStats(c)
			stats[c].Sent += cs.Sent
			stats[c].Delivered += cs.Delivered
			owd[c] = append(owd[c], t.OWDHistogram(c))
			inOrder[c] = append(inOrder[c], t.InOrderHistogram(c))
		}
	}
	return stats, owd, inOrder
}

// checkInvariants adds the check that the two invariants every
// deployment watches never failed on any of the engines, naming the first
// violation if one did.
func (r *Result) checkInvariants(name, paper string, chs ...*chaos.Engine) {
	watched := true
	var vs []chaos.Violation
	for _, ch := range chs {
		watched = watched && ch.Invariants() == 2
		vs = append(vs, ch.Violations()...)
	}
	r.check(name, paper, watched && len(vs) == 0,
		"%d violations (first: %s)", len(vs), firstViolation(vs))
}

// invariantsHold is the check every scripted-incident experiment ends
// with: conservation and buffer balance held on each run's network from
// establishment to now.
func (r *Result) invariantsHold(chs ...*chaos.Engine) {
	for _, ch := range chs {
		ch.CheckNow()
	}
	r.checkInvariants("invariants hold", "no packet or buffer unaccounted for", chs...)
}
