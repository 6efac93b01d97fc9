package experiments

import (
	"strings"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/topo"
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
	shards        int // 0 = classic single-engine network
	probeInterval time.Duration
	recordBucket  time.Duration
	decideEvery   time.Duration
	policyNY      control.Policy // LA keeps the pair default
	clockNY       time.Duration
	clockLA       time.Duration
}

// newLab deploys Tango on the Vultr scenario (discovery, pinning,
// tunnels, measurement loop), instruments it, starts the invariant checks
// on a one-second cadence, and returns with probes flowing.
func newLab(o labOpts) *lab {
	if o.clockNY == 0 && o.clockLA == 0 {
		o.clockNY, o.clockLA = 1700*time.Millisecond, -900*time.Millisecond
	}
	d, err := core.Deploy(
		topo.VultrConfig(topo.ScenarioConfig{
			Seed:          o.seed,
			Shards:        o.shards,
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
		})
	if err != nil {
		panic(err) // fixed config; cannot fail
	}
	reg := obs.NewRegistry()
	j := obs.NewJournal(1024)
	d.Instrument(reg, j)
	d.Chaos.StartChecks(time.Second)
	enterParallel(d.Scenario.B.Eng())
	return &lab{
		S:         d.Scenario,
		Pair:      d.Mesh.Pairs()[0],
		Reg:       reg,
		J:         j,
		Chaos:     d.Chaos,
		offNYtoLA: o.clockLA - o.clockNY,
		offLAtoNY: o.clockNY - o.clockLA,
		t0:        d.Scenario.B.W.Now(),
	}
}

// snapshot folds the lab's final observability state into the result.
func (l *lab) snapshot(r *Result) { r.Metrics = deterministicSnapshot(l.Reg) }

// mustHold is Result.invariantsHold for the ablations, which return bare
// numbers and have no Result to carry a check.
func (l *lab) mustHold() {
	l.Chaos.CheckNow()
	if vs := l.Chaos.Violations(); len(vs) > 0 {
		panic("experiments: invariant violated: " + vs[0].String())
	}
}

// wallClockFamilies are the instrument families measuring host wall-clock
// latency. Their values vary run to run even with a fixed seed, so
// experiment snapshots drop them: seeded Results stay deeply equal (the
// parallel runner's contract) and metrics.json stays reproducible. The
// event counts they would carry are duplicated by the corresponding
// _total counters.
var wallClockFamilies = []string{
	"tango_dataplane_encap_ns",
	"tango_dataplane_decap_ns",
	"tango_controller_decide_ns",
}

// deterministicSnapshot returns reg's snapshot minus wall-clock families.
func deterministicSnapshot(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	for k := range snap {
		for _, fam := range wallClockFamilies {
			if strings.HasPrefix(k, fam) {
				delete(snap, k)
				break
			}
		}
	}
	return snap
}

// run advances virtual time by d.
func (l *lab) run(d time.Duration) { l.S.Run(d) }

// now returns virtual time since measurement start.
func (l *lab) now() time.Duration { return l.S.B.W.Now() - l.t0 }

// trueMeanOWD returns the offset-corrected mean OWD (ms) for a monitored
// path. mon must be the receiving site's monitor and off that direction's
// clock-offset (receiver minus sender).
func trueMean(pm *control.PathMonitor, off time.Duration) float64 {
	return pm.OWD.Mean() - ms(off)
}

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

// wideScale resolves the knobs E12, E13 and E15 share: the full 64-site
// mesh and one shard worker.
func (c Config) wideScale() (sites, shards int) {
	sites, shards = c.Sites, c.Shards
	if sites == 0 {
		sites = 64
	}
	if shards == 0 {
		shards = 1
	}
	return sites, shards
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
	d, err := core.Deploy(tc, core.MeshConfig{
		ProbeInterval: wideProbeInterval,
		MaxRounds:     16, // discovery must walk all sixteen shared providers
		DecideEvery:   decideEvery,
		NewPolicy: func(site, peer string) control.Policy {
			return &control.MinOWD{HysteresisMs: 0.5, MinDwell: time.Second, StaleAfter: 2 * time.Second}
		},
	})
	if err != nil {
		panic(err) // fixed config; cannot fail
	}
	reg := obs.NewRegistry()
	journal := obs.NewJournal(4096)
	d.InstrumentEdges(reg, journal)
	return d, reg, journal
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
