package experiments

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/topo"
)

// E11Failover measures failover behaviour end to end: a mesh carries a
// constant-rate application stream ny->chi while the chaos engine kills
// the active path twice — first a link failure on the provider trunk the
// traffic rides, then a BGP withdrawal of the path's pinned /48 — and
// the experiment reports the failover time (fault to controller switch),
// packets lost during convergence, and post-recovery OWD, with the chaos
// invariants (path evacuation, no data on a dead path, sequence
// consistency, packet conservation, buffer balance) watching throughout.
//
// Detection runs entirely on the paper's machinery: the receiver stops
// reporting a path that stops delivering (Reporter.MaxAge), the sender's
// estimate goes stale (MinOWD.StaleAfter), and the policy evacuates.
func E11Failover(cfg Config) *Result {
	r := newResult("E11", "Failover: link flap and BGP withdrawal mid-stream (§5/§6)")

	tc := topo.TriConfig(cfg.Seed + 11)
	tc.Shards = cfg.Shards
	// Convergence knobs, tightened from the defaults so the experiment's
	// bound is meaningful: report max-age 2 s (set by the pair from the
	// 100 ms report interval), estimate staleness 2 s, decisions every
	// 250 ms, 1 s dwell.
	const (
		staleAfter  = 2 * time.Second
		minDwell    = time.Second
		decideEvery = 250 * time.Millisecond
		reportAge   = 2 * time.Second // Reporter.MaxAge floor in core
	)
	d, reg, journal := deploy(tc, core.MeshConfig{
		ProbeInterval: probeInterval,
		DecideEvery:   decideEvery,
		NewPolicy: func(site, peer string) control.Policy {
			return &control.MinOWD{HysteresisMs: 0.5, MinDwell: minDwell, StaleAfter: staleAfter}
		},
	}, 1024)
	s, m, ch := d.Scenario, d.Mesh, d.Chaos
	eng := s.B.Eng()
	ch.Instrument(reg, journal)

	sender := m.Member("ny", "chi")
	recv := m.Member("chi", "ny")
	r.check("ny->chi exposes two paths", "NY and CHI share NTT and Telia",
		len(sender.OutPaths) == 2, "%d path(s)", len(sender.OutPaths))

	// The application stream under test: ny->chi with ground-truth fates
	// recorded at chi.
	gen := appStream(m, "ny", "chi")

	// Worst-case detection chain: up to reportAge of zombie reports,
	// staleAfter until the estimate is discarded, one decision tick —
	// dwell cannot block an evacuation (a stale current path bypasses
	// it), but keep a margin for it.
	grace := reportAge + staleAfter + decideEvery + minDwell // 5.25 s
	// Every provider trunk already is a fault target; chi's edge speaker
	// joins them for the withdrawal.
	chiEdge := d.EdgeTarget("chi", "ny")

	lineFor := map[uint8]*simnet.Line{}
	trunkFor := map[uint8]string{} // the same lines as fault targets
	for i := range sender.OutPaths {
		id := uint8(i + 1)
		pl, err := d.PathLines("ny", "chi", id)
		if err != nil {
			panic(err) // every tri path rides a scenario provider
		}
		lineFor[id] = pl.Down
		trunkFor[id] = core.TrunkTarget("chi", pl.Provider)
	}
	ch.Watch(chaos.PathEvacuation("ny->chi", sender.Controller, lineFor, grace))
	ch.Watch(chaos.NoDataOnDeadPath("ny->chi", sender.Switch, lineFor, grace))
	ch.Watch(chaos.SeqConsistency("chi<-ny", recv.Monitor, sender.Switch))
	ch.StartChecks(250 * time.Millisecond)

	type switchEv struct {
		at       sim.Time
		from, to uint8
	}
	var switches []switchEv
	sender.Controller.OnSwitch = func(at sim.Time, from, to uint8) {
		switches = append(switches, switchEv{at, from, to})
	}
	firstSwitchAfter := func(t sim.Time) (switchEv, bool) {
		for _, ev := range switches {
			if ev.at >= t {
				return ev, true
			}
		}
		return switchEv{}, false
	}

	// Phase bookkeeping: windows are closed during the run and scored
	// from the generator's final records afterwards.
	type span struct {
		label    string
		from, to sim.Time
		cur      uint8
	}
	var spans []span
	mark := func(label string, from sim.Time) {
		spans = append(spans, span{label: label, from: from, to: eng.Now(),
			cur: sender.Controller.Current()})
	}

	window := cfg.dur(30 * time.Second)
	const faultFor = 45 * time.Second
	const lead = 2 * time.Second

	// Baseline.
	t0 := eng.Now()
	s.Run(window)
	mark("baseline", t0)
	orig := sender.Controller.Current()
	origProv := sender.PathName(orig)

	// Fault 1: the trunk carrying the active path toward chi goes down.
	linkFaultAt := eng.Now() + sim.Time(lead)
	ch.Schedule(chaos.LinkDown(trunkFor[orig], linkFaultAt, faultFor))
	s.Run(lead + faultFor)
	mark("link-down "+origProv, linkFaultAt)
	s.Run(15 * time.Second) // revert lands; estimates refresh; switch back
	rec1 := eng.Now()
	s.Run(window)
	mark("recovered", rec1)

	// Fault 2: the pinned /48 of the (again-)active path is withdrawn at
	// chi; the endpoint vanishes from the global table and packets die in
	// the core instead of at a link.
	cur2 := sender.Controller.Current()
	pfx, err := recv.PinnedPrefix(cur2)
	if err != nil {
		panic(err)
	}
	bgpFaultAt := eng.Now() + sim.Time(lead)
	ch.Schedule(chaos.Withdrawal{Speaker: chiEdge, Prefix: pfx, At: bgpFaultAt, For: faultFor})
	s.Run(lead + faultFor)
	mark(fmt.Sprintf("withdraw path %d", cur2), bgpFaultAt)
	s.Run(20 * time.Second) // re-announcement propagates; switch back
	rec2 := eng.Now()
	s.Run(window)
	mark("recovered(bgp)", rec2)

	// Drain: everything sent is now delivered or definitively lost.
	gen.Stop()
	ch.StopChecks()
	s.Run(2 * time.Second)
	recs := gen.FinalRecords()

	stat := func(from, to sim.Time) (sent, lost int, meanMs float64) {
		var sum time.Duration
		var n int
		for _, rec := range recs {
			if rec.SentAt < from || rec.SentAt >= to {
				continue
			}
			sent++
			if rec.RecvAt == 0 {
				lost++
				continue
			}
			sum += rec.Latency
			n++
		}
		if n > 0 {
			meanMs = ms(sum) / float64(n)
		}
		return sent, lost, meanMs
	}

	r.Rows = append(r.Rows, []string{"phase", "sent", "lost", "mean OWD (ms)", "path after"})
	for _, sp := range spans {
		sent, lost, mean := stat(sp.from, sp.to)
		r.Rows = append(r.Rows, []string{sp.label, fmt.Sprint(sent), fmt.Sprint(lost),
			fmt.Sprintf("%.2f", mean), sender.PathName(sp.cur)})
	}

	_, baseLost, baseOWD := stat(t0, t0+sim.Time(window))

	// Link-down failover: fault instant to the controller's switch.
	ev1, ok1 := firstSwitchAfter(linkFaultAt)
	fail1 := time.Duration(ev1.at - linkFaultAt)
	r.check("controller evacuates the downed path", "stale estimate forces a switch",
		ok1 && ev1.from == orig && fail1 <= grace, "failover %v (bound %v)", fail1, grace)

	// Loss is confined to the convergence window: packets die between
	// the fault and the switch (plus what was in flight), then the new
	// path carries everything until the revert.
	_, lostConv, _ := stat(linkFaultAt, ev1.at+sim.Time(500*time.Millisecond))
	_, lostAfter, _ := stat(ev1.at+sim.Time(500*time.Millisecond), linkFaultAt+sim.Time(faultFor))
	r.check("packets lost only during convergence", "loss window = detection delay",
		lostConv > 0 && lostAfter == 0, "%d lost converging, %d after", lostConv, lostAfter)

	_, rec1Lost, rec1OWD := stat(rec1, rec1+sim.Time(window))
	r.check("post-recovery OWD matches baseline", "path restored, delay restored",
		within(rec1OWD-baseOWD, -1.0, 1.0) && rec1Lost == baseLost,
		"%.2f ms vs baseline %.2f ms", rec1OWD, baseOWD)
	r.check("traffic returns to the pre-fault path", "hysteresis re-admits the faster path",
		spans[2].cur == orig, "on %s", sender.PathName(spans[2].cur))

	// BGP withdrawal failover. Propagation of the withdrawal to chi's
	// POP rides one MRAI hop, so allow it on top of the grace bound.
	ev2, ok2 := firstSwitchAfter(bgpFaultAt)
	fail2 := time.Duration(ev2.at - bgpFaultAt)
	bgpBound := grace + 2*time.Second
	r.check("withdrawal evacuated like a link failure", "control-plane death, data-plane symptom",
		ok2 && ev2.from == cur2 && fail2 <= bgpBound, "failover %v (bound %v)", fail2, bgpBound)

	_, rec2Lost, rec2OWD := stat(rec2, rec2+sim.Time(window))
	r.check("re-announcement restores the path", "OWD and loss back to baseline",
		within(rec2OWD-baseOWD, -1.0, 1.0) && rec2Lost == baseLost,
		"%.2f ms vs baseline %.2f ms, lost %d", rec2OWD, baseOWD, rec2Lost)

	vs := ch.Violations()
	r.check("all chaos invariants held", "zero violations across both faults",
		ch.Invariants() >= 4 && len(vs) == 0, "%d invariants, %d violations (first: %s)",
		ch.Invariants(), len(vs), firstViolation(vs))

	r.note("failover is pure measurement-plane detection: reports stop (max-age %v), "+
		"the estimate goes stale (%v), and MinOWD abandons the path — no link-state signal",
		reportAge, staleAfter)
	r.finish(eng, reg, journal)
	return r
}

func firstViolation(vs []chaos.Violation) string {
	if len(vs) == 0 {
		return "none"
	}
	return vs[0].String()
}
