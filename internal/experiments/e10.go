package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/packet"
	"tango/internal/topo"
)

// E10MeshOverlay exercises §6's "from Tango of 2 to Tango of N": three
// sites deploy Tango pairwise, and the mesh composes the pairs into an
// overlay. NY and LA share only NTT, so their direct pair exposes one
// path and has nothing to steer between; CHI shares a fast provider with
// each. When NTT's internal route toward LA degrades, the direct pair
// must ride it out while the composite table shifts the best ny->la
// route onto the relay through CHI — verified against ground-truth
// delivery latency, not just the table's own scores.
func E10MeshOverlay(cfg Config) *Result {
	r := newResult("E10", "Mesh overlay routes around a shared-provider incident (§6)")

	tc := topo.TriConfig(cfg.Seed + 10)
	tc.Shards = cfg.Shards
	d, reg, journal := deploy(tc, core.MeshConfig{
		ProbeInterval: probeInterval,
		DecideEvery:   time.Second,
	}, 1024)
	s, m, ch := d.Scenario, d.Mesh, d.Chaos
	ch.Instrument(reg, journal)
	ch.StartChecks(time.Second)

	// The motivating asymmetry: the direct pair has no path diversity.
	direct := m.Member("ny", "la")
	r.check("direct ny<->la pair exposes a single path", "NY and LA share only NTT",
		len(direct.OutPaths) == 1 && direct.OutPaths[0].ProviderName == "NTT",
		"%d path(s)", len(direct.OutPaths))

	s.Run(time.Minute) // probes feed every segment estimate
	routes := m.Routes("ny", "la")
	var haveRelay bool
	for _, rt := range routes {
		if !rt.Direct() && len(rt.Via) == 1 && rt.Via[0] == "chi" {
			haveRelay = rt.Valid
		}
	}
	r.check("composite table scores a relayed route", "pairwise deployments compose",
		haveRelay, "routes: %v", routes)

	// Ground-truth latency per route: stamped app packets down both
	// routes, fates recorded at LA in engine time. The sink runs on LA's
	// partition engine, so it reads LA's clock; the bookkeeping maps are
	// written by this goroutine only between runs and by LA's events only
	// during runs, so they never see concurrent writers.
	const dport = 9700
	eng := s.B.Eng()
	laEng := m.Member("la", "ny").Eng()
	sentAt := map[uint32]time.Duration{}
	viaRelay := map[uint32]bool{}
	type win struct {
		sum time.Duration
		n   int
	}
	var directW, relayW win
	m.AddSink("la", func(inner []byte) bool {
		port, pay, ok := packet.UDP6(inner)
		if !ok || port != dport || len(pay) < 4 {
			return false
		}
		seq := binary.BigEndian.Uint32(pay)
		t0, ok := sentAt[seq]
		if !ok {
			return false
		}
		delete(sentAt, seq)
		lat := time.Duration(laEng.Now()) - t0
		if viaRelay[seq] {
			relayW.sum += lat
			relayW.n++
		} else {
			directW.sum += lat
			directW.n++
		}
		delete(viaRelay, seq)
		return true
	})
	var seq uint32
	sample := func(dur time.Duration) (directMs, relayMs float64, best control.CompositeRoute) {
		directW, relayW = win{}, win{}
		end := time.Duration(eng.Now()) + dur
		for time.Duration(eng.Now()) < end {
			for _, rt := range m.Routes("ny", "la") {
				sentAt[seq] = time.Duration(eng.Now())
				viaRelay[seq] = !rt.Direct()
				pay := make([]byte, 4)
				binary.BigEndian.PutUint32(pay, seq)
				if err := m.SendAlong(rt, dport, dport, pay); err != nil {
					panic(err)
				}
				seq++
			}
			s.Run(50 * time.Millisecond)
		}
		best, _ = m.Best("ny", "la")
		return ms(directW.sum) / float64(directW.n), ms(relayW.sum) / float64(relayW.n), best
	}

	// Incident: +8 ms on NTT's trunk toward LA — the direct pair's only
	// path degrades; the relay's GTT segment into LA is untouched.
	window := cfg.dur(2 * time.Minute)
	shift := 8 * time.Millisecond
	dBefore, rBefore, bestBefore := sample(window)
	ch.Schedule(chaos.RouteShift("trunk/la/NTT", eng.Now()+30*time.Second, window+2*time.Minute, shift, 20*time.Second)...)
	s.Run(90 * time.Second) // shift lands and estimates settle
	dDuring, rDuring, bestDuring := sample(window)
	s.Run(3 * time.Minute) // shift reverts and estimates settle
	dAfter, rAfter, bestAfter := sample(window)

	r.Rows = append(r.Rows, []string{"phase", "direct (ms)", "via chi (ms)", "best route"})
	for _, row := range []struct {
		label string
		d, rl float64
		best  control.CompositeRoute
	}{
		{"before", dBefore, rBefore, bestBefore},
		{"during +8ms NTT", dDuring, rDuring, bestDuring},
		{"after", dAfter, rAfter, bestAfter},
	} {
		r.Rows = append(r.Rows, []string{row.label,
			fmt.Sprintf("%.2f", row.d), fmt.Sprintf("%.2f", row.rl),
			routeLabel(row.best)})
	}

	r.check("direct route best before the incident", "relaying costs two segments",
		bestBefore.Direct() && dBefore < rBefore, "direct %.2f ms vs relay %.2f ms", dBefore, rBefore)
	r.check("overlay shifts to the relay during the incident", "detour beats shared-path degradation",
		!bestDuring.Direct() && rDuring < dDuring, "direct %.2f ms vs relay %.2f ms", dDuring, rDuring)
	r.check("direct route best again after revert", "steering is reversible",
		bestAfter.Direct() && dAfter < rAfter, "direct %.2f ms vs relay %.2f ms", dAfter, rAfter)
	r.check("direct path truly degraded by the shift", "+8 ms ground truth",
		within(dDuring-dBefore, ms(shift)-1.5, ms(shift)+1.5), "%.2f ms", dDuring-dBefore)
	fwd := m.Relay("chi").Stats.Forwarded
	r.check("relay re-encapsulated end-to-end traffic", "per-segment tunnelling",
		fwd > 0, "%d forwarded at chi", fwd)
	r.invariantsHold(ch)

	r.note("composite scores stay in summed receiver clock domains; the telescoped " +
		"offset is identical for both ny->la routes, so the comparison is exact")
	r.finish(eng, reg, journal)
	return r
}

func routeLabel(r control.CompositeRoute) string {
	if r.Direct() {
		return "direct"
	}
	lbl := r.Src
	for _, v := range r.Via {
		lbl += "->" + v
	}
	return lbl + "->" + r.Dst
}
