package experiments

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/simnet"
)

// E4RouteChange reproduces Figure 4 (middle): an internal routing change
// inside GTT — brief instability, then the one-way delay settles at a new
// minimum +5 ms for ~10 minutes before reverting. A controller using live
// data routes around the degradation; a static "pick best once" strategy
// rides it out.
func E4RouteChange(cfg Config) *Result {
	r := newResult("E4", "Internal routing change in GTT (+5 ms for 10 min; Fig. 4 middle)")
	l := newLab(labOpts{
		seed:          cfg.Seed + 2,
		probeInterval: probeInterval,
		recordBucket:  time.Second,
		decideEvery:   time.Second,
		// NY's controller steers NY->LA traffic (the plotted
		// direction); LA's is irrelevant here.
		policyNY: &control.MinOWD{HysteresisMs: 0.5, MinDwell: 2 * time.Second},
	})

	lead := cfg.dur(10 * time.Minute) // quiet time before the event
	eventAt := l.S.B.W.Now() + lead
	eventDur := 10 * time.Minute
	l.Chaos.Schedule(chaos.RouteShift("trunk/la/GTT", eventAt, eventDur, 5*time.Millisecond, 20*time.Second)...)

	var switches []string
	nyCtl := l.Pair.A.Controller
	nyCtl.OnSwitch = func(at time.Duration, from, to uint8) {
		switches = append(switches, fmt.Sprintf("%v %s->%s", at-eventAt, l.Pair.A.PathName(from), l.Pair.A.PathName(to)))
	}

	total := lead + eventDur + 10*time.Minute
	l.run(total)
	r.VirtualTime = total

	gtt := pathByName(l.monLA(), "GTT")
	if gtt == nil || gtt.Series == nil {
		r.check("GTT series recorded", "present", false, "missing")
		return r
	}
	ser := gtt.Series
	t0 := eventAt // series buckets are in absolute virtual time
	off := ms(l.offNYtoLA)

	preMin := ser.MinIn(t0-5*time.Minute, t0) - off
	// Skip the 30s transition edge when measuring the settled floor.
	settledMin := ser.MinIn(t0+time.Minute, t0+9*time.Minute) - off
	postMin := ser.MinIn(t0+eventDur+2*time.Minute, t0+eventDur+8*time.Minute) - off

	r.Rows = append(r.Rows, []string{"window", "GTT min OWD (ms)"})
	r.Rows = append(r.Rows, []string{"before event", fmt.Sprintf("%.2f", preMin)})
	r.Rows = append(r.Rows, []string{"during event (settled)", fmt.Sprintf("%.2f", settledMin)})
	r.Rows = append(r.Rows, []string{"after revert", fmt.Sprintf("%.2f", postMin)})

	delta := settledMin - preMin
	r.check("settled delay shift", "+5 ms new minimum", within(delta, 4.5, 5.8), "+%.2f ms", delta)
	r.check("shift reverts", "original path returns after ~10 min", within(postMin-preMin, -0.5, 0.5), "%+.2f ms vs before", postMin-preMin)

	// Adaptive vs static during the event: the controller should leave
	// GTT (Telia becomes best at ~31.3 vs GTT 33.15) and come back.
	adaptiveOn := l.Pair.A.PathName(nyCtl.Current())
	r.check("controller returns to GTT after revert", "live data tracks the change", adaptiveOn == "GTT", "on %s", adaptiveOn)
	movedAway := false
	for _, sw := range switches {
		if len(sw) > 0 {
			movedAway = true
		}
	}
	r.check("controller reacted to the event", "selects alternate path during shift", movedAway && nyCtl.Stats.Switches >= 2, "%d switches: %v", nyCtl.Stats.Switches, switches)

	// Cost comparison: mean OWD a static-GTT sender would see during
	// the event vs what the best alternative offered.
	gttDuring := ser.MeanIn(t0+time.Minute, t0+9*time.Minute) - off
	telia := pathByName(l.monLA(), "Telia")
	teliaDuring := telia.Series.MeanIn(t0+time.Minute, t0+9*time.Minute) - off
	r.Rows = append(r.Rows, []string{"static GTT during event", fmt.Sprintf("%.2f", gttDuring)})
	r.Rows = append(r.Rows, []string{"best alternative (Telia)", fmt.Sprintf("%.2f", teliaDuring)})
	r.check("alternate path wins during event", "switching is optimal", teliaDuring < gttDuring, "Telia %.2f vs GTT %.2f ms", teliaDuring, gttDuring)
	r.invariantsHold(l.Chaos)
	l.exportSeries(r)
	l.snapshot(r)
	return r
}

// E5Instability reproduces Figure 4 (right): a ~5-minute period of
// instability in GTT's network with minor delay elevation and major
// spikes peaking at 78 ms — more than double the 28 ms minimum — while
// some packets still arrive at the floor and every other path stays
// undisturbed.
func E5Instability(cfg Config) *Result {
	r := newResult("E5", "Network instability in GTT (spikes to 78 ms; Fig. 4 right)")
	l := newLab(labOpts{
		seed:          cfg.Seed + 3,
		probeInterval: probeInterval,
		recordBucket:  time.Second,
	})

	lead := cfg.dur(10 * time.Minute)
	eventAt := l.S.B.W.Now() + lead
	eventDur := 5 * time.Minute
	l.Chaos.Schedule(chaos.Instability("trunk/la/GTT", eventAt, eventDur,
		// floor 28.6 + minor(<=4) + 46 ~ 78 ms peak
		simnet.SpikeDelay{Prob: 0.02, Mean: 16 * time.Millisecond, Cap: 46 * time.Millisecond},
		time.Millisecond, 1500*time.Microsecond))

	total := lead + eventDur + 5*time.Minute
	l.run(total)
	r.VirtualTime = total

	off := ms(l.offNYtoLA)
	gtt := pathByName(l.monLA(), "GTT")
	t0, t1 := eventAt, eventAt+eventDur

	peak := gtt.Series.MaxIn(t0, t1) - off
	floorDuring := gtt.Series.MinIn(t0, t1) - off
	minOverall := gtt.OWD.Min() - off

	r.Rows = append(r.Rows, []string{"metric", "value (ms)"})
	r.Rows = append(r.Rows, []string{"GTT minimum OWD", fmt.Sprintf("%.2f", minOverall)})
	r.Rows = append(r.Rows, []string{"GTT peak during instability", fmt.Sprintf("%.2f", peak)})
	r.Rows = append(r.Rows, []string{"GTT floor during instability", fmt.Sprintf("%.2f", floorDuring)})

	r.check("baseline minimum", "~28 ms", within(minOverall, 27.5, 28.6), "%.2f ms", minOverall)
	r.check("peak one-way delay", "78 ms (more than double the minimum)",
		within(peak, 65, 80) && peak > 2*minOverall, "%.2f ms (%.1fx the minimum)", peak, peak/minOverall)
	r.check("floor packets survive the event", "some packets still at the minimum",
		within(floorDuring-minOverall, -0.2, 1.0), "floor during event %.2f ms", floorDuring)

	// Other paths stay flat through the window.
	flat := true
	for _, name := range []string{"NTT", "Telia", "Level3"} {
		pm := pathByName(l.monLA(), name)
		if pm == nil || pm.Series == nil {
			flat = false
			continue
		}
		quietMax := pm.Series.MaxIn(t0-5*time.Minute, t0) - off
		eventMax := pm.Series.MaxIn(t0, t1) - off
		r.Rows = append(r.Rows, []string{name + " max during instability", fmt.Sprintf("%.2f (quiet %.2f)", eventMax, quietMax)})
		if eventMax > quietMax+1.5 {
			flat = false
		}
	}
	r.check("other paths undisturbed", "almost no interference elsewhere", flat, "%v", flat)
	r.invariantsHold(l.Chaos)
	l.exportSeries(r)
	l.snapshot(r)
	return r
}
