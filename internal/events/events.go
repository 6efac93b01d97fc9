// Package events injects the wide-area incidents the paper's eight-day
// measurement happened to capture (§5, Figure 4 middle and right panels),
// plus loss bursts, into a running simulation. Each injector
// manipulates the delay Shaper (or loss rate) of a specific directed
// line — e.g. "GTT's trunk toward LA" — while every other path keeps its
// usual behaviour, matching the paper's observation that "all other
// networks experience almost no interference".
package events

import (
	"time"

	"tango/internal/sim"
	"tango/internal/simnet"
)

// RouteShift reproduces the Figure 4 (middle) incident: an internal
// routing change inside one provider. At At the path suffers a brief
// period of instability, then settles at a new minimum Delta higher than
// before; after Duration the original path returns.
type RouteShift struct {
	Line *simnet.Line
	// At is when the reroute happens.
	At time.Duration
	// Duration is how long the longer path persists (the paper saw
	// ~10 minutes).
	Duration time.Duration
	// Delta is the added floor delay (the paper saw +5 ms).
	Delta time.Duration
	// EdgeInstability is the length of the disturbed window around
	// each transition (default 20 s; 0 uses the default).
	EdgeInstability time.Duration
	// EdgeSpike parameterizes the transition noise (defaults: 20%
	// of packets +Exp(8ms) capped 25ms).
	EdgeProb float64
	EdgeMean time.Duration
	EdgeCap  time.Duration
}

// Schedule arms the incident on the engine.
func (r *RouteShift) Schedule(eng *sim.Engine) {
	edge := r.EdgeInstability
	if edge == 0 {
		edge = 20 * time.Second
	}
	prob := r.EdgeProb
	if prob == 0 {
		prob = 0.2
	}
	mean := r.EdgeMean
	if mean == 0 {
		mean = 8 * time.Millisecond
	}
	capd := r.EdgeCap
	if capd == 0 {
		capd = 25 * time.Millisecond
	}
	sh := r.Line.Shaper()
	turbulence := func() {
		sh.SetOverlay(simnet.SpikeDelay{Base: sh.Base(), Prob: prob, Mean: mean, Cap: capd})
	}
	calm := func() { sh.SetOverlay(nil) }

	eng.ScheduleAt(sim.Time(r.At), func() {
		turbulence()
		eng.Schedule(edge, func() {
			calm()
			sh.SetOffset(r.Delta) // settled on the longer internal path
		})
	})
	eng.ScheduleAt(sim.Time(r.At+r.Duration), func() {
		turbulence()
		eng.Schedule(edge, func() {
			calm()
			sh.SetOffset(0) // original path restored
		})
	})
}

// Instability reproduces the Figure 4 (right) incident: a window of
// degraded performance on one path with minor baseline elevation and
// heavy spikes (the paper saw a 78 ms peak against a 28 ms floor, with
// some packets still arriving at the minimum).
type Instability struct {
	Line *simnet.Line
	At   time.Duration
	// Duration of the window (the paper saw ~5 minutes).
	Duration time.Duration
	// SpikeProb is the per-packet probability of a major spike.
	SpikeProb float64
	// SpikeMean is the mean extra delay of a major spike.
	SpikeMean time.Duration
	// SpikeCap bounds a spike (peak OWD = floor + minor + cap).
	SpikeCap time.Duration
	// MinorExtraMean/Std elevate the baseline slightly during the
	// window (Gaussian, clamped to [0, MinorExtraCap]).
	MinorExtraMean time.Duration
	MinorExtraStd  time.Duration
	// MinorExtraCap bounds the minor elevation so the window's peak is
	// dominated by SpikeCap (default mean + 2 std).
	MinorExtraCap time.Duration
}

// Schedule arms the incident on the engine.
func (i *Instability) Schedule(eng *sim.Engine) {
	sh := i.Line.Shaper()
	eng.ScheduleAt(sim.Time(i.At), func() {
		base := sh.Base()
		capd := i.MinorExtraCap
		if capd == 0 {
			capd = i.MinorExtraMean + 2*i.MinorExtraStd
		}
		var m simnet.DelayModel = jitterLift{base: base, mean: i.MinorExtraMean, std: i.MinorExtraStd, cap: capd}
		m = simnet.SpikeDelay{Base: m, Prob: i.SpikeProb, Mean: i.SpikeMean, Cap: i.SpikeCap}
		sh.SetOverlay(m)
	})
	eng.ScheduleAt(sim.Time(i.At+i.Duration), func() {
		sh.SetOverlay(nil)
	})
}

// jitterLift adds a bounded non-negative Gaussian extra delay to a base
// model.
type jitterLift struct {
	base simnet.DelayModel
	mean time.Duration
	std  time.Duration
	cap  time.Duration
}

// Sample implements simnet.DelayModel.
func (j jitterLift) Sample(now sim.Time, rng *sim.RNG) time.Duration {
	v := j.base.Sample(now, rng)
	if j.mean > 0 || j.std > 0 {
		extra := time.Duration(rng.Normal(float64(j.mean), float64(j.std)))
		if j.cap > 0 && extra > j.cap {
			extra = j.cap
		}
		if extra > 0 {
			v += extra
		}
	}
	return v
}

// LossBurst raises a line's loss rate for a window.
type LossBurst struct {
	Line     *simnet.Line
	At       time.Duration
	Duration time.Duration
	Loss     float64
}

// Schedule arms the burst on the engine.
func (l *LossBurst) Schedule(eng *sim.Engine) {
	var prev float64
	eng.ScheduleAt(sim.Time(l.At), func() {
		prev = l.Line.Loss()
		l.Line.SetLoss(l.Loss)
	})
	eng.ScheduleAt(sim.Time(l.At+l.Duration), func() {
		l.Line.SetLoss(prev)
	})
}
