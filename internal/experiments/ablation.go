package experiments

import (
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/measure"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// The ablations quantify the design choices DESIGN.md §4 calls out. Each
// returns plain numbers for the benches in ablation_test.go to report.

// AblationCadenceResult summarizes one controller-cadence run.
type AblationCadenceResult struct {
	MeanTrueOWDMs float64 // achieved mean OWD (offset-corrected) across the event
	Switches      uint64
}

// AblationCadence measures how the controller's decision cadence affects
// the delay achieved through an E4-style route change: a slow cadence
// reacts late on both edges of the event.
func AblationCadence(cfg Config, cadence time.Duration) AblationCadenceResult {
	l := newLab(labOpts{
		seed:          cfg.Seed + 40,
		probeInterval: probeInterval,
		decideEvery:   cadence,
		policyNY:      &control.MinOWD{HysteresisMs: 0.5, MinDwell: cadence},
	})
	lead := cfg.dur(2 * time.Minute)
	eventAt := l.S.B.W.Now() + lead
	l.Chaos.Schedule(chaos.RouteShift("trunk/la/GTT", eventAt, 5*time.Minute, 5*time.Millisecond, 20*time.Second)...)

	acc := l.trackCurrentOWD(eventAt)
	l.run(lead + 5*time.Minute + 2*time.Minute)
	l.mustHold()
	return AblationCadenceResult{MeanTrueOWDMs: acc.Mean(), Switches: l.Pair.A.Controller.Stats.Switches}
}

// AblationHysteresisResult summarizes one hysteresis-margin run.
type AblationHysteresisResult struct {
	Switches      uint64
	MeanTrueOWDMs float64
}

// AblationHysteresis measures path-flap count against the switching
// margin while the active path is spiky (an E5-style window): tiny
// margins chase noise, large margins never react.
func AblationHysteresis(cfg Config, marginMs float64) AblationHysteresisResult {
	l := newLab(labOpts{
		seed:          cfg.Seed + 41,
		probeInterval: probeInterval,
		decideEvery:   time.Second,
		policyNY:      &control.MinOWD{HysteresisMs: marginMs, MinDwell: time.Second},
	})
	lead := cfg.dur(2 * time.Minute)
	eventAt := l.S.B.W.Now() + lead
	l.Chaos.Schedule(chaos.Instability("trunk/la/GTT", eventAt, 5*time.Minute,
		simnet.SpikeDelay{Prob: 0.15, Mean: 16 * time.Millisecond, Cap: 46 * time.Millisecond},
		2*time.Millisecond, 1500*time.Microsecond))

	acc := l.trackCurrentOWD(eventAt)
	l.run(lead + 5*time.Minute + time.Minute)
	l.mustHold()
	return AblationHysteresisResult{Switches: l.Pair.A.Controller.Stats.Switches, MeanTrueOWDMs: acc.Mean()}
}

// AblationEstimator compares delay estimators offline on a synthetic
// spiky trace: it returns the fraction of samples where the estimator is
// more than 1 ms from the true floor (a proxy for "how often would the
// controller be misled"). Windowed means are emulated by small alphas.
func AblationEstimator(cfg Config, alpha float64) float64 {
	streams := sim.NewStreams(cfg.Seed + 42)
	rng := streams.Stream("ablation-estimator")
	model := simnet.SpikeDelay{
		Base: simnet.GaussianDelay{Floor: 28 * time.Millisecond, Mean: 28150 * time.Microsecond, Std: 10 * time.Microsecond},
		Prob: 0.05,
		Mean: 16 * time.Millisecond,
		Cap:  46 * time.Millisecond,
	}
	est := measure.NewEWMA(alpha)
	const n = 50000
	const floorMs = 28.15
	misled := 0
	for i := 0; i < n; i++ {
		v := float64(model.Sample(0, rng)) / float64(time.Millisecond)
		est.Add(v)
		if est.Value() > floorMs+1.0 || est.Value() < floorMs-1.0 {
			misled++
		}
	}
	return float64(misled) / n
}

// AblationProbeRateResult summarizes one probe-interval run.
type AblationProbeRateResult struct {
	// DetectionLatency is the time from the E4 event until the
	// controller left the degraded path (0 if it never did).
	DetectionLatency time.Duration
	ProbesSent       uint64
}

// AblationProbeRate measures event-detection latency against probing
// rate: sparser probes mean staler estimates and later reactions, the
// paper's implicit justification for probing at 10 ms.
func AblationProbeRate(cfg Config, interval time.Duration) AblationProbeRateResult {
	l := newLab(labOpts{
		seed:          cfg.Seed + 43,
		probeInterval: interval,
		decideEvery:   500 * time.Millisecond,
		policyNY:      &control.MinOWD{HysteresisMs: 0.5, MinDwell: time.Second},
	})
	lead := cfg.dur(2 * time.Minute)
	eventAt := l.S.B.W.Now() + lead
	// A 1 s edge, not E4's 20 s: a sharp edge isolates detection delay.
	l.Chaos.Schedule(chaos.RouteShift("trunk/la/GTT", eventAt, 5*time.Minute, 5*time.Millisecond, time.Second)...)

	// Detection = first moment the post-event optimum (Telia) carries
	// the traffic. Zero means the controller never adapted within the
	// observation window.
	var detected time.Duration
	ctl := l.Pair.A.Controller
	sim.NewTicker(l.S.B.Eng(), 100*time.Millisecond, func(now sim.Time) {
		if detected == 0 && now > eventAt && l.Pair.A.PathName(ctl.Current()) == "Telia" {
			detected = now - eventAt
		}
	})
	l.run(lead + 3*time.Minute)
	l.mustHold()
	return AblationProbeRateResult{
		DetectionLatency: detected,
		ProbesSent:       l.Pair.A.Prober.Sent,
	}
}
