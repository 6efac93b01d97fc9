package chaos

import (
	"fmt"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
	"tango/internal/sim"
	"tango/internal/simnet"
)

// Fault is one scheduled failure: Apply makes it happen and returns the
// undo for when the window closes (nil for one-way faults). Window is
// the absolute virtual start and the duration; a zero duration means
// the fault never reverts. owner names the engine whose partition holds
// the target's state (nil when the target is not registered), which is
// where both transitions run.
type Fault interface {
	Label() string
	Window() (at sim.Time, dur time.Duration)
	Apply(e *Engine) (revert func(), err error)
	owner(e *Engine) *sim.Engine
}

// lineFault is the one shape every line fault takes: a registered
// target, a window, and a change to the line that hands back its undo.
type lineFault struct {
	label  string
	target string
	at     sim.Time
	dur    time.Duration
	apply  func(*lineTarget) (revert func())
}

func (f lineFault) Label() string                     { return f.label }
func (f lineFault) Window() (sim.Time, time.Duration) { return f.at, f.dur }

func (f lineFault) Apply(e *Engine) (func(), error) {
	t := e.lines[f.target]
	if t == nil {
		return nil, fmt.Errorf("no line %q", f.target)
	}
	return f.apply(t), nil
}

func (f lineFault) owner(e *Engine) *sim.Engine {
	if t := e.lines[f.target]; t != nil {
		return t.line.Eng()
	}
	return nil
}

// lineTarget is a registered line plus the absolute state faults hold
// on it. Only events on the line's owning engine touch it.
type lineTarget struct {
	line    *simnet.Line
	down    hold[bool]
	loss    hold[float64]
	overlay hold[simnet.DelayModel]
}

// hold lets overlapping windows share one absolute piece of line state.
// The first window to open saves the value it found, every window sets
// its own, and only the last to close puts the saved value back — so
// interleaved windows (A on, B on, A off, B off) leave nothing behind
// and A closing does not cut B short.
type hold[T any] struct {
	open  int
	saved T
}

func (h *hold[T]) enter(found T, set func(T), v T) (leave func()) {
	if h.open == 0 {
		h.saved = found
	}
	h.open++
	set(v)
	return func() {
		if h.open--; h.open == 0 {
			set(h.saved)
		}
	}
}

// LinkDown takes a registered line administratively down for a window.
// Packets already in flight still arrive (admission semantics, see
// DESIGN.md); everything sent while down is dropped at the line.
func LinkDown(target string, at sim.Time, dur time.Duration) Fault {
	return lineFault{"link-down " + target, target, at, dur, func(t *lineTarget) func() {
		return t.down.enter(t.line.Down(), t.line.SetDown, true)
	}}
}

// LossBurst sets a line's loss probability for a window, restoring the
// previous probability afterwards.
func LossBurst(target string, at sim.Time, dur time.Duration, loss float64) Fault {
	return lineFault{fmt.Sprintf("loss-burst %s p=%g", target, loss), target, at, dur, func(t *lineTarget) func() {
		return t.loss.enter(t.line.Loss(), t.line.SetLoss, loss)
	}}
}

// DelayShift adds delta to a line's delay offset for a window — the
// paper's intra-provider reroute that lengthens the physical path — and
// subtracts it again afterwards, so concurrent shifts on one line add up.
func DelayShift(target string, at sim.Time, dur, delta time.Duration) Fault {
	return lineFault{fmt.Sprintf("delay-shift %s +%s", target, delta), target, at, dur, func(t *lineTarget) func() {
		sh := t.line.Shaper()
		sh.SetOffset(sh.Offset() + delta)
		return func() { sh.SetOffset(sh.Offset() - delta) }
	}}
}

// overlay replaces a line's delay model for a window with one built
// over the line's base model at apply time.
func overlay(kind, target string, at sim.Time, dur time.Duration, over func(base simnet.DelayModel) simnet.DelayModel) Fault {
	return lineFault{kind + " " + target, target, at, dur, func(t *lineTarget) func() {
		sh := t.line.Shaper()
		return t.overlay.enter(nil, sh.SetOverlay, over(sh.Base()))
	}}
}

// Instability reproduces the Figure 4 (right) incident: a window of
// degraded performance on one line, with the baseline lifted by a
// Gaussian minor elevation (clamped to [0, minorMean+2·minorStd]) and
// the spikes process laid over it (its Base is ignored). The paper saw
// a 78 ms peak against a 28 ms floor for ~5 minutes, with some packets
// still arriving at the minimum.
func Instability(target string, at sim.Time, dur time.Duration, spikes simnet.SpikeDelay, minorMean, minorStd time.Duration) Fault {
	return overlay("instability", target, at, dur, func(base simnet.DelayModel) simnet.DelayModel {
		spikes.Base = jitterLift{base: base, mean: minorMean, std: minorStd, cap: minorMean + 2*minorStd}
		return spikes
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

// RouteShift reproduces the Figure 4 (middle) incident, an internal
// routing change inside one provider, as three faults: at at the line
// turns turbulent for edge (20% of packets +Exp(8 ms), capped at 25 ms),
// then settles delta higher; dur after at the original path returns
// through a second turbulent edge. The paper saw +5 ms for ~10 minutes.
// edge must be positive.
func RouteShift(target string, at sim.Time, dur, delta, edge time.Duration) []Fault {
	turbulence := func(at sim.Time) Fault {
		return overlay("turbulence", target, at, edge, func(base simnet.DelayModel) simnet.DelayModel {
			return simnet.SpikeDelay{Base: base, Prob: 0.2, Mean: 8 * time.Millisecond, Cap: 25 * time.Millisecond}
		})
	}
	return []Fault{turbulence(at), DelayShift(target, at+edge, dur, delta), turbulence(at + dur)}
}

// Withdrawal withdraws a locally originated prefix from a registered
// speaker for a window, then re-announces it with the same seeded path
// and communities — a tunnel endpoint vanishing from, and returning to,
// the global routing table.
type Withdrawal struct {
	Speaker string
	Prefix  addr.Prefix
	At      sim.Time
	For     time.Duration
}

// Label implements Fault.
func (f Withdrawal) Label() string { return fmt.Sprintf("withdraw %s %s", f.Speaker, f.Prefix) }

// Window implements Fault.
func (f Withdrawal) Window() (sim.Time, time.Duration) { return f.At, f.For }

func (f Withdrawal) owner(e *Engine) *sim.Engine {
	if sp := e.speakers[f.Speaker]; sp != nil {
		return sp.Engine()
	}
	return nil
}

// Apply implements Fault.
func (f Withdrawal) Apply(e *Engine) (func(), error) {
	sp := e.speakers[f.Speaker]
	if sp == nil {
		return nil, fmt.Errorf("no speaker %q", f.Speaker)
	}
	r, ok := sp.Originated(f.Prefix)
	if !ok {
		return nil, fmt.Errorf("%s does not originate %s", f.Speaker, f.Prefix)
	}
	// The originated route is about to be deleted; keep what the
	// re-announcement needs.
	path := r.Path.Clone()
	comms := append([]bgp.Community(nil), r.Communities...)
	sp.Withdraw(f.Prefix)
	return func() { sp.OriginateWithPath(f.Prefix, path, comms...) }, nil
}

// StormConfig shapes a seeded-random fault timeline.
type StormConfig struct {
	// Faults is how many faults to draw.
	Faults int
	// Start is the absolute virtual time of the storm window's open.
	Start sim.Time
	// Window spreads fault start times uniformly over [Start, Start+Window).
	Window time.Duration
	// MaxFor caps each fault's duration; durations are drawn uniformly
	// from (0, MaxFor]. Default 30 s.
	MaxFor time.Duration
}

// A storm's loss bursts drop stormLoss of packets; its delay shifts add
// stormShift, the paper's E4 shift.
const (
	stormLoss  = 0.3
	stormShift = 5 * time.Millisecond
)

// ScheduleStorm draws cfg.Faults faults from rng over the registered
// targets and schedules them all, returning their labels in schedule
// order. The draw consumes rng deterministically: same engine contents,
// same rng state, same storm. Withdrawal faults target originated
// prefixes of registered speakers; if there are none, those draws fall
// back to link faults.
func (e *Engine) ScheduleStorm(rng *sim.RNG, cfg StormConfig) []string {
	if cfg.MaxFor <= 0 {
		cfg.MaxFor = 30 * time.Second
	}
	lines := e.LineNames()
	type target struct {
		speaker string
		prefix  addr.Prefix
	}
	var withdrawable []target
	for _, name := range e.SpeakerNames() {
		for _, p := range e.speakers[name].OriginatedPrefixes() {
			withdrawable = append(withdrawable, target{name, p})
		}
	}
	var labels []string
	for i := 0; i < cfg.Faults; i++ {
		at := cfg.Start + sim.Time(rng.Int63n(int64(cfg.Window)+1))
		dur := time.Duration(1 + rng.Int63n(int64(cfg.MaxFor)))
		kind := rng.Intn(4)
		if kind == 3 && len(withdrawable) == 0 {
			kind = rng.Intn(3)
		}
		if kind != 3 && len(lines) == 0 {
			continue
		}
		var f Fault
		switch kind {
		case 0:
			f = LinkDown(lines[rng.Intn(len(lines))], at, dur)
		case 1:
			f = LossBurst(lines[rng.Intn(len(lines))], at, dur, stormLoss)
		case 2:
			f = DelayShift(lines[rng.Intn(len(lines))], at, dur, stormShift)
		case 3:
			t := withdrawable[rng.Intn(len(withdrawable))]
			f = Withdrawal{Speaker: t.speaker, Prefix: t.prefix, At: at, For: dur}
		}
		e.Schedule(f)
		labels = append(labels, f.Label())
	}
	return labels
}
