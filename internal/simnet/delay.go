// Package simnet is a packet-level wide-area network simulator built on
// the deterministic event engine in internal/sim.
//
// It stands in for the public Internet core in the paper's evaluation:
// nodes are hosts and routers (one router per transit AS point of
// presence), links carry real packet bytes with configurable propagation
// delay, jitter, loss, and capacity, and each node has its own wall
// clock (constant offset from virtual time) so that one-way-delay
// measurement behaves exactly as it does between unsynchronised machines.
//
// Delay models are mutable at runtime; the chaos package uses that to
// inject the paper's Figure-4 incidents (an internal routing change that
// shifts a provider's delay floor by +5 ms, and a 5-minute instability
// window with latency spikes) into a running simulation.
package simnet

import (
	"time"

	"tango/internal/sim"
)

// DelayModel produces per-packet one-way propagation delays for one
// direction of a link.
type DelayModel interface {
	// Sample returns the next packet's propagation delay. Implementations
	// draw from rng so runs are reproducible.
	Sample(now sim.Time, rng *sim.RNG) time.Duration
}

// MinDelayer is implemented by delay models with a known propagation
// floor. The sharded simulation requires it on cross-partition links: the
// floor proves no packet can cross a partition boundary faster than the
// coordinator's lookahead. Runtime mutations (shaper offsets, chaos delay
// shifts) only ever add delay, so the construction-time floor stays a
// valid lower bound for the whole run.
type MinDelayer interface {
	MinDelay() time.Duration
}

// FixedDelay is a constant propagation delay.
type FixedDelay time.Duration

// Sample implements DelayModel.
func (d FixedDelay) Sample(sim.Time, *sim.RNG) time.Duration { return time.Duration(d) }

// MinDelay implements MinDelayer.
func (d FixedDelay) MinDelay() time.Duration { return time.Duration(d) }

// GaussianDelay models a link with a hard propagation floor and normally
// distributed queueing jitter above it. Samples below Floor are clamped:
// physics guarantees a path is never faster than its propagation delay,
// which is why measured one-way delays show the sharp minimum the paper's
// Figure 4 exhibits.
type GaussianDelay struct {
	Floor time.Duration // propagation minimum
	Mean  time.Duration // mean of the distribution (>= Floor)
	Std   time.Duration // standard deviation of the jitter
}

// Sample implements DelayModel.
func (d GaussianDelay) Sample(_ sim.Time, rng *sim.RNG) time.Duration {
	v := time.Duration(rng.Normal(float64(d.Mean), float64(d.Std)))
	if v < d.Floor {
		v = d.Floor
	}
	return v
}

// MinDelay implements MinDelayer.
func (d GaussianDelay) MinDelay() time.Duration { return d.Floor }

// SpikeDelay adds a heavy upper tail: with probability Prob a packet is
// delayed by an extra Exp(Mean) capped at Cap. Layered over a base model
// it reproduces the "period of network instability" in Figure 4 (right),
// where most packets ride near the floor but spikes reach 78 ms.
type SpikeDelay struct {
	Base DelayModel
	Prob float64       // per-packet spike probability
	Mean time.Duration // mean extra delay of a spike
	Cap  time.Duration // maximum extra delay
}

// Sample implements DelayModel.
func (d SpikeDelay) Sample(now sim.Time, rng *sim.RNG) time.Duration {
	v := d.Base.Sample(now, rng)
	if rng.Bernoulli(d.Prob) {
		extra := time.Duration(rng.Exp(float64(d.Mean)))
		if d.Cap > 0 && extra > d.Cap {
			extra = d.Cap
		}
		v += extra
	}
	return v
}

// MinDelay implements MinDelayer when the base model does: spikes only
// ever add delay on top of the base sample.
func (d SpikeDelay) MinDelay() time.Duration {
	if md, ok := d.Base.(MinDelayer); ok {
		return md.MinDelay()
	}
	return 0
}

// Shaper is a mutable wrapper around a DelayModel. It is the control
// surface for scenario events: an overlay can stand in for the base
// model (E5's instability window) and a constant offset can be added
// (E4's +5 ms route shift). The zero offset/overlay state is a
// transparent pass-through.
type Shaper struct {
	base    DelayModel
	overlay DelayModel // when non-nil, replaces base entirely
	offset  time.Duration
}

// NewShaper wraps base.
func NewShaper(base DelayModel) *Shaper { return &Shaper{base: base} }

// Sample implements DelayModel.
func (s *Shaper) Sample(now sim.Time, rng *sim.RNG) time.Duration {
	m := s.base
	if s.overlay != nil {
		m = s.overlay
	}
	return m.Sample(now, rng) + s.offset
}

// SetOffset adds a constant to every sampled delay (e.g. an intra-provider
// reroute that lengthens the physical path).
func (s *Shaper) SetOffset(d time.Duration) { s.offset = d }

// Offset returns the current constant offset.
func (s *Shaper) Offset() time.Duration { return s.offset }

// SetOverlay replaces the base model until cleared (nil restores base).
func (s *Shaper) SetOverlay(m DelayModel) { s.overlay = m }

// Base returns the wrapped base model.
func (s *Shaper) Base() DelayModel { return s.base }
