package tango

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/core"
	"tango/internal/simnet"
)

// Chaos is the public handle on the deterministic fault-injection engine
// (internal/chaos) of a Mesh or a Lab. A fault names its target by site
// and provider: the provider trunk into site, "trunk/<site>/<provider>"
// in metrics and journal records — on a Lab that is "trunk/la/<provider>"
// for the NY->LA direction and "trunk/ny/<provider>" for LA->NY. Faults
// fire at exact virtual instants and the whole-network conservation and
// buffer-balance invariants are checked continuously, so a fault
// campaign either reproduces byte for byte from its seed or reports a
// violation. A negative offset, duration or added delay, or a
// probability outside [0, 1], is an error and schedules nothing.
type Chaos struct {
	d *core.Deployment
}

// Chaos returns the deployment's fault-injection handle. The first call
// starts the invariant checks on a 250 ms cadence.
func (m *Mesh) Chaos() *Chaos {
	if m.chaos == nil {
		m.d.Chaos.StartChecks(250 * time.Millisecond)
		m.chaos = &Chaos{d: m.d}
	}
	return m.chaos
}

// now is the current virtual time; fault offsets count from it.
func (c *Chaos) now() time.Duration { return c.d.Scenario.B.W.Now() }

// trunk rejects a fault that would start in the past or end before it
// starts, and resolves its site/provider pair to the registered target
// name.
func (c *Chaos) trunk(site, provider string, in, dur time.Duration) (string, error) {
	if in < 0 {
		return "", fmt.Errorf("tango: fault offset %v is negative; faults start now or later", in)
	}
	if dur < 0 {
		return "", fmt.Errorf("tango: fault duration %v is negative", dur)
	}
	name := core.TrunkTarget(site, provider)
	if c.d.Chaos.Line(name) == nil {
		return "", fmt.Errorf("tango: no trunk into site %q via provider %q", site, provider)
	}
	return name, nil
}

// addedDelay rejects a negative added delay (named what in the error): a
// fault only ever adds delay, and taking it away would schedule an
// arrival in the past.
func addedDelay(what string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("tango: %s %v is negative; a fault adds delay, it never removes it", what, d)
	}
	return nil
}

// probability rejects p (named what in the error) outside [0, 1].
func probability(what string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("tango: %s %v is not a probability in [0, 1]", what, p)
	}
	return nil
}

// LossBurst sets the provider trunk into site to the given loss
// probability after in, restoring the previous probability after dur.
func (c *Chaos) LossBurst(site, provider string, in, dur time.Duration, loss float64) error {
	if err := probability("loss", loss); err != nil {
		return err
	}
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.LossBurst(name, c.now()+in, dur, loss))
	return nil
}

// RouteShift schedules an intra-provider routing change on the provider
// trunk into site (the Figure 4 middle incident): after in the path is
// turbulent for 20 s, settles delta higher for dur, then returns to the
// original path through a second 20 s of turbulence.
func (c *Chaos) RouteShift(site, provider string, in, dur, delta time.Duration) error {
	if err := addedDelay("delta", delta); err != nil {
		return err
	}
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.RouteShift(name, c.now()+in, dur, delta, 20*time.Second)...)
	return nil
}

// Instability schedules a Figure 4 (right) style degradation window on
// the provider trunk into site: for dur after in, each packet spikes
// with probability spikeProb by up to peakExtra above the path's
// slightly lifted floor.
func (c *Chaos) Instability(site, provider string, in, dur time.Duration, spikeProb float64, peakExtra time.Duration) error {
	if err := probability("spike probability", spikeProb); err != nil {
		return err
	}
	if err := addedDelay("peakExtra", peakExtra); err != nil {
		return err
	}
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.Instability(name, c.now()+in, dur,
		simnet.SpikeDelay{Prob: spikeProb, Mean: peakExtra / 3, Cap: peakExtra},
		time.Millisecond, 1500*time.Microsecond))
	return nil
}

// Violations returns every invariant failure observed so far, rendered
// one per entry.
func (c *Chaos) Violations() []string {
	vs := c.d.Chaos.Violations()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}
