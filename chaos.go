package tango

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/simnet"
)

// Chaos is the public handle on the deterministic fault-injection engine
// (internal/chaos) of a Mesh or a Lab. There is one naming scheme for
// fault targets, and metrics and journal records use it too: every
// provider trunk is "trunk/<site>/<provider>", the line carrying that
// provider's traffic into the site — on a Lab that is
// "trunk/la/<provider>" for the NY->LA direction and
// "trunk/ny/<provider>" for LA->NY — and every pairwise Tango edge
// server is "edge/<site>:<peer>". Faults fire at exact virtual instants,
// random storms are drawn from the deployment's seeded RNG streams, and
// the whole-network conservation and buffer-balance invariants are
// checked continuously — so a fault campaign either reproduces byte for
// byte from its seed or fails loudly. A negative offset or duration, or
// a probability outside [0, 1], is an error and schedules nothing.
type Chaos struct {
	d *core.Deployment
}

// Chaos returns the deployment's fault-injection handle. The first call
// registers every edge server as a withdrawal target and starts the
// invariant checks on a 250 ms cadence.
func (p *deployment) Chaos() (*Chaos, error) {
	if p.buildErr != nil {
		return nil, p.buildErr
	}
	if p.chaos == nil {
		for _, pk := range p.d.Scenario.PairKeys {
			p.d.EdgeTarget(pk[0], pk[1])
			p.d.EdgeTarget(pk[1], pk[0])
		}
		p.d.Chaos.StartChecks(250 * time.Millisecond)
		p.chaos = &Chaos{d: p.d}
	}
	return p.chaos, nil
}

// now is the current virtual time; fault offsets count from it.
func (c *Chaos) now() time.Duration { return c.d.Scenario.B.W.Now() }

// Instrument registers fault counters and per-trunk drop counters in
// reg and journals chaos events (fault applies/reverts, withdrawals,
// invariant violations, queue drops) to j.
func (c *Chaos) Instrument(reg *obs.Registry, j *obs.Journal) {
	c.d.Chaos.Instrument(reg, j)
}

// trunk checks a trunk fault's offset and duration (see timing) and
// resolves its site/provider pair to the registered target name.
func (c *Chaos) trunk(site, provider string, in, dur time.Duration) (string, error) {
	if err := timing(in, dur); err != nil {
		return "", err
	}
	name := core.TrunkTarget(site, provider)
	if c.d.Chaos.Line(name) == nil {
		return "", fmt.Errorf("tango: no trunk into site %q via provider %q", site, provider)
	}
	return name, nil
}

// timing rejects a fault that would start in the past or end before it
// starts.
func timing(in, dur time.Duration) error {
	if in < 0 {
		return fmt.Errorf("tango: fault offset %v is negative; faults start now or later", in)
	}
	if dur < 0 {
		return fmt.Errorf("tango: fault duration %v is negative", dur)
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

// LinkDown takes the provider trunk into site admin-down after in, for
// dur. Packets already in flight still arrive; everything offered while
// down is dropped at admission.
func (c *Chaos) LinkDown(site, provider string, in, dur time.Duration) error {
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.LinkDown(name, c.now()+in, dur))
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

// DelayShift adds delta of one-way delay on the provider trunk into site
// after in, removing it after dur.
func (c *Chaos) DelayShift(site, provider string, in, dur, delta time.Duration) error {
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.DelayShift(name, c.now()+in, dur, delta))
	return nil
}

// RouteShift schedules an intra-provider routing change on the provider
// trunk into site (the Figure 4 middle incident): after in the path is
// turbulent for 20 s, settles delta higher for dur, then returns to the
// original path through a second 20 s of turbulence.
func (c *Chaos) RouteShift(site, provider string, in, dur, delta time.Duration) error {
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
	name, err := c.trunk(site, provider, in, dur)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.Instability(name, c.now()+in, dur,
		simnet.SpikeDelay{Prob: spikeProb, Mean: peakExtra / 3, Cap: peakExtra},
		time.Millisecond, 1500*time.Microsecond))
	return nil
}

// WithdrawPath withdraws the pinned BGP prefix that site announces for
// path id of its Tango pair with peer — killing that path of the
// peer-to-site direction at the routing layer — and re-announces it with
// identical attributes after dur. The deployment must be established
// first (path prefixes exist only after establishment).
func (c *Chaos) WithdrawPath(site, peer string, id uint8, in, dur time.Duration) error {
	if err := timing(in, dur); err != nil {
		return err
	}
	st := c.d.Mesh.Member(site, peer)
	if st == nil {
		return fmt.Errorf("tango: no deployed pair %s:%s", site, peer)
	}
	pfx, err := st.PinnedPrefix(id)
	if err != nil {
		return err
	}
	c.d.Chaos.Schedule(chaos.Withdrawal{
		Speaker: c.d.EdgeTarget(site, peer),
		Prefix:  pfx,
		At:      c.now() + in,
		For:     dur,
	})
	return nil
}

// Storm schedules n seeded-random faults — link flaps, loss bursts,
// delay shifts, withdrawals — uniformly over the window starting after
// in, and returns their labels in schedule order. The draw comes from
// the deployment's named RNG streams, so a storm replays exactly from
// its seed. A negative n, in or window is an error.
func (c *Chaos) Storm(n int, in, window time.Duration) ([]string, error) {
	if n < 0 || in < 0 || window < 0 {
		return nil, fmt.Errorf("tango: storm of %d faults after %v over %v; none may be negative", n, in, window)
	}
	return c.d.Chaos.ScheduleStorm(c.d.Scenario.B.W.Streams.Stream("chaos-storm"), chaos.StormConfig{
		Faults: n,
		Start:  c.now() + in,
		Window: window,
	}), nil
}

// CheckNow runs every registered invariant once at the current instant.
func (c *Chaos) CheckNow() { c.d.Chaos.CheckNow() }

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

// Events returns the chaos event log — fault applications, reversions,
// and violations — one entry per line, in virtual-time order.
func (c *Chaos) Events() []string {
	entries := c.d.Chaos.Log()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("t=%s %s", e.At, e.Msg)
	}
	return out
}

// Targets returns the registered fault target names (trunks then edge
// speakers), sorted within each group.
func (c *Chaos) Targets() []string {
	return append(c.d.Chaos.LineNames(), c.d.Chaos.SpeakerNames()...)
}
