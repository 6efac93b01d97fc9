package control

import (
	"sort"
	"strconv"
	"time"

	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
)

// PathEstimate is the sender-side view of one outgoing path, built from
// the receiver's piggybacked reports.
type PathEstimate struct {
	ID        uint8
	OWDMs     float64 // receiver clock domain; comparable across paths
	JitterMs  float64
	Samples   uint16
	UpdatedAt sim.Time
	Valid     bool
}

// Policy decides which path carries data traffic.
type Policy interface {
	// Choose returns the path ID to use. cur is the current choice;
	// ests contains one entry per known path (Valid=false before the
	// first report).
	Choose(now sim.Time, cur uint8, ests []PathEstimate) uint8
}

// damping is the switch-damping rule MinOWD and MinJitter share, with
// the state it keeps between ticks.
type damping struct {
	lastSwitch sim.Time
	haveCur    bool
}

// usable reports whether an estimate may take part in a decision: it has
// seen a report, and not longer than staleAfter ago (0 disables ageing).
func usable(e *PathEstimate, now sim.Time, staleAfter time.Duration) bool {
	return e.Valid && (staleAfter <= 0 || now-e.UpdatedAt <= staleAfter)
}

// settle turns a policy's candidate into its choice. Staying put is
// free; a current path with no usable estimate (curKnown false: never
// reported, or stale — possibly dead) is left at once; otherwise the
// move waits out the dwell time and must clear the policy's absolute
// margin, so measurement noise cannot flap traffic between near-equal
// paths.
func (d *damping) settle(now sim.Time, dwell time.Duration, cur, cand uint8, curKnown, clearsMargin bool) uint8 {
	if cand == cur {
		d.haveCur = true
		return cur
	}
	if curKnown && (d.haveCur && now-d.lastSwitch < dwell || !clearsMargin) {
		return cur
	}
	d.lastSwitch, d.haveCur = now, true
	return cand
}

// MinOWD switches to the lowest-delay path, damped by an absolute
// hysteresis margin and a minimum dwell time (damping.settle).
//
// The margin is absolute (milliseconds), not relative: reported one-way
// delays live in the receiver's clock domain and are shifted by the
// constant inter-switch clock offset, which can dwarf the real values. A
// percentage of such a number is meaningless, but differences — and
// therefore absolute margins — are exact. (This is a sharp edge of the
// paper's "relative comparisons are sound" argument: the comparison is
// sound, but any policy arithmetic must be translation-invariant.)
type MinOWD struct {
	// HysteresisMs is the absolute improvement (in milliseconds)
	// required to switch away from the current path.
	HysteresisMs float64
	// MinDwell is the minimum time between switches.
	MinDwell time.Duration
	// StaleAfter treats estimates older than this as invalid (path
	// possibly dead); 0 disables.
	StaleAfter time.Duration

	damping
}

// Choose implements Policy.
func (p *MinOWD) Choose(now sim.Time, cur uint8, ests []PathEstimate) uint8 {
	var best, curEst *PathEstimate
	for i := range ests {
		e := &ests[i]
		if !usable(e, now, p.StaleAfter) {
			continue
		}
		if e.ID == cur {
			curEst = e
		}
		if best == nil || e.OWDMs < best.OWDMs {
			best = e
		}
	}
	if best == nil {
		return cur
	}
	return p.settle(now, p.MinDwell, cur, best.ID, curEst != nil,
		curEst != nil && best.OWDMs <= curEst.OWDMs-p.HysteresisMs)
}

// MinJitter prefers the path with the lowest reported jitter, breaking
// ties by delay — for interactive applications where variance hurts more
// than the mean (paper §5: "depending on the application, delay and
// jitter could have a significant impact"). Switches are damped the
// same way MinOWD's are (damping.settle), the margin being an absolute
// jitter improvement: jitter, unlike OWD, is clock-offset free, but
// near-equal values still make percentages flappy.
type MinJitter struct {
	// MaxOWDPenaltyMs bounds how much extra delay is acceptable to buy
	// lower jitter; a calmer path more than this much slower than the
	// fastest is not chosen.
	MaxOWDPenaltyMs float64
	// MinDwell is the minimum time between switches. There is no
	// margin: any jitter improvement switches once the dwell allows.
	MinDwell time.Duration
	// StaleAfter treats estimates older than this as invalid (path
	// possibly dead); 0 disables.
	StaleAfter time.Duration

	damping
}

// Choose implements Policy.
func (p *MinJitter) Choose(now sim.Time, cur uint8, ests []PathEstimate) uint8 {
	var fastest *PathEstimate
	for i := range ests {
		if e := &ests[i]; usable(e, now, p.StaleAfter) && (fastest == nil || e.OWDMs < fastest.OWDMs) {
			fastest = e
		}
	}
	if fastest == nil {
		return cur
	}
	var best, curEst *PathEstimate
	for i := range ests {
		e := &ests[i]
		if !usable(e, now, p.StaleAfter) {
			continue
		}
		if e.ID == cur {
			curEst = e
		}
		if p.MaxOWDPenaltyMs > 0 && e.OWDMs > fastest.OWDMs+p.MaxOWDPenaltyMs {
			continue
		}
		if best == nil || e.JitterMs < best.JitterMs {
			best = e
		}
	}
	return p.settle(now, p.MinDwell, cur, best.ID, curEst != nil,
		curEst != nil && best.JitterMs <= curEst.JitterMs)
}

// Static always uses one path — the "BGP default" baseline when pointed
// at the default path's tunnel.
type Static struct{ ID uint8 }

// Choose implements Policy.
func (p *Static) Choose(sim.Time, uint8, []PathEstimate) uint8 { return p.ID }

// Controller is the sender-side decision loop: it keeps per-path
// estimates fresh from the receiver's piggybacked reports and re-runs the
// policy on a fixed cadence, installing its choice as the switch's
// selector.
type Controller struct {
	sw     *dataplane.Switch
	policy Policy
	eng    *sim.Engine

	ests map[uint8]*PathEstimate
	// order holds the same entries as ests, kept sorted by path ID: new
	// IDs are spliced in on first report (rare — once per path lifetime),
	// so snapshots never re-sort. scratch is the decision loop's reusable
	// snapshot buffer; decide runs every tick for the whole simulation, so
	// it must not allocate or sort per tick.
	order   []*PathEstimate
	scratch []PathEstimate
	current uint8
	haveCur bool
	tick    *sim.Ticker

	// OnSwitch fires when the controller moves traffic between paths.
	OnSwitch func(at sim.Time, from, to uint8)

	// cobs is the instrument set Stats is counted beside: the registered
	// one after Instrument, the shared all-nil noCtlObs before. journal
	// is nil until Instrument (Record on a nil journal is a no-op).
	cobs    *ctlObs
	journal *obs.Journal

	Stats struct {
		Decisions uint64
		Switches  uint64
	}
}

// ctlObs is the controller's registered instrument set. The per-path
// gauges mirror the Estimates() snapshot exactly: they are written in
// UpdateEstimate immediately after the estimate's fields (and its slot
// in the sorted order slice) are final, and the switch counter is
// incremented in the same event as Stats.Switches — so at any event
// boundary the gauges, the counter, and the snapshot agree (the obs
// consistency test pins this down).
type ctlObs struct {
	reg  *obs.Registry
	site string

	decisions, switches, reports *obs.Counter
	decideNs                     *obs.Histogram
	current                      *obs.Gauge
	paths                        map[uint8]*pathGauges
}

// pathGauges mirrors one PathEstimate.
type pathGauges struct {
	owd, jitter, samples *obs.Gauge
}

// noCtlObs is what an uninstrumented controller counts into: shared,
// never written (pathGauges registers nothing without a registry).
var noCtlObs = &ctlObs{}

// Instrument registers the controller's metrics in reg under the given
// site label and starts journaling path switches (old/new tunnel plus
// OWD delta) to j. Paths already estimated register immediately; new
// paths register on their first report.
func (c *Controller) Instrument(reg *obs.Registry, j *obs.Journal, site string) {
	l := obs.L("site", site)
	co := &ctlObs{
		reg:  reg,
		site: site,
		decisions: reg.Counter("tango_controller_decisions_total",
			"Decision-loop ticks executed.", l),
		switches: reg.Counter("tango_controller_switches_total",
			"Times the controller moved data traffic between paths.", l),
		reports: reg.Counter("tango_controller_reports_total",
			"Piggybacked path reports folded into estimates.", l),
		decideNs: reg.Timer("tango_controller_decide_ns",
			"Wall-clock duration of one decision tick, nanoseconds; sampled 1 in 8, each sample counted 8 times.", l),
		current: reg.Gauge("tango_controller_current_path",
			"Path ID currently carrying data traffic.", l),
		paths: make(map[uint8]*pathGauges),
	}
	c.cobs = co
	c.journal = j
	for id, e := range c.ests {
		co.pathGauges(id).set(e)
	}
	co.current.Set(float64(c.Current()))
}

// pathGauges returns (registering on first use) the gauges for a path,
// or nil when there is no registry to register them in.
func (co *ctlObs) pathGauges(id uint8) *pathGauges {
	pg, ok := co.paths[id]
	if !ok && co.reg != nil {
		ls := []obs.Label{obs.L("site", co.site), obs.L("path", strconv.Itoa(int(id)))}
		pg = &pathGauges{
			owd: co.reg.Gauge("tango_estimate_owd_ms",
				"Sender-side smoothed OWD estimate by outgoing path, milliseconds (receiver clock domain).", ls...),
			jitter: co.reg.Gauge("tango_estimate_jitter_ms",
				"Sender-side smoothed jitter estimate by outgoing path, milliseconds.", ls...),
			samples: co.reg.Gauge("tango_estimate_samples",
				"Sample count behind the latest report for this path.", ls...),
		}
		co.paths[id] = pg
	}
	return pg
}

// set mirrors one estimate into its gauges. Safe on a nil receiver.
func (pg *pathGauges) set(e *PathEstimate) {
	if pg == nil {
		return
	}
	pg.owd.Set(e.OWDMs)
	pg.jitter.Set(e.JitterMs)
	pg.samples.Set(float64(e.Samples))
}

// NewController creates a controller for sw (the local switch whose
// outgoing traffic is being steered).
func NewController(eng *sim.Engine, sw *dataplane.Switch, policy Policy) *Controller {
	c := &Controller{sw: sw, policy: policy, eng: eng, ests: make(map[uint8]*PathEstimate), cobs: noCtlObs}
	// Until the first decision, traffic uses the first tunnel (the BGP
	// default path by construction).
	sw.SetSelector(func([]byte) *dataplane.Tunnel {
		return c.currentTunnel()
	})
	return c
}

func (c *Controller) currentTunnel() *dataplane.Tunnel {
	if c.haveCur {
		if t, ok := c.sw.Tunnel(c.current); ok {
			return t
		}
	}
	ts := c.sw.Tunnels()
	if len(ts) == 0 {
		return nil
	}
	return ts[0]
}

// Current returns the path ID currently carrying data traffic.
func (c *Controller) Current() uint8 {
	if t := c.currentTunnel(); t != nil {
		return t.PathID
	}
	return 0
}

// AttachFeedback consumes piggybacked reports arriving on the local
// switch (i.e. measurements of this controller's outgoing paths made by
// the peer).
func (c *Controller) AttachFeedback(local *dataplane.Switch) {
	local.OnReport = func(r packet.OWDReport) {
		c.UpdateEstimate(r.PathID,
			float64(r.MeanOWDNano)/float64(time.Millisecond),
			float64(r.JitterNano)/float64(time.Millisecond),
			r.SampleCount)
	}
}

// UpdateEstimate folds in an estimate for a path (jitterMs may be 0 when
// the report format does not carry it).
func (c *Controller) UpdateEstimate(id uint8, owdMs, jitterMs float64, samples uint16) {
	e, ok := c.ests[id]
	if !ok {
		e = &PathEstimate{ID: id}
		c.ests[id] = e
		i := sort.Search(len(c.order), func(i int) bool { return c.order[i].ID >= id })
		c.order = append(c.order, nil)
		copy(c.order[i+1:], c.order[i:])
		c.order[i] = e
	}
	e.OWDMs = owdMs
	if jitterMs > 0 {
		e.JitterMs = jitterMs
	}
	e.Samples = samples
	e.UpdatedAt = c.eng.Now()
	e.Valid = true
	c.cobs.reports.Inc()
	// Gauges mirror the estimate only after every field (and the order
	// slice) is final, so a concurrent scrape never sees a gauge ahead of
	// what Estimates() would return at this event boundary.
	c.cobs.pathGauges(id).set(e)
}

// Estimates returns a snapshot of every known path estimate, sorted by
// path ID. The decision loop feeds this to the policy (map iteration
// order must never leak into a tie-break), and chaos invariant checkers
// read it to judge convergence. The order is maintained incrementally as
// paths first report, so a snapshot is a straight copy — no per-call
// sort.
func (c *Controller) Estimates() []PathEstimate {
	return c.estimatesInto(make([]PathEstimate, 0, len(c.order)))
}

func (c *Controller) estimatesInto(dst []PathEstimate) []PathEstimate {
	for _, e := range c.order {
		dst = append(dst, *e)
	}
	return dst
}

// Start begins the decision loop with the given cadence.
func (c *Controller) Start(every time.Duration) {
	if c.tick != nil {
		c.tick.Stop()
	}
	c.tick = sim.NewTicker(c.eng, every, func(now sim.Time) { c.decide(now) })
}

// Stop halts the decision loop.
func (c *Controller) Stop() {
	if c.tick != nil {
		c.tick.Stop()
	}
}

func (c *Controller) decide(now sim.Time) {
	co := c.cobs
	t0 := co.decideNs.Start()
	c.scratch = c.estimatesInto(c.scratch[:0])
	ests := c.scratch
	cur := c.Current()
	next := c.policy.Choose(now, cur, ests)
	if _, ok := c.sw.Tunnel(next); ok {
		if !c.haveCur || next != c.current {
			from := cur
			c.current = next
			c.haveCur = true
			if next != from {
				c.Stats.Switches++
				co.switches.Inc()
				co.current.Set(float64(next))
				c.journal.Record(now, obs.KindPathSwitch, from, next,
					owdDeltaNs(ests, from, next), co.site)
				if c.OnSwitch != nil {
					c.OnSwitch(now, from, next)
				}
			}
		}
	}
	c.Stats.Decisions++
	co.decisions.Inc()
	co.decideNs.ObserveSince(t0)
}

// owdDeltaNs returns (to - from) OWD in nanoseconds from a snapshot —
// negative when the switch improved delay. Missing or invalid estimates
// contribute zero (a switch forced by a dead path has no defined delta).
func owdDeltaNs(ests []PathEstimate, from, to uint8) int64 {
	var fromMs, toMs float64
	var haveFrom, haveTo bool
	for i := range ests {
		e := &ests[i]
		if !e.Valid {
			continue
		}
		if e.ID == from {
			fromMs, haveFrom = e.OWDMs, true
		}
		if e.ID == to {
			toMs, haveTo = e.OWDMs, true
		}
	}
	if !haveFrom || !haveTo {
		return 0
	}
	return int64((toMs - fromMs) * float64(time.Millisecond))
}
