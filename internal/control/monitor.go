package control

import (
	"strconv"
	"time"

	"tango/internal/dataplane"
	"tango/internal/measure"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/sim"
)

// PathMonitor accumulates receiver-side statistics for one incoming
// wide-area path. All delay values are in the receiver's clock domain
// (true OWD plus the constant inter-switch clock offset).
type PathMonitor struct {
	ID   uint8
	Name string

	// OWD aggregates every raw sample.
	OWD measure.Welford
	// Est is the smoothed current-delay estimate reported to the peer.
	Est *measure.EWMA
	// Jitter is the paper's 1-second rolling-window metric.
	Jitter *measure.RollingStd
	// JitEst is a smoothed RFC 3550-style delay-variation estimate
	// (EWMA of |successive OWD differences|), used for live reports:
	// unlike the trace-long Jitter metric it tracks current conditions.
	JitEst *measure.EWMA
	// Seq tracks loss/reordering from tunnel sequence numbers.
	Seq measure.SeqTracker
	// Series, when non-nil, records the time series for figures.
	Series *measure.Series

	// owdHist/jitHist are registered by Monitor.Instrument; Ingest
	// observes into them nil-safely, so an uninstrumented monitor pays
	// two branches per sample and nothing else.
	owdHist *obs.Histogram
	jitHist *obs.Histogram

	LastAt  sim.Time
	LastOWD time.Duration
}

// Monitor is the receiver-side measurement engine: it consumes the
// data-plane's per-packet observations and maintains per-path state.
type Monitor struct {
	paths map[uint8]*PathMonitor
	// ordered holds the same paths in ID order, for Paths.
	ordered []*PathMonitor
	// RecordBucket, when positive, attaches a Series with this bucket
	// to every path created afterwards.
	RecordBucket time.Duration

	// reg/site carry the instrumentation target set by Instrument;
	// per-path histograms register in newPath (which already allocates,
	// so registration stays off the per-sample path).
	reg  *obs.Registry
	site string

	Samples uint64
}

// Instrument registers per-path OWD and jitter histograms in reg under
// the given site label. Paths already known register immediately; new
// paths register as they first report. OWD observations are the raw
// per-packet one-way delay in nanoseconds (receiver clock domain);
// jitter observations are the per-sample |successive OWD difference|.
func (m *Monitor) Instrument(reg *obs.Registry, site string) {
	m.reg = reg
	m.site = site
	for id, pm := range m.paths {
		m.instrumentPath(id, pm)
	}
}

func (m *Monitor) instrumentPath(id uint8, pm *PathMonitor) {
	ls := []obs.Label{obs.L("site", m.site), obs.L("path", strconv.Itoa(int(id)))}
	pm.owdHist = m.reg.Histogram("tango_path_owd_ns",
		"Per-packet one-way delay by incoming path, nanoseconds (receiver clock domain).", ls...)
	pm.jitHist = m.reg.Histogram("tango_path_jitter_ns",
		"Per-sample absolute successive OWD difference by incoming path, nanoseconds.", ls...)
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{paths: make(map[uint8]*PathMonitor)}
}

// Attach subscribes the monitor to a switch's measurements. nameFor
// labels path IDs (may be nil).
func (m *Monitor) Attach(sw *dataplane.Switch, nameFor func(uint8) string) {
	sw.OnMeasure = func(meas dataplane.Measurement) {
		m.Ingest(meas, nameFor)
	}
}

// Ingest folds one measurement into the per-path state.
func (m *Monitor) Ingest(meas dataplane.Measurement, nameFor func(uint8) string) {
	pm, ok := m.paths[meas.PathID]
	if !ok {
		name := ""
		if nameFor != nil {
			name = nameFor(meas.PathID)
		}
		pm = m.newPath(meas.PathID, name)
	}
	m.Samples++
	owdMs := float64(meas.OWD) / float64(time.Millisecond)
	pm.OWD.Add(owdMs)
	pm.owdHist.Observe(int64(meas.OWD))
	if pm.OWD.N() > 1 {
		d := owdMs - float64(pm.LastOWD)/float64(time.Millisecond)
		if d < 0 {
			d = -d
		}
		pm.JitEst.Add(d)
		pm.jitHist.Observe(int64(d * float64(time.Millisecond)))
	}
	pm.Est.Add(owdMs)
	pm.Jitter.Add(time.Duration(meas.At), owdMs)
	pm.Seq.Add(meas.Seq)
	if pm.Series != nil {
		pm.Series.Add(time.Duration(meas.At), owdMs)
	}
	pm.LastAt = meas.At
	pm.LastOWD = meas.OWD
}

// The monitor's smoothing: the EWMA weight of the reported estimates and
// the window of the paper's rolling-stddev jitter metric (§5).
const (
	ewmaAlpha    = 0.05
	jitterWindow = time.Second
)

func (m *Monitor) newPath(id uint8, name string) *PathMonitor {
	pm := &PathMonitor{
		ID:     id,
		Name:   name,
		Est:    measure.NewEWMA(ewmaAlpha),
		JitEst: measure.NewEWMA(ewmaAlpha),
		Jitter: measure.NewRollingStd(jitterWindow),
	}
	if m.RecordBucket > 0 {
		pm.Series = measure.NewSeries(name, m.RecordBucket)
	}
	if m.reg != nil {
		m.instrumentPath(id, pm)
	}
	m.paths[id] = pm
	i := len(m.ordered)
	for i > 0 && m.ordered[i-1].ID > id {
		i--
	}
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[i+1:], m.ordered[i:])
	m.ordered[i] = pm
	return pm
}

// Path returns the state for a path ID, or nil.
func (m *Monitor) Path(id uint8) *PathMonitor { return m.paths[id] }

// Paths returns all monitored paths in ID order. The slice is the
// monitor's own, returned without a copy so a report tick allocates
// nothing: callers must not modify it, and it is valid until the next
// path appears.
func (m *Monitor) Paths() []*PathMonitor { return m.ordered }

// Reporter periodically piggybacks the monitor's per-path estimates onto
// data traffic flowing back to the peer (round-robin over paths), closing
// the measurement loop without any probe or control channel: the switch's
// next outbound packet carries the report in its Tango header.
type Reporter struct {
	mon  *Monitor
	back *dataplane.Switch
	eng  *sim.Engine
	tick *sim.Ticker
	next int
	// MaxAge suppresses reports for paths with no packet received for
	// this long — a dead path must go stale at the peer's controller
	// rather than be refreshed with a frozen estimate. 0 disables.
	MaxAge time.Duration
}

// NewReporter starts reporting every interval on the engine driving back.
func NewReporter(eng *sim.Engine, mon *Monitor, back *dataplane.Switch, interval time.Duration) *Reporter {
	r := &Reporter{mon: mon, back: back, eng: eng}
	r.tick = sim.NewTicker(eng, interval, func(sim.Time) { r.emit() })
	return r
}

func (r *Reporter) emit() {
	paths := r.mon.Paths()
	if len(paths) == 0 {
		return
	}
	pm := paths[r.next%len(paths)]
	r.next++
	if !pm.Est.Valid() {
		return
	}
	if r.MaxAge > 0 && r.eng.Now()-pm.LastAt > r.MaxAge {
		return
	}
	n := pm.OWD.N()
	if n > 0xffff {
		n = 0xffff
	}
	r.back.QueueReport(packet.OWDReport{
		PathID:      pm.ID,
		SampleCount: uint16(n),
		MeanOWDNano: int64(pm.Est.Value() * float64(time.Millisecond)),
		JitterNano:  int64(pm.JitEst.Value() * float64(time.Millisecond)),
	})
}

// Stop halts reporting.
func (r *Reporter) Stop() { r.tick.Stop() }
