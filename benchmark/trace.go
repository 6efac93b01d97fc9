package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/packet"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer that are reachable from outside: nothing in the program under
// test knows it is being traced. A span is named after the boundary it
// brackets and charged to the layer that does the work behind it.

type spanName uint8

const (
	spanSend     spanName = iota // generator -> Switch.SendToPeer (whole sender program)
	spanSelect                   // Selector call inside the sender program
	spanInject                   // Endpoint.InjectBuf: hand-off to the transport
	spanHandle                   // transport -> Switch handler (whole receiver program)
	spanIngest                   // Switch.OnMeasure -> Monitor.Ingest
	spanReport                   // Switch.OnReport -> Controller.UpdateEstimate
	spanSink                     // Switch.DeliverLocal -> site sinks (flow table accounting)
	spanDecide                   // Policy.Choose inside a controller tick
	spanSchedule                 // Endpoint.Schedule
	spanEpoch                    // one coordinator epoch, barrier to barrier
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spanSend:     {"dataplane.send", "dataplane"},
	spanSelect:   {"control.select", "control"},
	spanInject:   {"transport.inject", "transport"},
	spanHandle:   {"dataplane.handle", "dataplane"},
	spanIngest:   {"control.ingest", "control"},
	spanReport:   {"control.report", "control"},
	spanSink:     {"workload.sink", "workload"},
	spanDecide:   {"control.decide", "control"},
	spanSchedule: {"transport.schedule", "transport"},
	spanEpoch:    {"sim.epoch", "sim"},
}

// span is one recorded interval. Times are nanoseconds since the tracer
// set's epoch; parent is the ring sequence number of the enclosing span
// (-1 at top level), and pkt identifies the packet the span worked on.
type span struct {
	name       spanName
	start, end int64
	parent     int64
	pkt        uint64
	children   int64 // summed duration of direct child spans
}

// ringSize bounds what one tracer keeps, and traceFileSpans what
// trace.json holds (the most recent spans of all tracers together); the
// per-name aggregates below are accumulated as spans end, so the cost sheet
// never depends on what a ring still holds.
const (
	ringSize       = 1 << 14
	traceFileSpans = 20000
)

// spanAgg accumulates one span name's totals.
type spanAgg struct {
	count uint64
	total int64 // summed duration
	self  int64 // summed duration minus direct children
}

// tracer records the spans of one single-threaded event world (a sim
// partition, or one UDP backend under its event lock). It is not safe for
// concurrent use; tracerSet hands out one per world.
type tracer struct {
	epoch time.Time
	on    bool
	ring  []span
	seq   int64   // spans begun so far; ring index is seq % ringSize
	open  []int64 // stack of open span sequence numbers
	agg   [numSpanNames]spanAgg
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, ring: make([]span, ringSize), open: make([]int64, 0, 16)}
}

// begin opens a span and returns its handle (-1 while tracing is paused).
func (t *tracer) begin(name spanName, pkt uint64) int64 {
	if t == nil || !t.on {
		return -1
	}
	id := t.seq
	t.seq++
	parent := int64(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, id)
	s := &t.ring[id%ringSize]
	*s = span{name: name, parent: parent, pkt: pkt}
	s.start = int64(time.Since(t.epoch))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	s := &t.ring[id%ringSize]
	s.end = now
	d := now - s.start
	a := &t.agg[s.name]
	a.count++
	a.total += d
	a.self += d - s.children
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
	if s.parent >= 0 && t.seq-s.parent <= ringSize {
		t.ring[s.parent%ringSize].children += d
	}
}

// traceSwitch wraps what a wired switch exports — its OnMeasure and
// OnReport hook fields and its selector — with spans on tr. Call it on the
// switch's event goroutine once the measurement loop is attached.
func traceSwitch(sw *dataplane.Switch, ctl *control.Controller, tr *tracer) {
	if orig := sw.OnMeasure; orig != nil {
		sw.OnMeasure = func(m dataplane.Measurement) {
			id := tr.begin(spanIngest, 0)
			orig(m)
			tr.end(id)
		}
	}
	if orig := sw.OnReport; orig != nil {
		sw.OnReport = func(rep packet.OWDReport) {
			id := tr.begin(spanReport, 0)
			orig(rep)
			tr.end(id)
		}
	}
	// The controller's own selector cannot be read back to wrap it; this
	// one resolves the same tunnel the same way.
	sw.SetSelector(func([]byte) *dataplane.Tunnel {
		id := tr.begin(spanSelect, 0)
		t, _ := sw.Tunnel(ctl.Current())
		tr.end(id)
		return t
	})
}

// tracerSet owns the tracers of one traced run: one per partition on a
// sharded simulation (partitions run on different goroutines), one per
// backend on the socket workload.
type tracerSet struct {
	epoch   time.Time
	tracers []*tracer
}

func newTracerSet(n int) *tracerSet {
	ts := &tracerSet{epoch: time.Now()}
	for i := 0; i < n; i++ {
		ts.tracers = append(ts.tracers, newTracer(ts.epoch))
	}
	return ts
}

// forPart returns the tracer of partition i (growing the set on demand:
// the partition count is only known once the topology is built).
func (ts *tracerSet) forPart(i int) *tracer {
	for len(ts.tracers) <= i {
		ts.tracers = append(ts.tracers, newTracer(ts.epoch))
	}
	return ts.tracers[i]
}

// enable switches recording on or off everywhere. Call between runs only.
func (ts *tracerSet) enable(on bool) {
	for _, t := range ts.tracers {
		t.on = on
	}
}

// totals merges every tracer's aggregates.
func (ts *tracerSet) totals() [numSpanNames]spanAgg {
	var out [numSpanNames]spanAgg
	for _, t := range ts.tracers {
		for n := range out {
			out[n].count += t.agg[n].count
			out[n].total += t.agg[n].total
			out[n].self += t.agg[n].self
		}
	}
	return out
}

// spanCost measures how much of the cost of recording one span lands
// inside the span itself (between its two clock reads), in nanoseconds.
// Span self times are corrected by it.
func spanCost() float64 {
	t := newTracer(time.Now())
	t.on = true
	const n = 200_000
	for i := 0; i < n; i++ {
		t.end(t.begin(spanSend, 0))
	}
	return float64(t.agg[spanSend].total) / n
}

type spanJSON struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	World  int    `json:"world"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Packet uint64 `json:"packet"`
}

// writeJSON dumps the most recent spans still in the rings, oldest first.
func (ts *tracerSet) writeJSON(path string) error {
	var out []spanJSON
	for wi, t := range ts.tracers {
		lo := t.seq - ringSize
		if lo < 0 {
			lo = 0
		}
		for id := lo; id < t.seq; id++ {
			s := &t.ring[id%ringSize]
			if s.end == 0 {
				continue
			}
			out = append(out, spanJSON{
				Name: spanInfo[s.name].name, Layer: spanInfo[s.name].layer,
				World: wi, Seq: id, Parent: s.parent,
				Start: s.start, End: s.end, Packet: s.pkt,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	if len(out) > traceFileSpans {
		out = out[len(out)-traceFileSpans:]
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
