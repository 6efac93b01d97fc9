package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/workload"
)

// drainVirtual is how long the simulation keeps running after emission
// stops, so packets in flight land before delivery is counted.
const drainVirtual = 3 * time.Second

// simWindow returns the virtual length of a workload's measured window, in
// whole virtual seconds (slices and epochs then line up at every length),
// and its worker count (0 = classic single engine).
func simWindow(name string, seconds int, size sizing) (window time.Duration, workers int) {
	ms := size.meshVirtualMs
	switch name {
	case wlPair:
		ms = size.pairVirtualMs
	case wlMesh:
		workers = 1
	default:
		workers = 2
	}
	v := seconds * ms / 1000
	if v < 1 {
		v = 1
	}
	return time.Duration(v) * time.Second, workers
}

func buildSimWorld(name string, o simOptions) (*simWorld, error) {
	if name == wlPair {
		return newPairWorld(o)
	}
	return newMeshWorld(o)
}

// phaseResult is one measured stretch of the window, whole and by slice.
//
// The reported rates are the fastest decile of the slices, not their mean
// or median, because of the host: a fixed operation that takes 45 µs here
// takes 60 to 90 µs for stretches of milliseconds to minutes, a quarter of
// the time and more (a neighbour on the physical core; the guest sees no
// steal time). Over ten runs the median slice of pair_stream spread 13 %
// around its own median, the slice only a tenth are faster than 3 %: that
// slice ran while nothing was taken away, and there is nearly always one.
type phaseResult struct {
	wall     time.Duration
	cpu      time.Duration
	counts   simCounts
	sliceNs  []float64 // wall ns per delivered packet, one per slice
	sliceCPU []float64 // cpu ns per delivered packet, one per slice
}

// fastDecile is the value only a tenth of xs are below.
func fastDecile(xs []float64) float64 { return percentile(sortedCopy(xs), 0.10) }

// nsPerPkt is the wall time per delivered packet of the fastest decile of
// slices; cpuPerPkt the same for CPU time.
func (p phaseResult) nsPerPkt() float64  { return fastDecile(p.sliceNs) }
func (p phaseResult) cpuPerPkt() float64 { return fastDecile(p.sliceCPU) }

// delivered returns the packets delivered so far, all tables.
func (w *simWorld) delivered() uint64 {
	var n uint64
	for _, t := range w.tables {
		n += t.Totals().Delivered
	}
	return n
}

// measure runs the world for a stretch of virtual time, one slice at a
// time, and returns what the slices cost.
func (w *simWorld) measure(virtual time.Duration) phaseResult {
	var p phaseResult
	c0 := w.counts()
	for left := virtual; left > 0; left -= w.slice {
		d0, cpu0, t0 := w.delivered(), cpuTime(), time.Now()
		w.run(min(left, w.slice))
		wall, cpu, d := time.Since(t0), cpuTime()-cpu0, w.delivered()-d0
		p.wall += wall
		p.cpu += cpu
		if d > 0 {
			p.sliceNs = append(p.sliceNs, float64(wall.Nanoseconds())/float64(d))
			p.sliceCPU = append(p.sliceCPU, float64(cpu.Nanoseconds())/float64(d))
		}
	}
	p.counts = w.counts().sub(c0)
	return p
}

// runSim runs one simulated workload once.
func runSim(name string, seed int64, seconds int, trace bool, spec *Spec, size sizing) (*Run, error) {
	r := &Run{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Counts: map[string]float64{}}
	window, workers := simWindow(name, seconds, size)
	o := simOptions{size: size, seed: seed, window: window, workers: workers}

	var micros map[string]microResult
	if trace {
		var err error
		if micros, err = runMicros(size); err != nil {
			return nil, err
		}
		r.Micros = micros
		o.tracers = newTracerSet(1)
	}

	// An untraced run builds its world several times, some before the
	// window and the rest after it, so that its set-ups sample the host at
	// moments seconds apart, and reports the fastest (see phaseResult for
	// why the fastest). The last world built before the window is the one
	// measured.
	reps := size.setupReps
	if name == wlPair {
		reps *= 3 // this world builds in a seventh of a second
	}
	if trace {
		reps = 1 // setup_s is an end-to-end metric; a traced run reports the stages of one set-up
	}
	var setups []float64
	build := func() (*simWorld, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := buildSimWorld(name, o)
		setups = append(setups, time.Since(t0).Seconds())
		return w, err
	}
	var w *simWorld
	for i := 0; i < (reps+1)/2; i++ {
		var err error
		if w, err = build(); err != nil {
			return nil, err
		}
	}
	updatesAtSetup := w.bgpUpdates()

	values := map[string]float64{}
	var total phaseResult
	if !trace {
		total = w.measure(window)
	} else {
		var err error
		if total, err = w.tracedWindow(r, name, window, workers, o.tracers, micros, values); err != nil {
			return nil, err
		}
	}

	w.run(drainVirtual)
	if w.chaos != nil {
		w.chaos.StopChecks()
		w.chaos.CheckNow()
	}
	perClass, all := w.totals()
	r.Attempted = all.Sent
	r.Digest = w.digest(perClass)
	w.outputChecks(r, all, total.counts)

	delivered := float64(total.counts.delivered)
	if delivered == 0 {
		return nil, fmt.Errorf("%s delivered nothing in its window", name)
	}
	if !trace {
		// The measured world is dead from here on, so the builds below do
		// not add to peak memory.
		for len(setups) < reps {
			if _, err := build(); err != nil {
				return nil, err
			}
		}
		values["setup_s"] = fastDecile(setups)
		values["pkts_per_s"] = 1e9 / total.nsPerPkt()
		values["cpu_us_per_pkt"] = total.cpuPerPkt() / 1e3
		values["peak_rss_mb"] = peakRSSMiB()
		values["delivered_share"] = float64(all.Delivered) / float64(all.Sent)
		r.Counts["window_wall_s"] = total.wall.Seconds()
		r.SliceNs = total.sliceNs
		if err := r.setMetrics(spec.EndToEnd, values); err != nil {
			return nil, err
		}
	} else {
		for stage, s := range w.stage {
			values[stage] = s
		}
		values["bgp.updates"] = float64(updatesAtSetup)
		values["control.discover_rounds"] = float64(w.discoverRounds)
		values["control.discover_announcements"] = float64(w.discoverAnnouncements)
		values["obs.scrape_us"] = scrapeMicros(w.reg)
		r.Counts["setup_s"] = setups[0]
		if workers > 1 {
			if err := parSpeedup(r, name, o, total, values); err != nil {
				return nil, err
			}
		}
		fillAbsent(values, spec.PerLayer)
		if err := r.setMetrics(spec.PerLayer, values); err != nil {
			return nil, err
		}
	}
	r.Counts["virtual_window_s"] = window.Seconds()
	r.Counts["delivered_in_window"] = delivered
	r.Counts["offered"] = float64(all.Sent)
	r.Counts["delivered"] = float64(all.Delivered)
	r.finish()
	return r, nil
}

// parSpeedup builds the same world a second time, runs the same window on
// one worker, and compares the two second by second: sim.par_speedup is
// the median over the window's virtual seconds of one-worker wall time ÷
// this run's wall time for that second. The seconds this run spent under
// the profiler or with spans on carry that overhead, so the figure errs
// low by the overhead shares reported beside it. The reference must also
// have simulated exactly the same thing.
func parSpeedup(r *Run, name string, o simOptions, par phaseResult, values map[string]float64) error {
	workers := o.workers
	o.workers, o.tracers = 1, nil
	runtime.GC()
	ref, err := buildSimWorld(name, o)
	if err != nil {
		return err
	}
	one := ref.measure(o.window)
	ref.run(drainVirtual)
	ref.chaos.StopChecks()
	ref.chaos.CheckNow()
	perClass, _ := ref.totals()
	refDigest := ref.digest(perClass)
	r.check("one worker and two simulate the same thing", refDigest == r.Digest,
		"digest on one worker %s, on %d workers %s", refDigest, workers, r.Digest)
	if len(one.sliceNs) != len(par.sliceNs) {
		return fmt.Errorf("%s: reference ran %d seconds with deliveries, this run %d", name, len(one.sliceNs), len(par.sliceNs))
	}
	ratios := make([]float64, len(one.sliceNs))
	for i := range ratios {
		ratios[i] = one.sliceNs[i] / par.sliceNs[i]
	}
	values["sim.par_speedup"] = median(ratios)
	values["sim.par_efficiency"] = median(ratios) / float64(workers)
	return nil
}

// fillAbsent reports 0 for every per-layer metric this workload has no
// value for: the contract wants every name in every traced result, and a
// layer that is not on a workload's path did no work there. The README
// lists which metrics are defined on which workload.
func fillAbsent(values map[string]float64, want []SpecMetric) {
	for _, m := range want {
		if _, ok := values[m.Name]; !ok {
			values[m.Name] = 0
		}
	}
}

// outputChecks are the checks that fail a simulated run.
func (w *simWorld) outputChecks(r *Run, all workload.FlowClassStats, win simCounts) {
	lost := all.Sent - all.Delivered
	if w.chaos != nil {
		vs := w.chaos.Violations()
		first := ""
		if len(vs) > 0 {
			first = vs[0].String()
		}
		r.check("chaos invariants", w.chaos.Invariants() == 2 && len(vs) == 0,
			"%d invariants watched, %d violations %s", w.chaos.Invariants(), len(vs), first)
	}
	// A packet dropped on a trunk the storm had faulted is the workload's
	// input; a packet missing without an entry in the network's own drop
	// ledger is a failed operation.
	final := w.counts()
	explained := final.netDrops
	if lost > explained {
		r.Failed = lost - explained
	}
	r.check("every missing packet is in the network's drop ledger", r.Failed == 0,
		"offered %d, delivered %d, missing %d, ledger %d", all.Sent, all.Delivered, lost, explained)
	r.check("no duplicate deliveries, no refused flows", all.Dups == 0 && all.Refused == 0,
		"dups %d, refused %d", all.Dups, all.Refused)
	r.check("traffic flowed the whole window", win.delivered > 0 && win.sent > 0,
		"%d sent, %d delivered in the window", win.sent, win.delivered)
}

// wallClockFamilies are the obs families that measure host time; they are
// the only instruments that differ between two runs of one seed, so the
// digest leaves them out (the same list internal/experiments drops).
var wallClockFamilies = []string{
	"tango_dataplane_encap_ns",
	"tango_dataplane_decap_ns",
	"tango_controller_decide_ns",
}

// digest hashes everything a seeded run must reproduce exactly: the
// deterministic obs snapshot, the trace journal, and the per-class flow
// counters.
func (w *simWorld) digest(perClass [workload.NumClasses]workload.FlowClassStats) string {
	h := sha256.New()
	snap := w.reg.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		wall := false
		for _, fam := range wallClockFamilies {
			wall = wall || strings.HasPrefix(k, fam)
		}
		if !wall {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, snap[k])
	}
	if err := w.journal.WriteJSON(h, 0); err != nil {
		panic(err) // a hash never fails to write
	}
	for c, s := range perClass {
		fmt.Fprintf(h, "class %d: %d %d %d %d %d\n", c, s.Sent, s.Delivered, s.Dups, s.Gaps, s.Refused)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// medianMicros times fn five times and returns the median in µs.
func medianMicros(fn func()) float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs)
}

// scrapeMicros times one Prometheus exposition of reg.
func scrapeMicros(reg *obs.Registry) float64 {
	return medianMicros(func() { _ = reg.WritePrometheus(io.Discard) }) // io.Discard cannot fail
}

// installHooks wraps the hook points every member switch exports, so a
// traced run sees monitor ingests, report feedback, local delivery and
// path selection as spans on the tracer of the partition they run on.
func (w *simWorld) installHooks(ts *tracerSet) {
	for _, s := range w.sites {
		tr := ts.forPart(s.Eng().Part())
		traceSwitch(s.Switch, s.Controller, tr)
		deliver := s.Switch.DeliverLocal
		s.Switch.DeliverLocal = func(inner []byte) {
			var pkt uint64
			if len(inner) >= 56 {
				pkt = binary.BigEndian.Uint64(inner[48:56]) // flow sequence and flow word
			}
			id := tr.begin(spanSink, pkt)
			deliver(inner)
			tr.end(id)
		}
	}
}

// epochTimes records barrier timestamps while a traced phase runs.
type epochTimes struct {
	on bool
	at []time.Time
}

// tracedWindow runs the window of a traced run in three parts: plain
// (the untraced reference), under the CPU profiler (in-situ self time per
// layer), and with span recording on. It fills the per-layer values that
// come from the window and returns the totals of the whole window.
func (w *simWorld) tracedWindow(r *Run, name string, window time.Duration, workers int,
	ts *tracerSet, micros map[string]microResult, values map[string]float64) (phaseResult, error) {

	w.installHooks(ts)
	coord := w.net.Coord()
	ep := &epochTimes{at: make([]time.Time, 0, 1<<16)}
	epochTr := ts.forPart(len(w.engines))
	if coord != nil {
		open := int64(-1)
		coord.AtBarrier(0, func(sim.Time) {
			if !ep.on {
				return
			}
			if len(ep.at) < cap(ep.at) {
				ep.at = append(ep.at, time.Now())
			}
			epochTr.end(open)
			open = epochTr.begin(spanEpoch, 0)
		})
	}

	// A quarter plain, half profiled (the profiler samples at 100 Hz, so it
	// gets the longest part), the rest with spans on.
	quarter := (window / 4).Truncate(time.Second)
	if quarter < time.Second {
		quarter = time.Second
	}
	half := (window / 2).Truncate(time.Second)
	var ms0, ms1 runtime.MemStats

	// Part A: plain.
	runtime.ReadMemStats(&ms0)
	plain := w.measure(quarter)
	runtime.ReadMemStats(&ms1)

	// Part B: profiled.
	var profiled phaseResult
	prof, err := profileWindow(func() { profiled = w.measure(half) })
	if err != nil {
		return phaseResult{}, err
	}

	// Part C: spans on.
	ts.enable(true)
	ep.on = true
	spanned := w.measure(window - quarter - half)
	ep.on = false
	ts.enable(false)

	total := addPhase(addPhase(plain, profiled), spanned)
	c := plain.counts
	pk := float64(c.delivered)
	if pk == 0 {
		return total, fmt.Errorf("%s delivered nothing in the plain part of its window", name)
	}
	values["simnet.hops_per_pkt"] = float64(c.lineTx) / pk
	if c.lineTx > 0 {
		values["simnet.cross_share"] = float64(c.crossTx) / float64(c.lineTx)
	}
	values["sim.events_per_pkt"] = float64(c.fired) / pk
	values["sim.ns_per_event"] = float64(plain.wall.Nanoseconds()) / float64(c.fired)
	values["sim.epochs"] = float64(total.counts.epochs)
	if total.counts.epochs > 0 {
		values["sim.cross_msgs_per_epoch"] = float64(total.counts.crossMsgs) / float64(total.counts.epochs)
	}
	if len(ep.at) > 1 {
		gaps := make([]float64, 0, len(ep.at)-1)
		for i := 1; i < len(ep.at); i++ {
			gaps = append(gaps, float64(ep.at[i].Sub(ep.at[i-1]).Nanoseconds())/1e3)
		}
		sort.Float64s(gaps)
		values["sim.epoch_wall_us_p50"] = percentile(gaps, 0.50)
		values["sim.epoch_wall_us_p99"] = percentile(gaps, 0.99)
		r.Counts["epoch_samples"] = float64(len(gaps))
	}
	values["dataplane.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / pk
	values["benchmark.trace_overhead_share"] = spanned.nsPerPkt()/plain.nsPerPkt() - 1
	for name, m := range micros {
		values[name] = m.Median
	}
	if w.chaos != nil {
		values["chaos.check_us"] = medianMicros(w.chaos.CheckNow)
	}

	effWorkers := 1
	if workers > 1 {
		effWorkers = workers
	}
	sheet := buildCostSheet(name, effWorkers, plain, profiled, spanned, prof, ts, simModelRows(name, c, micros, values["chaos.check_us"]))
	r.CostSheet = sheet
	sheet.fill(values)
	r.Counts["profile_overhead_share"] = profiled.nsPerPkt()/plain.nsPerPkt() - 1

	if err := ts.writeJSON(traceFile(name)); err != nil {
		return total, fmt.Errorf("trace.json: %w", err)
	}
	return total, nil
}

func addPhase(a, b phaseResult) phaseResult {
	a.wall += b.wall
	a.cpu += b.cpu
	a.sliceNs = append(append([]float64(nil), a.sliceNs...), b.sliceNs...)
	a.sliceCPU = append(append([]float64(nil), a.sliceCPU...), b.sliceCPU...)
	a.counts = a.counts.add(b.counts)
	return a
}

// modelRow is one count × unit-cost row of the prediction.
func modelRow(layer, what string, countPerPkt, unitNs float64) costRow {
	return costRow{Layer: layer, Name: what, CountPerPkt: countPerPkt, UnitNs: unitNs, NsPerPkt: countPerPkt * unitNs}
}

// stackModelRows predicts what the Tango stack itself (packet, dataplane,
// obs, control) costs per delivered packet from unit costs and exact
// counts alone: count per delivered packet × the micro that measures one
// such operation. dataSize names the micros that match the data packets
// ("1k" or "64"); probes always use the 64 B ones.
func stackModelRows(dataSize string, c simCounts, micros map[string]microResult) []costRow {
	pk := float64(c.delivered)
	u := func(metric string) float64 { return micros[metric].Median }
	per := func(n uint64) float64 { return float64(n) / pk }
	dataEncaps := c.encapped - c.probes
	dataDecaps := c.delivered
	otherDecaps := c.decapped - dataDecaps
	obsShare := u("dataplane.obs_overhead_ns") / 2
	encSelf := func(sz string) float64 {
		return u("dataplane.encap_ns_"+sz) - u("packet.serialize_ns_"+sz) - obsShare
	}
	decSelf := func(sz string) float64 {
		return u("dataplane.decap_ns_"+sz) - u("packet.parse_ns") - u("packet.verify_ns_"+sz) - obsShare
	}
	return []costRow{
		modelRow("packet", "serialize+checksum, data", per(dataEncaps), u("packet.serialize_ns_"+dataSize)),
		modelRow("packet", "serialize+checksum, probes", per(c.probes), u("packet.serialize_ns_64")),
		modelRow("packet", "parse", per(c.decapped), u("packet.parse_ns")),
		modelRow("packet", "verify checksum, data", per(dataDecaps), u("packet.verify_ns_"+dataSize)),
		modelRow("packet", "verify checksum, probes", per(otherDecaps), u("packet.verify_ns_64")),
		modelRow("dataplane", "sender program less packet+obs, data", per(dataEncaps), encSelf(dataSize)),
		modelRow("dataplane", "sender program less packet+obs, probes", per(c.probes), encSelf("64")),
		modelRow("dataplane", "receiver program less packet+obs, data", per(dataDecaps), decSelf(dataSize)),
		modelRow("dataplane", "receiver program less packet+obs, probes", per(otherDecaps), decSelf("64")),
		modelRow("obs", "encap/decap instrumentation", per(c.encapped+c.decapped), obsShare),
		modelRow("control", "monitor ingest", per(c.ingests), u("control.ingest_ns")),
		modelRow("control", "select", per(dataEncaps), u("control.select_ns")),
		modelRow("control", "decide", per(c.decisions), u("control.decide_ns")),
	}
}

// simModelRows adds the simulator's own layers to the stack's rows.
func simModelRows(name string, c simCounts, micros map[string]microResult, chaosCheckUs float64) []costRow {
	pk := float64(c.delivered)
	u := func(metric string) float64 { return micros[metric].Median }
	per := func(n uint64) float64 { return float64(n) / pk }
	dataSize := "64"
	if name == wlPair {
		dataSize = "1k"
	}
	return append(stackModelRows(dataSize, c, micros),
		modelRow("simnet", "link traversal less its event", per(c.lineTx), u("simnet.link_ns")-u("sim.sched_fire_ns")),
		modelRow("sim", "schedule+fire", per(c.fired), u("sim.sched_fire_ns")),
		modelRow("sim", "batch wheel add+drain", per(c.sent), u("sim.batch_ns")),
		modelRow("workload", "emit", per(c.sent), u("workload.emit_ns")),
		modelRow("workload", "sink", per(c.delivered), u("workload.sink_ns")),
		modelRow("chaos", "invariant check", per(c.chaosChecks), chaosCheckUs*1e3),
	)
}
