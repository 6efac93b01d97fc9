package experiments

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/measure"
	"tango/internal/perf"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/workload"
)

// E6InOrderImpact quantifies the §5 argument that during an instability
// window, in-order (TCP-like) delivery amplifies spikes — "future
// application packets will be delivered out-of-order ... and the
// application-layer data stream will be held up by the slow packet" — so
// switching away from the spiky path wins even though its *mean* raw
// delay barely moves.
func E6InOrderImpact(cfg Config) *Result {
	r := newResult("E6", "In-order delivery impact during instability; stay vs switch (§5)")

	var chs []*chaos.Engine // both runs' engines, for the invariant check
	run := func(adaptive bool, seed int64) (rawMean, inOrderMean, inOrderP99 float64, vt time.Duration) {
		o := labOpts{
			seed:          seed,
			probeInterval: probeInterval,
			decideEvery:   time.Second,
		}
		if adaptive {
			// A mean-delay policy would rationally *stay*: even
			// spiking, GTT's mean beats Telia's. The paper's argument
			// is about delay variation, so the adaptive strategy is
			// jitter-aware (within a 2 ms delay budget).
			o.policyNY = &control.MinJitter{MaxOWDPenaltyMs: 2}
		} else {
			// Static best-at-start: GTT is path 3 in NY's tunnel set.
			o.policyNY = &control.Static{ID: 3}
		}
		l := newLab(o)
		chs = append(chs, l.Chaos)

		lead := cfg.dur(3 * time.Minute)
		eventAt := l.S.B.W.Now() + lead
		eventDur := 5 * time.Minute
		l.Chaos.Schedule(chaos.Instability("trunk/la/GTT", eventAt, eventDur,
			simnet.SpikeDelay{Prob: 0.15, Mean: 16 * time.Millisecond, Cap: 47500 * time.Microsecond},
			2*time.Millisecond, 1500*time.Microsecond))

		// A 20 ms-period application stream NY->LA (drone telemetry
		// rate), measured in ground-truth virtual time.
		srcHost, _ := l.Pair.A.Spec.HostPrefix.Host(9)
		dstHost, _ := l.Pair.B.Spec.HostPrefix.Host(9)
		g := workload.NewAppGen(l.S.B.Eng(), l.Pair.A.Switch, srcHost, dstHost, 20*time.Millisecond, 256)
		l.Pair.B.AddSink(g.Sink)

		total := lead + eventDur + 2*time.Minute
		l.run(total)
		g.Stop()
		l.run(time.Second)

		// Only packets sent during the instability window count.
		var during []workload.AppRecord
		for _, rec := range g.FinalRecords() {
			if rec.SentAt >= eventAt && rec.SentAt < eventAt+eventDur {
				during = append(during, rec)
			}
		}
		var raw measure.Welford
		for _, rec := range during {
			if rec.RecvAt != 0 {
				raw.Add(ms(rec.Latency))
			}
		}
		lats := workload.InOrderLatencies(during)
		var inOrder measure.Welford
		res := measure.NewReservoir(8192, uint64(seed))
		for _, lat := range lats {
			inOrder.Add(ms(lat))
			res.Add(ms(lat))
		}
		l.snapshot(r) // adaptive run's snapshot wins (it runs second)
		return raw.Mean(), inOrder.Mean(), res.Quantile(0.99), total
	}

	rawStay, ioStay, p99Stay, vt := run(false, cfg.Seed+4)
	rawSwitch, ioSwitch, p99Switch, _ := run(true, cfg.Seed+4)
	r.VirtualTime = vt * 2

	r.Rows = append(r.Rows, []string{"strategy", "raw mean (ms)", "in-order mean (ms)", "in-order p99 (ms)"})
	r.Rows = append(r.Rows, []string{"stay on GTT (static best)", f2(rawStay), f2(ioStay), f2(p99Stay)})
	r.Rows = append(r.Rows, []string{"Tango adaptive", f2(rawSwitch), f2(ioSwitch), f2(p99Switch)})

	r.check("in-order amplification on spiky path", "stream held up by slow packets",
		ioStay > rawStay+0.3, "in-order %.2f vs raw %.2f ms", ioStay, rawStay)
	r.check("switching beats staying (mean)", "changing path is superior",
		ioSwitch < ioStay, "%.2f vs %.2f ms", ioSwitch, ioStay)
	r.check("switching beats staying (p99)", "tail latency collapses",
		p99Switch < p99Stay*0.8, "%.2f vs %.2f ms", p99Switch, p99Stay)
	r.invariantsHold(chs...)
	return r
}

// E7MeasurementSoundness validates the paper's measurement arguments
// (§3, §4.2): (a) path OWD *differences* are invariant to the inter-
// switch clock offset; (b) round-trip measurement cannot attribute delay
// to a direction, while Tango's one-way measurement can.
func E7MeasurementSoundness(cfg Config) *Result {
	r := newResult("E7", "One-way measurement soundness under clock offset; RTT baseline (§3, §4.2)")
	dur := cfg.dur(5 * time.Minute)

	type obs struct {
		gapNTTGTT float64 // NTT-GTT raw OWD gap at LA (ms)
		gttNYLA   float64 // raw GTT OWD NY->LA
		gttLANY   float64 // raw GTT OWD LA->NY
		trueNYLA  float64
		trueLANY  float64
	}
	measureOnce := func(offNY, offLA time.Duration) obs {
		l := newLab(labOpts{
			seed:          cfg.Seed + 5, // same seed: identical network draws
			probeInterval: probeInterval,
			clockNY:       offNY,
			clockLA:       offLA,
		})
		l.run(dur)
		la := l.monLA()
		ny := l.monNY()
		gttLA := pathByName(la, "GTT")
		nttLA := pathByName(la, "NTT")
		gttNY := pathByName(ny, "GTT")
		return obs{
			gapNTTGTT: nttLA.OWD.Mean() - gttLA.OWD.Mean(),
			gttNYLA:   gttLA.OWD.Mean(),
			gttLANY:   gttNY.OWD.Mean(),
			trueNYLA:  gttLA.OWD.Mean() - ms(l.offNYtoLA),
			trueLANY:  gttNY.OWD.Mean() - ms(l.offLAtoNY),
		}
	}

	offsets := []struct {
		name       string
		offNY, off time.Duration
	}{
		{"synced", time.Nanosecond, 0}, // ~0 (exact zeros would hit the default)
		{"+2.6 s skew", 1700 * time.Millisecond, -900 * time.Millisecond},
		{"-5 s skew", -2 * time.Second, 3 * time.Second},
	}
	r.Rows = append(r.Rows, []string{"clocks", "raw GTT NY->LA (ms)", "NTT-GTT gap (ms)", "true GTT NY->LA (ms)"})
	var gaps []float64
	var truths []float64
	for _, o := range offsets {
		m := measureOnce(o.offNY, o.off)
		gaps = append(gaps, m.gapNTTGTT)
		truths = append(truths, m.trueNYLA)
		r.Rows = append(r.Rows, []string{o.name, f2(m.gttNYLA), f2(m.gapNTTGTT), f2(m.trueNYLA)})
	}
	maxGapSpread := spread(gaps)
	r.check("path-gap invariance under clock offset", "constant offset cancels in comparisons",
		maxGapSpread < 0.2, "gap spread %.3f ms across offsets", maxGapSpread)
	r.check("corrected OWD consistent", "one-way delay well-defined",
		spread(truths) < 0.2, "true OWD spread %.3f ms", spread(truths))

	// RTT baseline: with symmetric halving, RTT/2 misattributes
	// direction whenever forward and reverse ride different providers.
	m := measureOnce(time.Nanosecond, 0)
	// Simulated RTT through GTT forward and (say) the 4th path back is
	// the sum of the true one-way delays; a synthetic asymmetric pair:
	fwd, rev := m.trueNYLA, m.trueLANY // symmetric baseline
	r.note("GTT direction symmetry: NY->LA %.2f ms vs LA->NY %.2f ms", fwd, rev)
	// Compose an asymmetric round trip (GTT out, Cogent back ~40 ms).
	l := newLab(labOpts{seed: cfg.Seed + 6, probeInterval: probeInterval})
	l.run(dur)
	gttOut := pathByName(l.monLA(), "GTT").OWD.Mean() - ms(l.offNYtoLA)
	cogBack := pathByName(l.monNY(), "Cogent").OWD.Mean() - ms(l.offLAtoNY)
	rtt := gttOut + cogBack
	estEach := rtt / 2
	errOut := estEach - gttOut
	errBack := estEach - cogBack
	r.Rows = append(r.Rows, []string{"RTT baseline", "", "", ""})
	r.Rows = append(r.Rows, []string{"GTT out / Cogent back RTT", f2(rtt), "RTT/2 = " + f2(estEach), fmt.Sprintf("err %+.2f / %+.2f ms", errOut, errBack)})
	r.check("RTT/2 misattributes asymmetric paths", "bidirectional metrics hard to decompose",
		errOut > 2 && errBack < -2, "per-direction error %+.2f / %+.2f ms", errOut, errBack)
	r.VirtualTime = dur * 5
	l.snapshot(r)
	return r
}

// E8DataPlaneCost measures the per-packet cost of the sender and receiver
// programs (encap+timestamp, parse+decap) — the stand-in for the paper's
// "scalable eBPF implementation" claim. It times perf.BenchEncap and
// perf.BenchDecap with testing.Benchmark, the bodies the benchmark
// reports as dataplane.encap_ns_1k and decap_ns_1k, so both measure one
// program. A body that fails its own accounting reports N == 0.
func E8DataPlaneCost(cfg Config) *Result {
	r := newResult("E8", "Data-plane per-packet cost (encap/decap, §4.2)")
	encap := testing.Benchmark(perf.BenchEncap)
	decap := testing.Benchmark(perf.BenchDecap)
	nsPerOp := func(res testing.BenchmarkResult) float64 {
		if res.N == 0 {
			return 0
		}
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	encapNs, decapNs := nsPerOp(encap), nsPerOp(decap)

	r.Rows = append(r.Rows, []string{"program", "ns/packet (1 KiB payload)"})
	r.Rows = append(r.Rows, []string{"sender (classify+encap+timestamp)", f2(encapNs)})
	r.Rows = append(r.Rows, []string{"receiver (parse+OWD+decap)", f2(decapNs)})
	r.check("receiver measured every packet", "piggybacked timestamps, no probes", decap.N > 0, "%d packets", decap.N)
	// The wall-clock budget only means something on an uninstrumented
	// build: the race detector multiplies per-packet cost several-fold,
	// so under -race the timing rows stay informational.
	budget := 10000.0
	if sim.RaceEnabled {
		budget = 200000
	}
	r.check("sender under 10 µs/pkt", "line-rate feasible in eBPF/switch", encap.N > 0 && encapNs < budget, "%.0f ns", encapNs)
	r.check("receiver under 10 µs/pkt", "line-rate feasible in eBPF/switch", decap.N > 0 && decapNs < budget, "%.0f ns", decapNs)
	return r
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
